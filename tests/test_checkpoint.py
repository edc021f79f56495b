"""Checkpoint serialization: exact round trips, stable bytes, version gate."""
import pickle

import pytest

from dkge.checkpoint import load_checkpoint, save_checkpoint
from dkge.errors import IntegrityError

from graphs import tiny_store, toy_snapshot


@pytest.fixture()
def store():
    g = toy_snapshot(1)
    store, _ = tiny_store(g, d=7, seed=4)
    return store


def test_round_trip_exact(tmp_path, store):
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded.dim == store.dim
    assert loaded.entity_names == store.entity_names
    assert loaded.relation_names == store.relation_names
    for name in ("ent_know", "ent_ctx", "rel_know", "rel_ctx",
                 "ent_gate_pre", "rel_gate_pre"):
        assert getattr(loaded, name).tobytes() == getattr(store, name).tobytes()
    for a, b in zip(loaded.entity_agcn.weights, store.entity_agcn.weights):
        assert a.tobytes() == b.tobytes()
    assert loaded.entity_agcn.attention.tobytes() == store.entity_agcn.attention.tobytes()
    assert loaded.relation_agcn.attention.tobytes() == store.relation_agcn.attention.tobytes()
    assert loaded.signatures == store.signatures
    assert loaded.model_config() == store.model_config()


def test_rewrite_is_byte_identical(tmp_path, store):
    a = tmp_path / "a.pkl"
    b = tmp_path / "b.pkl"
    save_checkpoint(store, a)
    save_checkpoint(store, b)
    assert a.read_bytes() == b.read_bytes()


def test_save_replaces_existing_file(tmp_path, store):
    path = tmp_path / "model.pkl"
    path.write_bytes(b"junk")
    save_checkpoint(store, path)
    assert load_checkpoint(path).dim == store.dim


def test_no_temp_files_left_behind(tmp_path, store):
    save_checkpoint(store, tmp_path / "model.pkl")
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"model.pkl"}


def test_version_mismatch_rejected(tmp_path, store):
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    payload["format_version"] = 999
    path.write_bytes(pickle.dumps(payload, protocol=4))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_matches_snapshot_by_names(tmp_path, store):
    g1 = toy_snapshot(1)
    g2 = toy_snapshot(2)
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded.matches_snapshot(g1)
    assert not loaded.matches_snapshot(g2)
    with pytest.raises(IntegrityError):
        loaded.require_snapshot(g2)
