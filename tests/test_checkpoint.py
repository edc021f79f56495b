"""Checkpoint serialization: exact round trips, stable bytes, version gate."""
import pickle
import re

import numpy as np
import pytest

from dkge.checkpoint import load_checkpoint, save_checkpoint
from dkge.errors import IntegrityError
from dkge.model import joint_table

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


def test_version_2_rejected(tmp_path, store):
    """Every earlier format version is refused, naming the file and the
    version."""
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    for version in (2, 3, 4):
        payload["format_version"] = version
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(IntegrityError, match=f"model.pkl.*version: {version}"):
            load_checkpoint(path)


def test_round_trip_keeps_joint_tables(tmp_path, store):
    g = toy_snapshot(1)
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    assert load_checkpoint(path).joint_digest is None
    store.attach_joint(joint_table(store, g), g)
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded.joint_digest == g.digest
    assert loaded.ent_star.tobytes() == store.ent_star.tobytes()
    assert loaded.rel_star.tobytes() == store.rel_star.tobytes()
    assert joint_table(loaded, g).ent_star is loaded.ent_star


def test_truncated_file_names_path(tmp_path, store):
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    path.write_bytes(path.read_bytes()[:200])
    with pytest.raises(IntegrityError, match="model.pkl"):
        load_checkpoint(path)


def test_payload_not_a_dict_rejected(tmp_path):
    path = tmp_path / "model.pkl"
    path.write_bytes(pickle.dumps([1, 2, 3], protocol=4))
    with pytest.raises(IntegrityError, match="model.pkl.*list"):
        load_checkpoint(path)


def test_missing_key_rejected(tmp_path, store):
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    del payload["rel_ctx"]
    path.write_bytes(pickle.dumps(payload, protocol=4))
    with pytest.raises(IntegrityError, match="model.pkl.*rel_ctx"):
        load_checkpoint(path)


def _damaged(tmp_path, store, key, damage):
    """Save ``store`` with its joint tables, replace the payload's ``key``
    by ``damage`` of its value and write it back; returns the path."""
    g = toy_snapshot(1)
    store.attach_joint(joint_table(store, g), g)
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    payload[key] = damage(payload[key])
    path.write_bytes(pickle.dumps(payload, protocol=4))
    return path


DAMAGES = [
    ("ent_star", lambda a: a[:-5]),
    ("rel_ctx", lambda a: a[:-1]),
    ("ent_know", lambda a: a[:, :-1]),
    ("ent_ctx", lambda a: a.astype(np.float32)),
    ("rel_gate_pre", list),
    ("entity_weights", lambda ws: ws * 3),
    ("relation_weights", lambda ws: [ws[0][:, :-1]]),
    ("entity_attention", lambda a: a[:-1]),
    ("dim", lambda d: 0),
    ("joint_digest", lambda digest: 3),
    ("cap", lambda cap: "x"),
    ("cap", lambda cap: 0),
    ("seed", lambda seed: 1.5),
    ("seed", lambda seed: -1),
    ("max_midpoints", lambda m: None),
    ("entity_names", lambda names: None),
    ("entity_names", lambda names: names[:1] + names[:-1]),
    ("relation_names", lambda names: tuple(range(len(names)))),
]


@pytest.mark.parametrize("key,damage", DAMAGES, ids=[key for key, _ in DAMAGES])
def test_damaged_array_names_path_and_key(tmp_path, store, key, damage):
    path = _damaged(tmp_path, store, key, damage)
    with pytest.raises(IntegrityError, match=f"model.pkl.*{key}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["ent_star", "rel_star", "joint_digest"])
def test_joint_tables_all_or_none(tmp_path, store, key):
    path = _damaged(tmp_path, store, key, lambda value: None)
    with pytest.raises(IntegrityError, match="model.pkl.*all None"):
        load_checkpoint(path)


def _poisoned(a, value):
    a = a.copy()
    a.flat[a.size // 2] = value
    return a


NON_FINITE = [
    ("ent_star", lambda a: _poisoned(a, np.nan)),
    ("rel_know", lambda a: _poisoned(a, np.inf)),
    ("entity_weights[0]", lambda ws: [_poisoned(ws[0], np.nan)] + ws[1:]),
    ("ent_gate_pre", lambda a: _poisoned(a, -np.inf)),
]


@pytest.mark.parametrize("key,damage", NON_FINITE, ids=[key for key, _ in NON_FINITE])
def test_non_finite_array_names_path_and_key(tmp_path, store, key, damage):
    path = _damaged(tmp_path, store, key.split("[")[0], damage)
    with pytest.raises(IntegrityError, match=rf"model.pkl: checkpoint {re.escape(key)} "
                                             r"holds a non-finite entry"):
        load_checkpoint(path)
