"""Checkpoint serialization: exact round trips, stable bytes, version gate,
the trained snapshot's fields, and damaged payloads."""
import copy
import pickle
import re

import numpy as np
import pytest

from dkge.checkpoint import load_checkpoint, save_checkpoint
from dkge.errors import IntegrityError
from dkge.kg_store import load_snapshot_dir
from dkge.model import joint_table

from graphs import TOY_T1, tiny_store, toy_snapshot, write_snapshot_dir


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


def test_equal_parameters_save_to_equal_bytes(tmp_path, store):
    """A loaded store and a copy of it whose ``ent_know`` is an array with
    equal values unpickled on its own save to the same bytes: that array's
    dtype is not numpy's own float64 instance, and pickle memoizes by
    identity."""
    save_checkpoint(store, tmp_path / "a.pkl")
    loaded = load_checkpoint(tmp_path / "a.pkl")
    fresh = copy.copy(loaded)
    fresh.ent_know = pickle.loads(pickle.dumps(loaded.ent_know, protocol=4))
    assert fresh.ent_know.dtype is not np.dtype(np.float64)
    save_checkpoint(loaded, tmp_path / "b.pkl")
    save_checkpoint(fresh, tmp_path / "c.pkl")
    assert (tmp_path / "b.pkl").read_bytes() == (tmp_path / "c.pkl").read_bytes()
    assert (tmp_path / "b.pkl").read_bytes() == (tmp_path / "a.pkl").read_bytes()


def test_save_replaces_existing_file(tmp_path, store):
    path = tmp_path / "model.pkl"
    path.write_bytes(b"junk")
    save_checkpoint(store, path)
    assert load_checkpoint(path).dim == store.dim


def test_no_temp_files_left_behind(tmp_path, store):
    save_checkpoint(store, tmp_path / "model.pkl")
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"model.pkl"}


@pytest.mark.parametrize("name", ["missing/model.pkl", "taken"])
def test_failed_save_names_the_checkpoint_path(tmp_path, store, name):
    """A save into a missing directory or onto a directory names the path
    it was given, not its temp file, and leaves no temp file behind."""
    (tmp_path / "taken").mkdir()
    path = tmp_path / name
    with pytest.raises(OSError) as err:
        save_checkpoint(store, path)
    assert err.value.filename == str(path)
    assert {p.name for p in tmp_path.iterdir()} == {"taken"}
    assert not any((tmp_path / "taken").iterdir())


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
    for version in (2, 3, 4, 5, 6):
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


def test_round_trip_rebuilds_the_trained_snapshot(tmp_path, store):
    """The snapshot the joint tables were encoded on comes back field for
    field, and a directory holding the same train.txt bytes hands it back
    without a parse; other bytes are parsed afresh."""
    snap = tmp_path / "s"
    write_snapshot_dir(snap, TOY_T1 + TOY_T1[:1])
    g = load_snapshot_dir(snap).train
    store.attach_joint(joint_table(store, g), g)
    save_checkpoint(store, tmp_path / "model.pkl")
    rebuilt = load_checkpoint(tmp_path / "model.pkl").joint_snapshot
    assert rebuilt.triple_ids.tobytes() == g.triple_ids.tobytes()
    assert rebuilt.triple_ids.dtype == np.int64 and not rebuilt.triple_ids.flags.writeable
    assert (rebuilt.entity_names, rebuilt.relation_names) == (g.entity_names, g.relation_names)
    assert (rebuilt.duplicates_collapsed, rebuilt.file_digest, rebuilt.digest) == (
        1, g.file_digest, g.digest)
    assert load_snapshot_dir(snap, rebuilt).train is rebuilt
    (snap / "train.txt").write_bytes(b"\n" + (snap / "train.txt").read_bytes())
    again = load_snapshot_dir(snap, rebuilt).train
    assert again is not rebuilt and again.digest == g.digest


class Called:
    """Pickles as a call of ``record``, which would note that it ran."""

    ran = []

    def __reduce__(self):
        return Called.record, ("ran",)

    @staticmethod
    def record(what):
        Called.ran.append(what)


def test_loading_calls_nothing_the_file_names(tmp_path, store):
    """A payload that names a function is refused by the checks, and the
    function never runs."""
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    payload["cap"] = Called()
    path.write_bytes(pickle.dumps(payload, protocol=4))
    with pytest.raises(IntegrityError, match="model.pkl: checkpoint cap is <"):
        load_checkpoint(path)
    assert not Called.ran


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


def _with_row(a, i, row):
    a = a.copy()
    a[i] = row
    return a


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
    ("entity_names", lambda names: None),
    ("entity_names", lambda names: names[:1] + names[:-1]),
    ("relation_names", lambda names: tuple(range(len(names)))),
    ("triple_ids", lambda a: a.astype(np.int32)),
    ("triple_ids", lambda a: a[:, :2]),
    ("triple_ids", list),
    ("triple_ids", lambda a: np.where(a == a.max(), 99, a)),
    ("triple_ids", lambda a: np.concatenate((a, a[:1]))),
    # (e2, r2, e5) is the only triple naming r2
    ("triple_ids", lambda a: np.delete(a, TOY_T1.index(("e2", "r2", "e5")), axis=0)),
    # (e1, r1, e4) for the last triple (e1, r1, e2): every name still used
    ("triple_ids", lambda a: _with_row(a, -1, [a[-1, 0], a[-1, 1], a[5, 2]])),
    ("file_digest", lambda digest: b"\x00" * 16),
    ("duplicates_collapsed", lambda dups: -1),
    ("duplicates_collapsed", lambda dups: 0.0),
    ("duplicates_collapsed", lambda dups: True),
]


@pytest.mark.parametrize("key,damage", DAMAGES, ids=[key for key, _ in DAMAGES])
def test_damaged_array_names_path_and_key(tmp_path, store, key, damage):
    path = _damaged(tmp_path, store, key, damage)
    with pytest.raises(IntegrityError, match=f"model.pkl.*{key}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["ent_star", "rel_star", "joint_digest", "triple_ids",
                                 "duplicates_collapsed"])
def test_joint_tables_all_or_none(tmp_path, store, key):
    path = _damaged(tmp_path, store, key, lambda value: None)
    with pytest.raises(IntegrityError, match="model.pkl.*all None"):
        load_checkpoint(path)


def test_file_digest_needs_joint_tables(tmp_path, store):
    path = tmp_path / "model.pkl"
    save_checkpoint(store, path)
    payload = pickle.loads(path.read_bytes())
    payload["file_digest"] = "0" * 32
    path.write_bytes(pickle.dumps(payload, protocol=4))
    with pytest.raises(IntegrityError, match="model.pkl.*file_digest is set without"):
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
