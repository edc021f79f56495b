"""Trainers: scratch SGD, early stopping, online migration and masking."""
import io
import re

import numpy as np
import pytest

from dkge.contexts import (ContextTable, ENTITY, RELATION, candidate_changed_names,
                           changed_context_objects)
from dkge.errors import ConfigError, IntegrityError
from dkge.kg_store import Snapshot, diff_snapshots
from dkge.training import (TrainConfig, collect_retrain_set, train_from_scratch,
                           train_online)

from graphs import (TOY_T1, TOY_T2, churned_triples, random_name_triples,
                    tiny_store, toy_snapshot)

FAST = dict(dim=8, learning_rate=0.01, batch_size=8, margin=2.0,
            max_epochs=6, patience=2, eval_every=2, seed=0)

LINE = re.compile(r"^epoch=\d+ loss=\d+\.\d{6} valid_hits10=(na|\d\.\d{4}) "
                  r"seconds=\d+\.\d{3}$")


def all_param_bytes(store):
    parts = [store.ent_know, store.ent_ctx, store.rel_know, store.rel_ctx,
             store.ent_gate_pre, store.rel_gate_pre,
             store.entity_agcn.attention, store.relation_agcn.attention]
    parts += store.entity_agcn.weights + store.relation_agcn.weights
    return b"".join(p.tobytes() for p in parts)


# -- config -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(dim=0), dict(learning_rate=0.0), dict(batch_size=0), dict(margin=0.0),
    dict(entity_layers=3), dict(relation_layers=0), dict(max_epochs=0),
    dict(patience=0), dict(eval_every=0), dict(cap=0), dict(max_midpoints=-1)])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


def test_config_defaults():
    cfg = TrainConfig()
    assert (cfg.dim, cfg.learning_rate, cfg.batch_size, cfg.margin) \
        == (100, 0.005, 500, 10.0)
    assert (cfg.max_epochs, cfg.patience, cfg.eval_every) == (800, 5, 10)
    assert (cfg.cap, cfg.max_midpoints) == (35, 1000)


# -- scratch training ---------------------------------------------------------

def test_scratch_reduces_loss(g1):
    cfg = TrainConfig(**{**FAST, "max_epochs": 30})
    store, report = train_from_scratch(g1, set(), cfg, log=None)
    assert report.epochs_run == 30
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.mode == "scratch"
    assert report.frozen_parameters == 0
    assert report.updated_parameters == store.parameter_count()


def test_scratch_progress_line_format(g1):
    cfg = TrainConfig(**{**FAST, "max_epochs": 4, "eval_every": 2})
    log = io.StringIO()
    train_from_scratch(g1, set(g1.triples[:2]), cfg, log=log)
    lines = log.getvalue().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert LINE.match(line), line
    assert "valid_hits10=na" in lines[0]      # off-cadence epoch
    assert "valid_hits10=0." in lines[1] or "valid_hits10=1." in lines[1]


def test_scratch_is_seed_deterministic(g1):
    cfg = TrainConfig(**FAST)
    a, _ = train_from_scratch(g1, set(), cfg, log=None)
    b, _ = train_from_scratch(g1, set(), cfg, log=None)
    assert all_param_bytes(a) == all_param_bytes(b)
    assert a.signatures == b.signatures


def test_scratch_seed_changes_result(g1):
    a, _ = train_from_scratch(g1, set(), TrainConfig(**FAST), log=None)
    b, _ = train_from_scratch(g1, set(), TrainConfig(**{**FAST, "seed": 1}), log=None)
    assert all_param_bytes(a) != all_param_bytes(b)


def test_scratch_fills_signatures(g1):
    store, _ = train_from_scratch(g1, set(), TrainConfig(**FAST), log=None)
    fresh = ContextTable(g1, cap=store.cap, seed=store.seed)
    assert store.signatures == fresh.signatures_by_name()


def test_scratch_early_stopping_returns_best(g1):
    cfg = TrainConfig(**{**FAST, "max_epochs": 40, "eval_every": 1, "patience": 3})
    store, report = train_from_scratch(g1, set(g1.triples), cfg, log=None)
    assert report.best_epoch is not None
    assert report.best_valid_hits10 is not None
    assert report.epochs_run <= 40
    # stopping happened patience evaluations after the best epoch at latest
    if report.epochs_run < 40:
        assert report.epochs_run - report.best_epoch >= cfg.patience


def test_scratch_rejects_out_of_range_valid(g1):
    from dkge.kg_store import Triple
    with pytest.raises(ConfigError):
        train_from_scratch(g1, {Triple(0, 0, 99)}, TrainConfig(**FAST), log=None)


# -- retrain set --------------------------------------------------------------

def test_collect_retrain_set_toy(g1, g2):
    diff = diff_snapshots(g1, g2)
    changed = changed_context_objects(g1, g2, diff)
    t_ol = collect_retrain_set(g2, diff, changed)
    assert {g2.triple_names(t) for t in t_ol} == {
        ("e1", "r1", "e2"), ("e1", "r1", "e5"), ("e1", "r5", "e3"),
        ("e1", "r6", "e6"), ("e3", "r1", "e4"), ("e3", "r4", "e2"),
        ("e6", "r5", "e3"), ("e7", "r7", "e6")}


def test_collect_retrain_set_empty_when_unchanged(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    diff = diff_snapshots(g1, other)
    changed = changed_context_objects(g1, other, diff)
    assert collect_retrain_set(other, diff, changed) == frozenset()


# -- online learning ----------------------------------------------------------

def run_online(g_old, g_new, seed=0, **overrides):
    cfg = TrainConfig(**{**FAST, **overrides, "seed": seed})
    store, _ = train_from_scratch(g_old, set(), cfg, log=None)
    before = store.copy()
    new_store, report = train_online(g_old, g_new, store, set(), cfg, log=None)
    return before, new_store, report


def test_online_toy_masking(g1, g2):
    before, after, report = run_online(g1, g2)
    assert report.mode == "online"
    assert report.retrained_triples == 8
    d = before.dim
    assert report.updated_parameters == 8 * d  # 5 entity rows + 3 relation rows
    # encoder, attention, gates: frozen exactly
    for a, b in zip(before.entity_agcn.weights, after.entity_agcn.weights):
        assert a.tobytes() == b.tobytes()
    assert before.ent_gate_pre.tobytes() == after.ent_gate_pre.tobytes()
    assert before.relation_agcn.attention.tobytes() == after.relation_agcn.attention.tobytes()
    # untouched embedding rows: frozen exactly
    for name in ("e2", "e4", "e5"):
        assert before.ent_know[g1.entity_id(name)].tobytes() \
            == after.ent_know[g2.entity_id(name)].tobytes()
    for name in ("r1", "r2", "r3", "r4", "r6"):
        assert before.rel_know[g1.relation_id(name)].tobytes() \
            == after.rel_know[g2.relation_id(name)].tobytes()
    # changed-context objects move their knowledge embedding only
    for name in ("e1", "e3", "e6"):
        assert before.ent_ctx[g1.entity_id(name)].tobytes() \
            == after.ent_ctx[g2.entity_id(name)].tobytes()
        assert before.ent_know[g1.entity_id(name)].tobytes() \
            != after.ent_know[g2.entity_id(name)].tobytes()
    assert before.rel_ctx[g1.relation_id("r5")].tobytes() \
        == after.rel_ctx[g2.relation_id("r5")].tobytes()


def test_online_requires_matching_checkpoint(g1, g2):
    cfg = TrainConfig(**FAST)
    store, _ = train_from_scratch(g1, set(), cfg, log=None)
    with pytest.raises(IntegrityError):
        train_online(g2, g2, store, set(), cfg, log=None)


def test_online_rejects_dim_mismatch(g1, g2):
    cfg = TrainConfig(**FAST)
    store, _ = train_from_scratch(g1, set(), cfg, log=None)
    with pytest.raises(ConfigError):
        train_online(g1, g2, store, set(), TrainConfig(**{**FAST, "dim": 9}),
                     log=None)


def test_online_noop_when_nothing_changed(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    before, after, report = run_online(g1, other)
    assert report.epochs_run == 0
    assert report.retrained_triples == 0
    assert report.updated_parameters == 0
    for name in g1.entity_names:
        assert before.ent_know[g1.entity_id(name)].tobytes() \
            == after.ent_know[other.entity_id(name)].tobytes()


def test_online_migration_drops_removed_objects(g1):
    shrunk = Snapshot.from_name_triples(
        [t for t in TOY_T1 if t[0] != "e4" and t[2] != "e4"], time_step=1)
    before, after, report = run_online(g1, shrunk)
    assert after.ent_know.shape[0] == shrunk.num_entities
    assert "e4" not in after.entity_names
    assert "r3" not in after.relation_names
    assert after.matches_snapshot(shrunk)


def test_online_emerging_rows_initialized_in_bounds(g1, g2):
    before, after, report = run_online(g1, g2)
    d = after.dim
    bound = 6.0 / np.sqrt(d)
    e7 = g2.entity_id("e7")
    r7 = g2.relation_id("r7")
    # emerging rows moved from their init but were drawn within the prior
    assert np.all(np.abs(after.ent_ctx[e7]) <= bound)  # ctx trains too but...
    assert after.ent_know[e7].any()
    assert after.rel_know[r7].any()


def test_online_refreshes_signatures(g1, g2):
    before, after, report = run_online(g1, g2)
    fresh = ContextTable(g2, cap=after.cap, seed=after.seed)
    assert after.signatures == fresh.signatures_by_name()
    assert after.matches_snapshot(g2)


def test_online_detection_matches_pure_diff():
    rng = np.random.default_rng(7)
    for trial in range(6):
        base = random_name_triples(rng, 30, 10, 4)
        g_old = Snapshot.from_name_triples(base)
        g_new = Snapshot.from_name_triples(churned_triples(rng, base), time_step=1)
        cfg = TrainConfig(**{**FAST, "max_epochs": 1, "seed": trial})
        store, _ = train_from_scratch(g_old, set(), cfg, log=None)
        new_store, report = train_online(g_old, g_new, store, set(), cfg, log=None)
        diff = diff_snapshots(g_old, g_new)
        changed = changed_context_objects(g_old, g_new, diff)
        t_ol = collect_retrain_set(g_new, diff, changed)
        assert report.retrained_triples == len(t_ol)
        fresh = ContextTable(g_new, cap=new_store.cap, seed=new_store.seed)
        assert new_store.signatures == fresh.signatures_by_name()


def test_online_computes_candidates_once(g1, g2, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return candidate_changed_names(*args)

    monkeypatch.setattr("dkge.training.candidate_changed_names", counted)
    run_online(g1, g2)
    assert len(calls) == 1


def test_online_rejects_model_config_mismatch(g1, g2):
    store, _ = train_from_scratch(g1, set(), TrainConfig(**FAST), log=None)
    for key, value in (("cap", 10), ("seed", 1), ("max_midpoints", 2),
                       ("entity_layers", 2)):
        with pytest.raises(ConfigError, match=key):
            train_online(g1, g2, store.copy(), set(),
                         TrainConfig(**{**FAST, key: value}), log=None)


def test_online_is_seed_deterministic(g1, g2):
    _, a, _ = run_online(g1, g2, seed=0)
    _, b, _ = run_online(g1, g2, seed=0)
    assert all_param_bytes(a) == all_param_bytes(b)


def test_online_valid_set_drives_early_stop(g1, g2):
    cfg = TrainConfig(**{**FAST, "max_epochs": 30, "eval_every": 1, "patience": 2})
    store, _ = train_from_scratch(g1, set(), cfg, log=None)
    new_store, report = train_online(g1, g2, store, set(g2.triples[:3]), cfg,
                                     log=None)
    assert report.best_epoch is not None
    assert report.epochs_run <= 30
