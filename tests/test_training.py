"""Trainers: scratch SGD, early stopping, online migration and masking."""
import io
import re

import numpy as np
import pytest

from dkge.contexts import ENTITY, RELATION, candidate_objects, changed_context_objects
from dkge.errors import ConfigError, IntegrityError
from dkge.kg_store import Snapshot, diff_snapshots
from dkge.model import joint_table
from dkge.training import (TrainConfig, collect_retrain_set, train_from_scratch,
                           train_online)

from graphs import (TOY_T1, TOY_T2, assert_tables_fresh, candidate_changed_names,
                    churned_triples, random_name_triples, row_triples, split_refs,
                    tiny_store, toy_snapshot, update_traces)

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
    dict(patience=0), dict(eval_every=0), dict(cap=0), dict(max_midpoints=-1),
    dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
    dict(margin=float("nan")), dict(margin=float("inf")), dict(seed=-1)])
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


def test_scratch_seed_changes_result(g1):
    a, _ = train_from_scratch(g1, set(), TrainConfig(**FAST), log=None)
    b, _ = train_from_scratch(g1, set(), TrainConfig(**{**FAST, "seed": 1}), log=None)
    assert all_param_bytes(a) != all_param_bytes(b)


def test_pairs_without_a_negative_are_dropped():
    """A graph holding every triple of its vocabulary has no corruption:
    every pair is dropped, so the loss reads 0 and nothing trains."""
    g = Snapshot.from_name_triples([(h, "r", t) for h in "ab" for t in "ab"])
    one, report = train_from_scratch(g, set(), TrainConfig(**{**FAST, "max_epochs": 1}),
                                     log=None)
    three, report = train_from_scratch(g, set(), TrainConfig(**{**FAST, "max_epochs": 3}),
                                       log=None)
    assert report.epoch_losses == [0.0, 0.0, 0.0]
    assert report.negatives_dropped == 3 * 4
    assert all_param_bytes(one) == all_param_bytes(three)
    # an update retrains all five triples; only the new relation's has a
    # corruption
    g_new = Snapshot.from_name_triples(list(g.name_triples()) + [("a", "s", "b")],
                                       time_step=1)
    _, report = train_online(g, g_new, three, set(), TrainConfig(**{**FAST, "max_epochs": 2}),
                             log=None)
    assert (report.epochs_run, report.retrained_triples) == (2, 5)
    assert report.negatives_dropped == 2 * 4


def test_training_builds_no_triple_views():
    """Negatives are tested against the sorted codes, so neither trainer
    builds the per-triple tuple view or its frozenset."""
    rng = np.random.default_rng(8)
    base = random_name_triples(rng, 120, 25, 4)
    g_old = Snapshot.from_name_triples(base)
    g_new = Snapshot.from_name_triples(churned_triples(rng, base), time_step=1)
    config = TrainConfig(**{**FAST, "max_epochs": 2})
    store, report = train_from_scratch(g_old, set(), config, log=None)
    _, update = train_online(g_old, g_new, store, set(), config, log=None)
    assert update.retrained_triples > 0
    assert report.negatives_dropped == update.negatives_dropped == 0
    for g in (g_old, g_new):
        assert not {"triples", "triple_set"} & set(vars(g))


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
    changed = split_refs(changed_context_objects(g1, g2, diff))
    t_ol = collect_retrain_set(g2, diff, changed)
    assert {g2.triple_names(t) for t in t_ol} == {
        ("e1", "r1", "e2"), ("e1", "r1", "e5"), ("e1", "r5", "e3"),
        ("e1", "r6", "e6"), ("e3", "r1", "e4"), ("e3", "r4", "e2"),
        ("e6", "r5", "e3"), ("e7", "r7", "e6")}


def test_collect_retrain_set_empty_when_unchanged(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    diff = diff_snapshots(g1, other)
    changed = split_refs(changed_context_objects(g1, other, diff))
    assert row_triples(collect_retrain_set(other, diff, changed)) == frozenset()


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
        changed = split_refs(changed_context_objects(g_old, g_new, diff))
        t_ol = collect_retrain_set(g_new, diff, changed)
        assert report.retrained_triples == len(t_ol)


def test_online_computes_candidates_once(g1, g2, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return candidate_objects(*args)

    monkeypatch.setattr("dkge.training.candidate_objects", counted)
    run_online(g1, g2)
    assert len(calls) == 1


def test_online_builds_each_context_at_most_once(g1, g2, monkeypatch):
    """Change detection builds the old contexts of the candidates that
    survived, once each, and no other old context; each new context is
    built at most once, since SGD and the joint re-encode reuse the capped
    copies detection stored.  Counts the owners the bulk builder receives."""
    import dkge.contexts as contexts
    cfg = TrainConfig(**{**FAST, "cap": 3})
    store, _ = train_from_scratch(g1, set(), cfg, log=None)
    built = []
    build = contexts.build_contexts

    def counted(snapshot, kind, owners, *args):
        built.extend((snapshot, (kind, obj)) for obj in owners.tolist())
        return build(snapshot, kind, owners, *args)

    monkeypatch.setattr(contexts, "build_contexts", counted)
    after, report = train_online(g1, g2, store, set(), cfg, log=None)
    assert report.retrained_triples > 0
    old = [ref for g, ref in built if g is g1]
    new = [ref for g, ref in built if g is g2]
    assert len(old) + len(new) == len(built)
    assert len(new) == len(set(new))
    ent_cand, rel_cand = candidate_changed_names(g1, g2, diff_snapshots(g1, g2))
    survived = sorted([(ENTITY, g1.entity_ids[n]) for n in ent_cand
                       if n in g1.entity_ids and n in g2.entity_ids]
                      + [(RELATION, g1.relation_ids[n]) for n in rel_cand
                         if n in g1.relation_ids and n in g2.relation_ids])
    assert 0 < len(survived) < g1.num_entities + g1.num_relations
    assert sorted(old) == survived
    monkeypatch.undo()
    assert_tables_fresh(after, g2)


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


# -- stored joint tables ------------------------------------------------------

def test_scratch_attaches_fresh_joint_tables(g1):
    store, report = train_from_scratch(g1, set(), TrainConfig(**FAST), log=None)
    assert_tables_fresh(store, g1)
    assert (report.reencoded_entities, report.reencoded_relations) \
        == (g1.num_entities, g1.num_relations)


def test_online_re_encodes_only_the_touched_region(g1, g2):
    before, after, report = run_online(g1, g2)
    assert_tables_fresh(after, g2)
    # e1, e3, e6 and r5 changed context; e7 and r7 emerged
    assert (report.reencoded_entities, report.reencoded_relations) == (4, 2)
    for name in ("e2", "e4", "e5"):
        assert before.ent_star[g1.entity_id(name)].tobytes() \
            == after.ent_star[g2.entity_id(name)].tobytes()


def test_online_noop_carries_joint_tables(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    _, after, report = run_online(g1, other)
    assert_tables_fresh(after, other)
    assert (report.reencoded_entities, report.reencoded_relations) == (0, 0)


def test_joint_tables_fresh_over_update_traces():
    """Criterion 4's traces, each from a store whose tables were encoded on
    the old snapshot: the updated tables equal a fresh full encode."""
    partial = 0
    for trace, g_old, g_new in update_traces():
        cfg = TrainConfig(dim=6, learning_rate=0.02, batch_size=64, margin=2.0,
                          max_epochs=2, seed=trace)
        store, _ = tiny_store(g_old, d=6, seed=trace)
        store.attach_joint(joint_table(store, g_old), g_old)
        after, report = train_online(g_old, g_new, store, set(), cfg, log=None)
        assert_tables_fresh(after, g_new)
        partial += report.reencoded_entities < g_new.num_entities
    assert partial >= 25


def test_joint_tables_fresh_along_an_update_chain():
    """Train, then three updates, each from the store the last one wrote,
    with contexts capped: every step's tables equal a fresh full encode."""
    rng = np.random.default_rng(5)
    triples = random_name_triples(rng, 200, 50, 6)
    g = Snapshot.from_name_triples(triples)
    cfg = TrainConfig(**{**FAST, "max_epochs": 2, "cap": 6})
    store, _ = train_from_scratch(g, set(), cfg, log=None)
    assert_tables_fresh(store, g)
    assert max(len(store.context_table(g).entity(e).vertices)
               for e in range(g.num_entities)) == 6
    for step in range(1, 4):
        triples = churned_triples(rng, triples, churn=0.04)
        g_new = Snapshot.from_name_triples(triples, time_step=step)
        store, report = train_online(g, g_new, store, set(), cfg, log=None)
        assert_tables_fresh(store, g_new)
        assert 0 < report.reencoded_entities < g_new.num_entities
        g = g_new


def test_online_encodes_everything_without_matching_tables(g1, g2):
    """A store without tables, and one whose tables were encoded on another
    snapshot with the same dictionaries, both fall back to a full encode."""
    cfg = TrainConfig(**FAST)
    bare, _ = tiny_store(g1, d=8, seed=0)
    other = Snapshot.from_name_triples(TOY_T1 + (("e2", "r1", "e4"),))
    assert other.entity_names == g1.entity_names and other.digest != g1.digest
    stale, _ = train_from_scratch(other, set(), cfg, log=None)
    for store in (bare, stale):
        after, report = train_online(g1, g2, store, set(), cfg, log=None)
        assert_tables_fresh(after, g2)
        assert (report.reencoded_entities, report.reencoded_relations) \
            == (g2.num_entities, g2.num_relations)


def test_validation_ranks_with_fresh_encodings(g1, g2, monkeypatch):
    """Validation inside the SGD loop never sees stored tables: the store it
    ranks with still moves."""
    import dkge.training as training
    digests = []
    evaluate = training.evaluate

    def checked(test, store, *args, **kwargs):
        digests.append(store.joint_digest)
        return evaluate(test, store, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate", checked)
    cfg = TrainConfig(**{**FAST, "eval_every": 1, "patience": 10})
    store, report = train_from_scratch(g1, set(g1.triples[:3]), cfg, log=None)
    assert report.best_epoch is not None
    assert_tables_fresh(store, g1)
    after, report = train_online(g1, g2, store, set(g2.triples[:3]), cfg, log=None)
    assert report.best_epoch is not None
    assert_tables_fresh(after, g2)
    assert len(digests) == 2 * FAST["max_epochs"]
    assert set(digests) == {None}
