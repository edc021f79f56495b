"""Filtered ranking, metric aggregation, top-k answering."""
import numpy as np
import pytest

from dkge.errors import ConfigError, IntegrityError
from dkge.evaluation import (HEAD, TAIL, TIE_OPTIMISTIC, TIE_PESSIMISTIC,
                             answer, evaluate, rank_entity,
                             resolve_test_triples)
from dkge.kg_store import Snapshot, Triple
from dkge.model import joint_table

from graphs import (oracle_metrics, oracle_rank, random_snapshot, tiny_store,
                    toy_snapshot)


@pytest.fixture(scope="module")
def setup():
    g = toy_snapshot(1)
    store, table = tiny_store(g, d=6, seed=11)
    return g, store, table


def test_rank_matches_bruteforce_both_directions(setup):
    g, store, table = setup
    for triple in g.triples:
        for direction in (HEAD, TAIL):
            got = rank_entity((direction, triple), store, g, g.triple_set)
            want = oracle_rank(direction, triple, store, g, g.triple_set, table)
            assert got.rank == want


def test_rank_random_models_match_oracle():
    rng = np.random.default_rng(0)
    for trial in range(12):
        g = random_snapshot(rng, n_triples=18, n_entities=9, n_relations=3)
        store, table = tiny_store(g, d=5, seed=trial)
        store.attach_joint(joint_table(store, g, table), g)
        for triple in list(g.triples)[:6]:
            for direction in (HEAD, TAIL):
                got = rank_entity((direction, triple), store, g, g.triple_set)
                want = oracle_rank(direction, triple, store, g, g.triple_set, table)
                assert got.rank == want


def test_filtering_excludes_known_competitors(setup):
    g, store, table = setup
    # rank of (e1, r1, e5) for tails: e2 is also a true tail of (e1, r1, .)
    t = g.resolve(("e1", "r1", "e5"))
    raw = rank_entity((TAIL, t), store, g, frozenset())
    filt = rank_entity((TAIL, t), store, g, g.triple_set)
    assert filt.rank <= raw.rank


def test_true_candidate_never_filtered(setup):
    g, store, table = setup
    t = g.triples[0]
    res = rank_entity((TAIL, t), store, g, g.triple_set)
    assert 1 <= res.rank <= g.num_entities


def test_tie_modes_on_forced_ties():
    # b and c are structurally interchangeable; with identical embedding rows
    # their joint embeddings coincide exactly and the scores tie
    g = Snapshot.from_name_triples([("a", "r", "b"), ("a", "r", "c")])
    store, _ = tiny_store(g, d=4, seed=2)
    store.ent_know[:] = store.ent_know[0]
    store.ent_ctx[:] = store.ent_ctx[0]
    t = g.resolve(("a", "r", "b"))
    opt = rank_entity((TAIL, t), store, g, frozenset(), tie_mode=TIE_OPTIMISTIC)
    pes = rank_entity((TAIL, t), store, g, frozenset(), tie_mode=TIE_PESSIMISTIC)
    assert pes.rank == opt.rank + 1  # exactly one tied competitor (entity c)


def test_evaluate_aggregates_like_oracle(setup):
    g, store, table = setup
    test = list(g.triples)[:4]
    report = evaluate(test, store, g, g.triple_set, contexts=table)
    ranks = []
    for t in test:
        for direction in (HEAD, TAIL):
            ranks.append(oracle_rank(direction, t, store, g, g.triple_set, table))
    want = oracle_metrics(ranks)
    assert report.queries == len(ranks)
    assert report.mr == pytest.approx(want["mr"])
    assert report.mrr == pytest.approx(want["mrr"])
    for k in (1, 3, 10):
        assert report.hits_at[k] == pytest.approx(want["hits"][k])


def test_evaluate_skips_unknown_objects(setup, caplog):
    g, store, table = setup
    test = [("e1", "r1", "e5"), ("ghost", "r1", "e5"), ("e1", "ghost", "e5")]
    report = evaluate(test, store, g, g.triple_set, contexts=table)
    assert report.skipped == 2
    assert report.queries == 2


def test_resolve_test_triples_counts_skips(g1):
    triples, skipped = resolve_test_triples(
        [("e1", "r1", "e5"), ("nope", "r1", "e5")], g1)
    assert len(triples) == 1
    assert skipped == 1


def test_evaluate_empty_test_gives_nan(setup):
    g, store, table = setup
    report = evaluate([], store, g, g.triple_set, contexts=table)
    assert report.queries == 0
    assert np.isnan(report.mr)


def test_metrics_block_format(setup):
    g, store, table = setup
    report = evaluate(list(g.triples), store, g, g.triple_set, contexts=table)
    block = report.format_block()
    assert block.startswith("mr=")
    for key in ("mrr=", "hits1=", "hits3=", "hits10=", "queries=", "skipped="):
        assert key in block


def test_answer_orders_by_score(setup):
    g, store, table = setup
    res = answer(g.entity_id("e1"), g.relation_id("r1"), 3, store, g)
    assert len(res) == 3
    scores = [s for _, s in res]
    assert scores == sorted(scores)


def test_answer_is_unfiltered_and_k_capped(setup):
    g, store, table = setup
    res = answer(g.entity_id("e1"), g.relation_id("r1"), 100, store, g)
    assert len(res) == g.num_entities  # k larger than the entity count


@pytest.mark.parametrize("k", [0, -2])
def test_answer_rejects_k_below_one(setup, k):
    g, store, table = setup
    with pytest.raises(ConfigError, match=f"k must be at least 1, got {k}"):
        answer(g.entity_id("e1"), g.relation_id("r1"), k, store, g)


def test_answer_breaks_ties_by_id():
    g = Snapshot.from_name_triples([("a", "r", "b"), ("c", "r", "d")])
    store, _ = tiny_store(g, d=4, seed=6)
    store.ent_know[:] = store.ent_know[0]
    store.ent_ctx[:] = store.ent_ctx[0]
    res = answer(0, 0, 4, store, g)
    ids = [e for e, _ in res]
    scores = [s for _, s in res]
    assert len(set(scores)) == 1
    assert ids == sorted(ids)


def test_joint_cache_reuses_entity_matrix(setup):
    g, store, table = setup
    store = store.copy()
    store.attach_joint(joint_table(store, g, table), g)
    cache = joint_table(store, g)
    assert cache.ent_star is store.ent_star
    assert cache.rel_star is store.rel_star
    assert cache.ent_star.shape == (g.num_entities, store.dim)


@pytest.mark.parametrize("table", ["ent_star", "rel_star"])
def test_non_finite_joint_table_is_rejected(setup, table):
    """A library store can hold a NaN joint row; no rank or answer comes
    from it, since a NaN score would rank first."""
    g, store, contexts = setup
    store = store.copy()
    store.attach_joint(joint_table(store, g, contexts), g)
    getattr(store, table)[1] = np.nan
    triple = next(iter(g.triples))
    for call in (lambda: evaluate([triple], store, g, g.triple_ids),
                 lambda: rank_entity((TAIL, triple), store, g, g.triple_set),
                 lambda: answer(triple.head, triple.relation, 3, store, g)):
        with pytest.raises(IntegrityError, match="non-finite"):
            call()
