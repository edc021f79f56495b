"""Batch Bernoulli negatives: ``corrupt_rows`` against the snapshot's codes,
and ``batch_loss`` on its (P, 2, 3) arrays."""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from dkge import model
from dkge.kg_store import Snapshot, Triple
from dkge.model import GradBuffer, batch_loss, corrupt_rows, relation_stats

from graphs import random_name_triples, tiny_store


@st.composite
def graphs(draw):
    """Small random graphs with self-loops and parallel relations."""
    n_e = draw(st.integers(2, 10))
    n_r = draw(st.integers(1, 3))
    ent = st.integers(0, n_e - 1)
    rel = st.integers(0, n_r - 1)
    triples = draw(st.lists(st.tuples(ent, rel, ent), min_size=1, max_size=40))
    triples += [(h, (r + 1) % n_r, t) for h, r, t in triples[:draw(st.integers(0, 5))]]
    triples += [(e, draw(rel), e) for e in draw(st.lists(ent, max_size=3))]
    triples += [(e, 0, e) for e in range(n_e)] + [(0, r, 0) for r in range(n_r)]
    return Snapshot.from_name_triples([(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples])


def is_subsequence(kept, rows):
    it = iter(map(tuple, rows.tolist()))
    return all(row in it for row in map(tuple, kept.tolist()))


@given(g=graphs(), seed=st.integers(0, 2**32 - 1), max_retries=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_negatives_are_one_sided_unknown_and_in_batch_order(g, seed, max_retries):
    rng = np.random.default_rng(seed)
    rows = g.triple_ids[rng.permutation(len(g.triple_ids))]
    with mock.patch.object(model, "MAX_RETRIES", max_retries):
        pairs = corrupt_rows(rows, relation_stats(g), g, rng)
    assert pairs.dtype == np.int64 and pairs.shape[1:] == (2, 3)
    pos, neg = pairs[:, 0], pairs[:, 1]
    assert not any(g.has_triple(Triple(*t)) for t in neg.tolist())
    assert (pos[:, 1] == neg[:, 1]).all()
    assert ((pos[:, 0] != neg[:, 0]) ^ (pos[:, 2] != neg[:, 2])).all()
    assert is_subsequence(pos, rows)


@given(g=graphs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_same_seed_same_negatives(g, seed):
    stats = relation_stats(g)
    first = corrupt_rows(g.triple_ids, stats, g, np.random.default_rng(seed))
    second = corrupt_rows(g.triple_ids, stats, g, np.random.default_rng(seed))
    assert first.tobytes() == second.tobytes() and first.shape == second.shape


def test_exhausted_rows_are_dropped():
    """Relation r links every ordered pair, so none of its triples has a
    corruption; the rows of s keep their batch order around them."""
    names = "abc"
    triples = [(h, "r", t) for h in names for t in names]
    triples += [("a", "s", "b"), ("c", "s", "c")]
    g = Snapshot.from_name_triples(triples)
    rows = g.triple_ids[::-1]
    r = g.relation_id("r")
    for max_retries in (20, 100):
        with mock.patch.object(model, "MAX_RETRIES", max_retries):
            pairs = corrupt_rows(rows, relation_stats(g), g, np.random.default_rng(1))
        assert pairs[:, 0].tolist() == rows[rows[:, 1] != r].tolist()
    assert corrupt_rows(rows[:0], relation_stats(g), g,
                        np.random.default_rng(1)).shape == (0, 2, 3)


def test_head_share_within_binomial_bounds():
    """On a graph with many spare entities collisions are rare, so the
    number of head replacements is Binomial-like with mean sum(p_head)."""
    rng = np.random.default_rng(3)
    triples = [("hub", "star", f"leaf{i}") for i in range(40)]       # p_head 40/41
    triples += [(f"src{i}", "sink", "hub") for i in range(25)]       # p_head 1/26
    triples += random_name_triples(rng, 400, 1500, 4)
    g = Snapshot.from_name_triples(triples)
    stats = relation_stats(g)
    rows = np.tile(g.triple_ids, (20, 1))
    pairs = corrupt_rows(rows, stats, g, np.random.default_rng(4))
    assert len(pairs) == len(rows)
    p = (stats.tph / (stats.tph + stats.hpt))[rows[:, 1]]
    heads = int((pairs[:, 0, 0] != pairs[:, 1, 0]).sum())
    sigma = np.sqrt((p * (1 - p)).sum())
    assert abs(heads - p.sum()) < 5 * sigma


def test_batch_loss_same_from_array_and_triple_pairs():
    g = Snapshot.from_name_triples(random_name_triples(np.random.default_rng(5), 60, 15, 3))
    store, table = tiny_store(g, d=6, seed=2)
    pairs = corrupt_rows(g.triple_ids, relation_stats(g), g, np.random.default_rng(6))
    as_triples = [(Triple(*pos), Triple(*neg)) for pos, neg in pairs.tolist()]
    from_array, from_list = GradBuffer(store), GradBuffer(store)
    loss_array = batch_loss(pairs, store, table, 2.0, from_array)
    loss_list = batch_loss(as_triples, store, table, 2.0, from_list)
    assert loss_array == loss_list > 0.0
    for name, acc in vars(from_array).items():
        other = vars(from_list)[name]
        for a, b in zip(acc if isinstance(acc, list) else [acc],
                        other if isinstance(other, list) else [other], strict=True):
            assert a.tobytes() == b.tobytes(), name
    assert batch_loss(pairs[:0], store, table, 2.0) == batch_loss([], store, table, 2.0) == 0.0


class ScriptedRng:
    """Always replaces the tail; the first ``collisions`` replacement draws
    give ``known`` and every later one ``fresh``."""

    def __init__(self, collisions, known, fresh):
        self.tails = [known] * collisions
        self.fresh = fresh

    def random(self, k):
        return np.ones(k)

    def integers(self, n, size):
        draw = self.tails.pop(0) if self.tails else self.fresh
        return np.full(size, draw, dtype=np.int64)


def test_retries_run_max_retries_plus_one_rounds():
    """A row whose first MAX_RETRIES candidates are known triples is kept by
    the last round; one collision more and it is dropped."""
    g = Snapshot.from_name_triples([("a", "r", "b"), ("b", "r", "c")])
    row = g.triple_ids[:1]
    a, b = g.entity_id("a"), g.entity_id("b")
    for collisions, kept in ((model.MAX_RETRIES, True), (model.MAX_RETRIES + 1, False)):
        pairs = corrupt_rows(row, relation_stats(g), g, ScriptedRng(collisions, b, a))
        if kept:
            assert pairs.tolist() == [[row[0].tolist(), [a, g.relation_id("r"), a]]]
        else:
            assert pairs.shape == (0, 2, 3)
