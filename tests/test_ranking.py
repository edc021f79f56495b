"""The ranking core: the transposed scorer's summation order and the
sorted-code filter, checked against the dict-of-sets filter and the (n_e, d)
scorer that ``graphs`` keeps as the oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge.cli
from dkge.errors import UnknownObjectError
from dkge.evaluation import (HEAD, TAIL, TIE_OPTIMISTIC, TIE_PESSIMISTIC,
                             answer, evaluate, rank_entity, sum_rows)
from dkge.kg_store import Snapshot, Triple
from dkge.model import JointCache, init_params

from graphs import (answer_oracle, evaluate_oracle, filter_index,
                    random_name_triples, rank_one, write_snapshot_dir)

# -- summation order -----------------------------------------------------------


def rows_with_zeros_and_inf(rng, n, d):
    """(n, d) values spread over many binades, so that adding them in another
    order changes the last bits; about a tenth are 0.0 or -0.0, one row is all
    zeros and, when n > 1, another holds an inf."""
    x = rng.standard_normal((n, d)) * np.exp2(rng.integers(-40, 40, (n, d)))
    x[rng.random((n, d)) < 0.05] = 0.0
    x[rng.random((n, d)) < 0.05] = -0.0
    x[0] = 0.0
    if n > 1:
        x[n - 1, rng.integers(d)] = np.inf
    return x


@pytest.mark.parametrize("n", [1, 7, 10_005])
def test_sum_rows_adds_in_numpys_order(n):
    """``sum_rows`` over the transposed |x| equals ``np.abs(x).sum(axis=1)``
    bit for bit; a numpy whose pairwise summation adds in another order must
    fail here rather than move ranks."""
    rng = np.random.default_rng(n)
    differs = []
    for d in [*range(1, 131), 256]:
        x = rows_with_zeros_and_inf(rng, n, d)
        want = np.abs(x).sum(axis=1)
        got = sum_rows(np.ascontiguousarray(np.abs(x).T))
        if got.tobytes() != want.tobytes():
            differs.append(d)
    assert not differs, (f"numpy {np.__version__} sums rows of length d in "
                         f"{differs} in another order than evaluation.sum_rows")


def test_sum_rows_returns_a_row_of_its_input():
    x = np.arange(24, dtype=np.float64).reshape(12, 2)
    total = sum_rows(x)
    assert total.base is x or total.base is x.base
    assert total.tolist() == [132.0, 144.0]

# -- the ranking against the oracle ---------------------------------------------


def joint_store(g, ent, rel):
    """A store whose joint tables are ``ent`` and ``rel``, so that ranking
    runs no encoder; the other parameters are unused."""
    store = init_params(g, ent.shape[1], np.random.default_rng(0))
    store.attach_joint(JointCache(ent, rel), g)
    return store


@st.composite
def ranking_cases(draw):
    """A random graph with joint tables, test triples and a filter input.

    Tables drawn from few levels, and rows copied from other rows, force
    ties; the test triples repeat train triples and add random ones, and the
    filter input may list a triple more than once."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_e, n_r = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    g = Snapshot.from_name_triples(
        random_name_triples(rng, draw(st.integers(1, 40)), n_e, n_r))
    n_e, n_r = g.num_entities, g.num_relations
    d = draw(st.sampled_from([1, 3, 8, 13, 16, 32, 130]))
    levels = draw(st.sampled_from([0, 2, 3]))
    if levels:
        ent = rng.integers(levels, size=(n_e, d)).astype(np.float64)
        rel = rng.integers(levels, size=(n_r, d)).astype(np.float64)
    else:
        ent, rel = rng.standard_normal((n_e, d)), rng.standard_normal((n_r, d))
    for i in rng.integers(n_e, size=draw(st.integers(0, n_e))):
        ent[i] = ent[rng.integers(n_e)]
    train = list(g.triples)
    repeated = [train[i] for i in rng.integers(len(train), size=draw(st.integers(0, 6)))]
    fresh = [Triple(*map(int, rng.integers((n_e, n_r, n_e))))
             for _ in range(draw(st.integers(0, 6)))]
    test = repeated + fresh or train[:1]
    rng.shuffle(test)
    known = {
        "snapshot rows": g.triple_ids,
        "triple set": g.triple_set,
        "train twice": train + train,
        "train and test": train + test,
        "train and test rows": np.concatenate((g.triple_ids, np.array(test))),
    }[draw(st.sampled_from(["snapshot rows", "triple set", "train twice",
                            "train and test", "train and test rows"]))]
    tie_mode = draw(st.sampled_from([TIE_OPTIMISTIC, TIE_PESSIMISTIC]))
    return g, JointCache(ent, rel), test, known, tie_mode


@given(case=ranking_cases())
@settings(max_examples=150, deadline=None)
def test_ranking_matches_the_oracle(case):
    g, cache, test, known, tie_mode = case
    store = joint_store(g, *cache)
    oracle_filter = {Triple(*map(int, t)) for t in known}
    assert evaluate(test, store, g, known, tie_mode=tie_mode) \
        == evaluate_oracle(test, cache, oracle_filter, tie_mode)
    idx = filter_index(oracle_filter)
    for t in test:
        for direction in (HEAD, TAIL):
            got = rank_entity((direction, t), store, g, known, tie_mode=tie_mode)
            assert (got.rank, got.true_score) == rank_one(direction, t, cache, idx, tie_mode)
        for k in (1, g.num_entities):
            assert answer(t.head, t.relation, k, store, g) \
                == answer_oracle(t.head, t.relation, k, cache)


def test_single_entity_graph_ranks_first():
    g = Snapshot.from_name_triples([("a", "r", "a"), ("a", "s", "a")])
    cache = JointCache(np.ones((1, 4)), np.zeros((2, 4)))
    store = joint_store(g, *cache)
    for tie_mode in (TIE_OPTIMISTIC, TIE_PESSIMISTIC):
        report = evaluate(list(g.triples), store, g, g.triple_ids, tie_mode=tie_mode)
        assert (report.mr, report.queries) == (1.0, 4)
    assert answer(0, 1, 3, store, g) == [(0, 0.0)]


def test_filter_counts_a_repeated_triple_once():
    """Three tied tails, one of them known twice: the known rival leaves the
    pessimistic count once, not twice."""
    g = Snapshot.from_name_triples([("a", "r", "b"), ("a", "r", "c"), ("c", "r", "d")])
    store = joint_store(g, np.zeros((4, 2)), np.zeros((1, 2)))
    t = g.resolve(("a", "r", "b"))
    c = g.resolve(("a", "r", "c"))
    for known in ([t, c, c], [t, c]):
        res = rank_entity((TAIL, t), store, g, known, tie_mode=TIE_PESSIMISTIC)
        assert res.rank == 3   # b ties a and d; c is filtered


def test_eval_reads_the_sorted_codes_not_the_tuple_views(tmp_path, capsys, monkeypatch):
    """``dkge eval`` filters through the snapshot's cached codes in both
    filter modes and builds no tuple view of the snapshot."""
    triples = random_name_triples(np.random.default_rng(3), 40, 9, 2)
    write_snapshot_dir(tmp_path / "s", triples, test=triples[:5] + [("e0", "r0", "nobody")])
    assert dkge.cli.main(["train", str(tmp_path / "s"), str(tmp_path / "m.pkl"),
                          "--d", "4", "--max-epochs", "1"]) == 0
    loaded = []
    load = dkge.cli.load_snapshot_dir

    def recording_load(path):
        loaded.append(load(path))
        return loaded[-1]

    monkeypatch.setattr(dkge.cli, "load_snapshot_dir", recording_load)
    for mode in ("train", "all"):
        capsys.readouterr()
        assert dkge.cli.main(["eval", str(tmp_path / "s"), str(tmp_path / "m.pkl"),
                              "--filter-mode", mode]) == 0
        assert "queries=10 skipped=1" in capsys.readouterr().out
    assert len(loaded) == 2
    for sd in loaded:
        assert not {"triples", "triple_set"} & set(vars(sd.train))
        assert "sorted_codes" in vars(sd.train)

# -- ids outside the dictionaries ------------------------------------------------


def three_entity_graph():
    g = Snapshot.from_name_triples([("a", "r", "b"), ("b", "s", "c")])
    return g, joint_store(g, np.eye(3), np.zeros((2, 3)))


def bad_triple(position, too_big, g):
    """The triple (0, 0, 0) with one id out of range: -1, or the size of its
    dictionary."""
    ids = [0, 0, 0]
    ids[position] = (g.num_relations if position == 1 else g.num_entities) if too_big else -1
    return Triple(*ids), ids[position], "relation" if position == 1 else "entity"


@pytest.mark.parametrize("too_big", [False, True], ids=["negative", "past_the_end"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["head", "relation", "tail"])
def test_out_of_range_ids_raise(position, too_big):
    g, store = three_entity_graph()
    triple, bad, kind = bad_triple(position, too_big, g)
    calls = [
        lambda: evaluate([triple], store, g, g.triple_ids),
        lambda: evaluate(list(g.triples), store, g, list(g.triples) + [triple]),
        lambda: rank_entity((HEAD, triple), store, g),
        lambda: rank_entity((TAIL, triple), store, g),
        lambda: rank_entity((TAIL, g.triples[0]), store, g, [triple]),
    ]
    if position < 2:
        calls.append(lambda: answer(triple.head, triple.relation, 3, store, g))
    for call in calls:
        with pytest.raises(UnknownObjectError) as err:
            call()
        assert (err.value.kind, err.value.key) == (kind, bad)
        assert repr(bad) in str(err.value)
