"""Shared graph fixtures and brute-force oracles for the test suite.

The toy trace below pins the worked examples used throughout the tests:
three snapshots of a small graph where one triple arrives at step 1 and an
emerging entity/relation pair arrives at step 2.
"""
from __future__ import annotations

import numpy as np

from dkge.contexts import ContextTable, ENTITY, RELATION, build_context, context_signature
from dkge.kg_store import NameTriple, Snapshot, SnapshotDiff, Triple
from dkge.model import (ParameterStore, encode, init_params, object_forward,
                        score_triple)

TOY_T0: tuple[NameTriple, ...] = (
    ("e1", "r1", "e5"),
    ("e2", "r2", "e5"),
    ("e1", "r5", "e3"),
    ("e3", "r4", "e2"),
    ("e1", "r6", "e6"),
    ("e3", "r1", "e4"),
    ("e4", "r3", "e2"),
)
TOY_T1: tuple[NameTriple, ...] = TOY_T0 + (("e1", "r1", "e2"),)
TOY_T2: tuple[NameTriple, ...] = TOY_T1 + (("e6", "r5", "e3"), ("e7", "r7", "e6"))


def toy_snapshot(step: int) -> Snapshot:
    triples = {0: TOY_T0, 1: TOY_T1, 2: TOY_T2}[step]
    return Snapshot.from_name_triples(triples)


def write_snapshot_dir(path, train, valid=None, test=None) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for fname, triples in (("train.txt", train), ("valid.txt", valid),
                           ("test.txt", test)):
        if triples is None:
            continue
        with open(path / fname, "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")


def random_name_triples(rng: np.random.Generator, n_triples: int,
                        n_entities: int, n_relations: int) -> list[NameTriple]:
    """Distinct random triples over a fixed vocabulary, every id used."""
    seen: set[NameTriple] = set()
    out: list[NameTriple] = []
    limit = n_entities * n_entities * n_relations
    target = min(n_triples, limit)
    while len(out) < target:
        t = (f"e{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}",
             f"e{rng.integers(n_entities)}")
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def random_snapshot(rng: np.random.Generator, n_triples=30, n_entities=12,
                    n_relations=4) -> Snapshot:
    return Snapshot.from_name_triples(
        random_name_triples(rng, n_triples, n_entities, n_relations))


def churned_triples(rng: np.random.Generator, base: list[NameTriple],
                    churn: float = 0.1) -> list[NameTriple]:
    """Randomly delete and add up to ``churn`` of the base triples, sometimes
    introducing fresh entity and relation names."""
    budget = max(1, int(len(base) * churn))
    n_delete = int(rng.integers(0, budget // 2 + 1))
    n_add = max(1, budget - n_delete)
    keep = list(base)
    for _ in range(n_delete):
        if len(keep) > 1:
            keep.pop(int(rng.integers(len(keep))))
    entities = sorted({x for h, _, t in keep for x in (h, t)})
    relations = sorted({r for _, r, _ in keep})
    existing = set(keep)
    added = 0
    attempts = 0
    while added < n_add and attempts < 200:
        attempts += 1
        h = entities[rng.integers(len(entities))]
        r = relations[rng.integers(len(relations))]
        t = entities[rng.integers(len(entities))]
        roll = rng.random()
        if roll < 0.2:
            h = f"x{rng.integers(1000)}"
        elif roll < 0.3:
            r = f"q{rng.integers(1000)}"
        elif roll < 0.4:
            t = f"x{rng.integers(1000)}"
        if (h, r, t) not in existing:
            existing.add((h, r, t))
            keep.append((h, r, t))
            added += 1
    return keep


def update_traces(count: int = 50):
    """Criterion 4's random update traces, as (trace, g_old, g_new):
    <= 200 triples over 40 entities and 8 relations, <= 10% churn."""
    rng = np.random.default_rng(2024)
    for trace in range(count):
        base = random_name_triples(rng, int(rng.integers(60, 200)), 40, 8)
        g_old = Snapshot.from_name_triples(base)
        g_new = Snapshot.from_name_triples(
            churned_triples(rng, base, churn=0.1))
        yield trace, g_old, g_new


def tiny_store(snapshot: Snapshot, d=6, seed=0, **kwargs) -> tuple[ParameterStore, ContextTable]:
    store = init_params(snapshot, d, np.random.default_rng(seed), seed=seed, **kwargs)
    return store, store.context_table(snapshot)


def signatures_by_name(g: Snapshot) -> dict[tuple[str, str], int]:
    """``context_signature`` of every object of ``g``, keyed by (kind, name),
    by the one-object definitions."""
    return {(kind, name): context_signature(build_context(g, (kind, obj)), g)
            for kind, names in ((ENTITY, g.entity_names), (RELATION, g.relation_names))
            for obj, name in enumerate(names)}


def reference_changes(g_old: Snapshot, g_new: Snapshot, diff: SnapshotDiff,
                      candidates) -> tuple[np.ndarray, np.ndarray]:
    """The entity and relation ``candidates`` (ids of g_new) that survived
    and whose ``context_signature`` differs between the snapshots, one
    object at a time: what ``context_changes`` must find."""
    def signature(g, kind, obj):
        return context_signature(build_context(g, (kind, obj)), g)

    out = []
    for kind, ids, id_map in zip((ENTITY, RELATION), candidates,
                                 (diff.entity_map, diff.relation_map)):
        out.append(np.array([new for new in ids.tolist() if (old := id_map.to_old[new]) >= 0
                             and signature(g_old, kind, old) != signature(g_new, kind, new)],
                            dtype=np.intp))
    return tuple(out)


def split_refs(refs) -> tuple[np.ndarray, np.ndarray]:
    """(kind, id) pairs, as ``changed_context_objects`` gives them, as the
    sorted entity and relation id arrays the run path passes on."""
    return tuple(np.array(sorted(obj for k, obj in refs if k == kind), dtype=np.intp)
                 for kind in (ENTITY, RELATION))


def row_triples(rows: np.ndarray) -> frozenset[Triple]:
    """Id rows as a set of ``Triple``s."""
    return frozenset(map(Triple._make, rows.tolist()))


def retrain_set_by_loop(g_new: Snapshot, diff: SnapshotDiff, changed) -> frozenset[Triple]:
    """The triples of g_new touching an emerging object or one of the
    ``changed`` (kind, id) pairs, by a loop over the triples."""
    flag_e = set(diff.emerging_entities.tolist())
    flag_r = set(diff.emerging_relations.tolist())
    for kind, obj in changed:
        (flag_e if kind == ENTITY else flag_r).add(obj)
    return frozenset(t for t in g_new.triples
                     if t.head in flag_e or t.tail in flag_e or t.relation in flag_r)


def candidate_changed_names(g_old: Snapshot, g_new: Snapshot, diff: SnapshotDiff) -> set[str]:
    """The names of the relations whose context a change may reach, in
    either snapshot, by a loop over the changed triples: the oracle that
    ``contexts.candidate_relations`` equals on g_new.

    The affected relations are those of changed triples plus any relation
    with a pair starting at a changed head or ending at a changed tail.
    """
    changed_names = ([g_new.triple_names(t) for t in diff.added_triples]
                     + [g_old.triple_names(t) for t in diff.deleted_triples])
    ids = g_new.triple_ids
    near = np.zeros(len(ids), dtype=bool)
    for k in (0, 2):   # triples from a changed triple's head, into its tail
        changed_end = np.zeros(g_new.num_entities, dtype=bool)
        changed_end[[g_new.entity_ids[nt[k]] for nt in changed_names
                     if nt[k] in g_new.entity_ids]] = True
        near |= changed_end[ids[:, k]]
    return ({g_new.relation_names[r] for r in np.unique(ids[near, 1]).tolist()}
            | {r for _, r, _ in changed_names})


def assert_tables_fresh(store: ParameterStore, snapshot: Snapshot) -> None:
    """The store's joint tables were encoded on ``snapshot`` and equal a
    fresh encode of each kind in one pass over a new context table."""
    assert store.joint_digest == snapshot.digest
    table = store.context_table(snapshot)
    ent = encode(ENTITY, np.arange(snapshot.num_entities), store, table).star
    rel = encode(RELATION, np.arange(snapshot.num_relations), store, table).star
    assert store.ent_star.tobytes() == ent.tobytes()
    assert store.rel_star.tobytes() == rel.tobytes()


# -- brute-force ranking oracle ----------------------------------------------

def oracle_rank(direction: str, triple: Triple, store: ParameterStore,
                snapshot: Snapshot, filter_triples, table: ContextTable,
                pessimistic=False) -> int:
    """Rank by scoring every candidate with an independent per-triple forward."""
    h, r, t = triple
    scores = []
    for c in range(snapshot.num_entities):
        cand = Triple(c, r, t) if direction == "head" else Triple(h, r, c)
        true_here = c == (h if direction == "head" else t)
        if not true_here and cand in filter_triples:
            scores.append(None)
            continue
        head = object_forward((ENTITY, cand.head), store, table).star
        rel = object_forward((RELATION, cand.relation), store, table).star
        tail = object_forward((ENTITY, cand.tail), store, table).star
        scores.append(score_triple(head, rel, tail))
    true_id = h if direction == "head" else t
    true_score = scores[true_id]
    better = sum(1 for s in scores if s is not None and s < true_score)
    ties = sum(1 for s in scores if s is not None and s == true_score)
    return 1 + better + (ties - 1 if pessimistic else 0)


def oracle_metrics(ranks: list[int], ks=(1, 3, 10)) -> dict:
    n = len(ranks)
    return {
        "mr": sum(ranks) / n,
        "mrr": sum(1.0 / r for r in ranks) / n,
        "hits": {k: sum(1 for r in ranks if r <= k) / n for k in ks},
    }


# -- the ranking before the sorted-code filter, kept as the oracle -------------


def filter_index(filter_triples):
    """(h, r) -> known tails and (r, t) -> known heads, as dicts of sets."""
    by_hr: dict[tuple[int, int], set[int]] = {}
    by_rt: dict[tuple[int, int], set[int]] = {}
    for h, r, t in filter_triples:
        by_hr.setdefault((h, r), set()).add(t)
        by_rt.setdefault((r, t), set()).add(h)
    return by_hr, by_rt


def rank_one(direction: str, triple: Triple, cache, filter_idx, tie_mode: str) -> tuple[int, float]:
    """(rank, true score) of one query, scored over the (n_e, d) table with
    ``np.abs(x).sum(axis=1)`` and filtered through a boolean mask."""
    by_hr, by_rt = filter_idx
    ent = cache.ent_star
    r_star = cache.rel_star[triple.relation]
    if direction == "tail":
        x = (ent[triple.head] + r_star) - ent
        excluded = by_hr.get((triple.head, triple.relation), ())
        true_id = triple.tail
    else:
        x = ent + (r_star - ent[triple.tail])
        excluded = by_rt.get((triple.relation, triple.tail), ())
        true_id = triple.head
    scores = np.abs(x).sum(axis=1)
    mask = np.ones(scores.shape[0], dtype=bool)
    for e in excluded:
        mask[e] = False
    mask[true_id] = True
    true_score = float(scores[true_id])
    considered = scores[mask]
    better = int((considered < true_score).sum())
    if tie_mode == "optimistic":
        return better + 1, true_score
    ties_other = int((considered == true_score).sum()) - 1
    return better + ties_other + 1, true_score


def evaluate_oracle(test: list[Triple], cache, filter_triples, tie_mode: str,
                    ks=(1, 3, 10)):
    """``evaluate`` over id test triples with the oracle ranking."""
    from dkge.evaluation import aggregate_ranks
    idx = filter_index(filter_triples)
    ranks = [rank_one(d, t, cache, idx, tie_mode)[0]
             for t in test for d in ("head", "tail")]
    return aggregate_ranks(ranks, ks)


def answer_oracle(head: int, relation: int, k: int, cache) -> list[tuple[int, float]]:
    """Unfiltered top-k tails from the (n_e, d) table, ties toward the smaller id."""
    ent = cache.ent_star
    scores = np.abs(ent[head] + cache.rel_star[relation] - ent).sum(axis=1)
    order = np.argsort(scores, kind="stable")[:max(0, k)]
    return [(int(e), float(scores[e])) for e in order]
