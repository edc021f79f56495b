"""Shared graph fixtures and brute-force oracles for the test suite.

The toy trace below pins the worked examples used throughout the tests:
three snapshots of a small graph where one triple arrives at step 1 and an
emerging entity/relation pair arrives at step 2.
"""
from __future__ import annotations

import numpy as np

from dkge.contexts import ContextTable, ENTITY, RELATION
from dkge.kg_store import NameTriple, Snapshot, Triple
from dkge.model import ParameterStore, init_params, object_forward, score_triple

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
    return Snapshot.from_name_triples(triples, time_step=step)


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
                    n_relations=4, time_step=0) -> Snapshot:
    return Snapshot.from_name_triples(
        random_name_triples(rng, n_triples, n_entities, n_relations),
        time_step=time_step)


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


def tiny_store(snapshot: Snapshot, d=6, seed=0, **kwargs) -> tuple[ParameterStore, ContextTable]:
    store = init_params(snapshot, d, np.random.default_rng(seed), seed=seed, **kwargs)
    table = store.context_table(snapshot)
    store.signatures = table.signatures_by_name()
    return store, table


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
