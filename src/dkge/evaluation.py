"""Link-prediction ranking, aggregate metrics, and top-k answering.

For each test triple both the head and the tail are ranked against every
entity.  Filtered ranking removes candidates that would form a different
known-true triple; the true entity itself is never filtered.  Ranks use the
optimistic rule by default (1 + number of strictly better candidates); the
pessimistic rule also counts ties.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contexts import ContextTable, ENTITY, RELATION
from .kg_store import NameTriple, Snapshot, Triple
from .model import ParameterStore, encode_passes

logger = logging.getLogger(__name__)

HEAD = "head"
TAIL = "tail"
TIE_OPTIMISTIC = "optimistic"
TIE_PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class RankResult:
    direction: str
    triple: Triple
    rank: int
    true_score: float


@dataclass(frozen=True)
class MetricsReport:
    mr: float
    mrr: float
    hits_at: dict[int, float]
    queries: int
    skipped: int

    def format_block(self) -> str:
        parts = [f"mr={self.mr:.4f}", f"mrr={self.mrr:.4f}"]
        for k in sorted(self.hits_at):
            parts.append(f"hits{k}={self.hits_at[k]:.4f}")
        parts.append(f"queries={self.queries}")
        parts.append(f"skipped={self.skipped}")
        return " ".join(parts)


class JointCache:
    """Joint embeddings of all entities plus relations on demand.

    Candidate scoring reuses one (n_e, d) matrix instead of re-encoding each
    candidate.  The matrix is encoded in batched passes; an object's row does
    not depend on its pass, so it equals ``object_forward`` bit for bit and
    ranks match the uncached path exactly.
    """

    def __init__(self, store: ParameterStore, contexts: ContextTable):
        self.store = store
        self.contexts = contexts
        self._entities: np.ndarray | None = None
        self._relations: dict[int, np.ndarray] = {}

    def entities(self) -> np.ndarray:
        if self._entities is None:
            ids = np.arange(self.store.num_entities)
            stars = [enc.star for enc in encode_passes(ENTITY, ids, self.store,
                                                       self.contexts)]
            self._entities = (np.concatenate(stars) if stars
                              else np.zeros((0, self.store.dim)))
        return self._entities

    def relation(self, r: int) -> np.ndarray:
        if r not in self._relations:
            self.add_relations([r])
        return self._relations[r]

    def add_relations(self, ids: Iterable[int]) -> None:
        """Encode the relations among ``ids`` not cached yet, in batched passes."""
        todo = np.array(sorted(set(ids) - self._relations.keys()), dtype=np.intp)
        for enc in encode_passes(RELATION, todo, self.store, self.contexts):
            self._relations.update(zip(enc.ids.tolist(), enc.star))


def _filter_index(filter_triples: frozenset[Triple] | set[Triple]):
    by_hr: dict[tuple[int, int], set[int]] = {}
    by_rt: dict[tuple[int, int], set[int]] = {}
    for h, r, t in filter_triples:
        by_hr.setdefault((h, r), set()).add(t)
        by_rt.setdefault((r, t), set()).add(h)
    return by_hr, by_rt


def _rank_from_scores(scores: np.ndarray, true_id: int, excluded: Iterable[int],
                      tie_mode: str) -> tuple[int, float]:
    mask = np.ones(scores.shape[0], dtype=bool)
    for e in excluded:
        mask[e] = False
    mask[true_id] = True
    true_score = float(scores[true_id])
    considered = scores[mask]
    better = int((considered < true_score).sum())
    if tie_mode == TIE_OPTIMISTIC:
        return better + 1, true_score
    if tie_mode == TIE_PESSIMISTIC:
        ties_other = int((considered == true_score).sum()) - 1
        return better + ties_other + 1, true_score
    raise ValueError(f"unknown tie mode: {tie_mode}")


def rank_entity(query: tuple[str, Triple], store: ParameterStore, snapshot: Snapshot,
                filter_triples: frozenset[Triple] | set[Triple] = frozenset(), *,
                contexts: ContextTable | None = None, cache: JointCache | None = None,
                tie_mode: str = TIE_OPTIMISTIC) -> RankResult:
    """Filtered rank of the true entity for one (direction, triple) query."""
    direction, triple = query
    if cache is None:
        if contexts is None:
            contexts = store.context_table(snapshot)
        cache = JointCache(store, contexts)
    by_hr, by_rt = _filter_index(filter_triples)
    return _rank_one(direction, triple, cache, (by_hr, by_rt), tie_mode)


def _rank_one(direction: str, triple: Triple, cache: JointCache, filter_idx,
              tie_mode: str) -> RankResult:
    by_hr, by_rt = filter_idx
    ent = cache.entities()
    r_star = cache.relation(triple.relation)
    if direction == TAIL:
        base = ent[triple.head] + r_star
        scores = np.abs(base[None, :] - ent).sum(axis=1)
        excluded = by_hr.get((triple.head, triple.relation), ())
        true_id = triple.tail
    elif direction == HEAD:
        base = r_star - ent[triple.tail]
        scores = np.abs(ent + base[None, :]).sum(axis=1)
        excluded = by_rt.get((triple.relation, triple.tail), ())
        true_id = triple.head
    else:
        raise ValueError(f"unknown direction: {direction}")
    rank, true_score = _rank_from_scores(scores, true_id, excluded, tie_mode)
    return RankResult(direction=direction, triple=triple, rank=rank,
                      true_score=true_score)


def resolve_test_triples(test: Iterable[Triple | NameTriple],
                         snapshot: Snapshot) -> tuple[list[Triple], int]:
    """Map test triples onto snapshot ids, skipping unknown objects."""
    resolved: list[Triple] = []
    skipped = 0
    for item in test:
        if isinstance(item[0], str):
            h, r, t = item
            if (h in snapshot.entity_ids and r in snapshot.relation_ids
                    and t in snapshot.entity_ids):
                resolved.append(snapshot.resolve(item))  # type: ignore[arg-type]
            else:
                skipped += 1
        else:
            resolved.append(Triple(*item))
    if skipped:
        logger.warning("skipped %d test triples with unknown objects", skipped)
    return resolved, skipped


def evaluate(test: Sequence[Triple | NameTriple], store: ParameterStore,
             snapshot: Snapshot, filter_triples: frozenset[Triple] | set[Triple], *,
             ks: Sequence[int] = (1, 3, 10), tie_mode: str = TIE_OPTIMISTIC,
             contexts: ContextTable | None = None, threads: int = 1) -> MetricsReport:
    """MR, MRR, and Hits@k over head and tail queries of every test triple."""
    store.require_snapshot(snapshot)
    if contexts is None:
        contexts = store.context_table(snapshot)
    resolved, skipped = resolve_test_triples(test, snapshot)
    cache = JointCache(store, contexts)
    cache.entities()
    cache.add_relations(t.relation for t in resolved)
    filter_idx = _filter_index(filter_triples)
    queries = [(d, t) for t in resolved for d in (HEAD, TAIL)]

    def run(q):
        return _rank_one(q[0], q[1], cache, filter_idx, tie_mode)

    if threads > 1 and len(queries) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, queries))
    else:
        results = [run(q) for q in queries]
    return aggregate_ranks([r.rank for r in results], ks, skipped)


def aggregate_ranks(ranks: Sequence[int], ks: Sequence[int],
                    skipped: int = 0) -> MetricsReport:
    n = len(ranks)
    if n == 0:
        return MetricsReport(mr=float("nan"), mrr=float("nan"),
                             hits_at={k: float("nan") for k in ks},
                             queries=0, skipped=skipped)
    arr = np.asarray(ranks, dtype=np.float64)
    hits = {k: float((arr <= k).mean()) for k in ks}
    return MetricsReport(mr=float(arr.mean()), mrr=float((1.0 / arr).mean()),
                         hits_at=hits, queries=n, skipped=skipped)


def answer(head: int, relation: int, k: int, store: ParameterStore,
           snapshot: Snapshot, *, contexts: ContextTable | None = None,
           cache: JointCache | None = None) -> list[tuple[int, float]]:
    """Unfiltered top-k tail entities for (head, relation, ?), best first.

    Ties break toward the smaller entity id.
    """
    store.require_snapshot(snapshot)
    if cache is None:
        if contexts is None:
            contexts = store.context_table(snapshot)
        cache = JointCache(store, contexts)
    ent = cache.entities()
    base = ent[head] + cache.relation(relation)
    scores = np.abs(base[None, :] - ent).sum(axis=1)
    order = np.argsort(scores, kind="stable")[:max(0, k)]
    return [(int(e), float(scores[e])) for e in order]
