"""Link-prediction ranking, aggregate metrics, and top-k answering.

For each test triple both the head and the tail are ranked against every
entity.  Filtered ranking removes candidates that would form a different
known-true triple; the true entity itself is never filtered.  Ranks use the
optimistic rule by default (1 + number of strictly better candidates); the
pessimistic rule also counts ties.

Scores come from the joint embeddings of every object (``joint_table``).  A
store that ``train`` or ``update`` produced on the snapshot carries them, so
ranking and answering on it build no context and run no encoder; any other
store, or the same store on another snapshot, is encoded in full first.  Each
query scores all candidates into one reused (n_e, d) buffer.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contexts import ContextTable
from .kg_store import NameTriple, Snapshot, Triple
from .model import JointCache, ParameterStore, joint_table

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
                contexts: ContextTable | None = None,
                tie_mode: str = TIE_OPTIMISTIC) -> RankResult:
    """Filtered rank of the true entity for one (direction, triple) query."""
    direction, triple = query
    cache = joint_table(store, snapshot, contexts)
    buf = np.empty_like(cache.ent_star)
    return _rank_one(direction, triple, cache, _filter_index(filter_triples),
                     tie_mode, buf)


def _rank_one(direction: str, triple: Triple, cache: JointCache, filter_idx,
              tie_mode: str, buf: np.ndarray) -> RankResult:
    """Rank one query, scoring every candidate into ``buf``, an (n_e, d)
    scratch array; the scores equal |h* + r* - t*|_1 bit for bit."""
    by_hr, by_rt = filter_idx
    ent = cache.ent_star
    r_star = cache.rel_star[triple.relation]
    if direction == TAIL:
        np.subtract(ent[triple.head] + r_star, ent, out=buf)
        excluded = by_hr.get((triple.head, triple.relation), ())
        true_id = triple.tail
    elif direction == HEAD:
        np.add(ent, r_star - ent[triple.tail], out=buf)
        excluded = by_rt.get((triple.relation, triple.tail), ())
        true_id = triple.head
    else:
        raise ValueError(f"unknown direction: {direction}")
    scores = np.abs(buf, out=buf).sum(axis=1)
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
             contexts: ContextTable | None = None) -> MetricsReport:
    """MR, MRR, and Hits@k over head and tail queries of every test triple."""
    cache = joint_table(store, snapshot, contexts)
    resolved, skipped = resolve_test_triples(test, snapshot)
    filter_idx = _filter_index(filter_triples)
    buf = np.empty_like(cache.ent_star)
    ranks = [_rank_one(d, t, cache, filter_idx, tie_mode, buf).rank
             for t in resolved for d in (HEAD, TAIL)]
    return aggregate_ranks(ranks, ks, skipped)


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
           snapshot: Snapshot, *,
           contexts: ContextTable | None = None) -> list[tuple[int, float]]:
    """Unfiltered top-k tail entities for (head, relation, ?), best first.

    Ties break toward the smaller entity id.
    """
    cache = joint_table(store, snapshot, contexts)
    ent = cache.ent_star
    scores = np.abs(ent[head] + cache.rel_star[relation] - ent).sum(axis=1)
    order = np.argsort(scores, kind="stable")[:max(0, k)]
    return [(int(e), float(scores[e])) for e in order]
