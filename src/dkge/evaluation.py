"""Link-prediction ranking, aggregate metrics, and top-k answering.

For each test triple both the head and the tail are ranked against every
entity.  Filtered ranking removes candidates that would form a different
known-true triple; the true entity itself is never filtered.  Ranks use the
optimistic rule by default (1 + number of strictly better candidates); the
pessimistic rule also counts ties.

Scores come from the joint embeddings of every object (``joint_table``).  A
store that ``train`` or ``update`` produced on the snapshot carries them, so
ranking and answering on it build no context and run no encoder; any other
store, or the same store on another snapshot, is encoded in full first.

A ``_Scorer`` keeps ``ent_star`` transposed, (d, n_e), for a whole call and
scores each query into one reused (d, n_e) buffer: one |h* + r* - t*| term
per dimension and candidate, whose d rows ``sum_rows`` adds in numpy's own
pairwise order, so every score equals ``np.abs(x).sum(axis=1)`` over the
(n_e, d) terms bit for bit.  The filter is two sorted arrays of int64 triple
codes (``_KnownTriples``), in which a query's known heads or tails are one
slice; a rank counts the better candidates and subtracts those in the slice,
so no mask is built.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .contexts import ContextTable
from .errors import ConfigError, IntegrityError
from .kg_store import NameTriple, Snapshot, Triple, distinct, triple_codes
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


def sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum the rows of the (d, n) array ``x`` in place, in the order numpy's
    pairwise summation adds a contiguous row of length d, and return the row
    of ``x`` that holds the n sums.

    Below 8 rows the rows are added one after another; up to 128, eight
    accumulators run over blocks of 8 rows, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the remaining rows
    follow one by one; above 128 the rows split at the largest multiple of 8
    not above d // 2 and each half is summed so.
    """
    d = x.shape[0]
    if d < 8:
        for i in range(1, d):
            x[0] += x[i]
        return x[0]
    if d <= 128:
        blocks = d - d % 8
        for i in range(8, blocks, 8):
            x[:8] += x[i:i + 8]
        x[:8:2] += x[1:8:2]
        x[:8:4] += x[2:8:4]
        x[0] += x[4]
        for i in range(blocks, d):
            x[0] += x[i]
        return x[0]
    half = d // 2 - d // 2 % 8
    total = sum_rows(x[:half])
    total += sum_rows(x[half:])
    return total


class _Scorer:
    """L1 scores of one query against every entity, |h* + r* - t*|_1.

    Returned scores live in the scorer's buffer until its next query.  A
    joint table with a non-finite entry raises IntegrityError: a NaN score
    would rank first, since no candidate compares below it.
    """

    def __init__(self, cache: JointCache):
        if not (np.isfinite(cache.ent_star).all() and np.isfinite(cache.rel_star).all()):
            raise IntegrityError("joint embeddings hold a non-finite entry; "
                                 "no rank or score is computed from them")
        self.ent = cache.ent_star
        self.rel = cache.rel_star
        self.ent_t = np.ascontiguousarray(cache.ent_star.T)   # (d, n_e)
        self.buf = np.empty_like(self.ent_t)

    def tails(self, head: int, relation: int) -> np.ndarray:
        base = self.ent[head] + self.rel[relation]
        np.subtract(base[:, None], self.ent_t, out=self.buf)
        return sum_rows(np.abs(self.buf, out=self.buf))

    def heads(self, relation: int, tail: int) -> np.ndarray:
        shift = self.rel[relation] - self.ent[tail]
        np.add(self.ent_t, shift[:, None], out=self.buf)
        return sum_rows(np.abs(self.buf, out=self.buf))


class _KnownTriples(NamedTuple):
    """The filter's triples as two sorted arrays of distinct int64 codes.

    ``hrt`` holds (h * n_r + r) * n_e + t and ``rth`` holds
    (r * n_e + t) * n_e + h, so the tails known for (h, r) and the heads
    known for (r, t) are each one slice, found by ``searchsorted``.
    """

    hrt: np.ndarray
    rth: np.ndarray
    n_e: int
    n_r: int

    def tails(self, head: int, relation: int) -> np.ndarray:
        return _code_slice(self.hrt, (head * self.n_r + relation) * self.n_e, self.n_e)

    def heads(self, relation: int, tail: int) -> np.ndarray:
        return _code_slice(self.rth, (relation * self.n_e + tail) * self.n_e, self.n_e)


def _code_slice(codes: np.ndarray, start: int, n_e: int) -> np.ndarray:
    lo, hi = codes.searchsorted((start, start + n_e))
    return codes[lo:hi] - start


def _known_triples(known: Collection[Triple] | np.ndarray,
                   snapshot: Snapshot) -> _KnownTriples:
    """Index the filter: id ``Triple``s or (n, 3) id rows, duplicates allowed.
    The snapshot's own ``triple_ids`` reuse its cached ``sorted_codes``."""
    n_e, n_r = snapshot.num_entities, snapshot.num_relations
    if known is snapshot.triple_ids:
        rows, hrt = known, snapshot.sorted_codes
    else:
        rows = snapshot.id_rows(known)
        hrt = distinct(triple_codes(rows, n_e, n_r))
    h, r, t = rows.T
    return _KnownTriples(hrt, distinct((r * n_e + t) * n_e + h), n_e, n_r)


def _rank(direction: str, triple: Triple, scorer: _Scorer, known: _KnownTriples,
          tie_mode: str) -> RankResult:
    """Filtered rank of the true entity: candidates known true, other than
    the true entity itself, are left out."""
    h, r, t = triple
    if direction == TAIL:
        scores, excluded, true_id = scorer.tails(h, r), known.tails(h, r), t
    elif direction == HEAD:
        scores, excluded, true_id = scorer.heads(r, t), known.heads(r, t), h
    else:
        raise ValueError(f"unknown direction: {direction}")
    true_score = scores[true_id]
    rivals = scores[excluded[excluded != true_id]]
    rank = 1 + np.count_nonzero(scores < true_score) - np.count_nonzero(rivals < true_score)
    if tie_mode == TIE_PESSIMISTIC:
        rank += (np.count_nonzero(scores == true_score)
                 - np.count_nonzero(rivals == true_score) - 1)
    elif tie_mode != TIE_OPTIMISTIC:
        raise ValueError(f"unknown tie mode: {tie_mode}")
    return RankResult(direction=direction, triple=triple, rank=int(rank),
                      true_score=float(true_score))


def rank_entity(query: tuple[str, Triple], store: ParameterStore, snapshot: Snapshot,
                filter_triples: Collection[Triple] | np.ndarray = frozenset(), *,
                tie_mode: str = TIE_OPTIMISTIC) -> RankResult:
    """Filtered rank of the true entity for one (direction, triple) query,
    scored on ``joint_table(store, snapshot)``."""
    direction, triple = query
    snapshot.id_rows([triple])
    cache = joint_table(store, snapshot)
    return _rank(direction, triple, _Scorer(cache),
                 _known_triples(filter_triples, snapshot), tie_mode)


def resolve_test_triples(test: Iterable[Triple | NameTriple],
                         snapshot: Snapshot) -> tuple[list[Triple], int]:
    """Map test triples onto snapshot ids, skipping unknown names; an id
    triple with an id outside the dictionaries raises UnknownObjectError.
    Skips are logged as one warning only when some triple is left to score;
    with none left, the caller says so."""
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
    snapshot.id_rows(resolved)
    if skipped and resolved:
        logger.warning("skipped %d test triples with unknown objects", skipped)
    return resolved, skipped


def evaluate(test: Sequence[Triple | NameTriple], store: ParameterStore,
             snapshot: Snapshot, filter_triples: Collection[Triple] | np.ndarray, *,
             ks: Sequence[int] = (1, 3, 10), tie_mode: str = TIE_OPTIMISTIC,
             contexts: ContextTable | None = None,
             joint: JointCache | None = None) -> MetricsReport:
    """MR, MRR, and Hits@k over head and tail queries of every test triple.

    ``filter_triples`` holds the known triples as id ``Triple``s or as (n, 3)
    id rows; duplicates among them count once.  ``joint``, when given, holds
    the store's joint embeddings on ``snapshot``, and nothing is encoded.
    """
    cache = joint_table(store, snapshot, contexts) if joint is None else joint
    resolved, skipped = resolve_test_triples(test, snapshot)
    scorer = _Scorer(cache)
    known = _known_triples(filter_triples, snapshot)
    ranks = [_rank(d, t, scorer, known, tie_mode).rank
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
           snapshot: Snapshot) -> list[tuple[int, float]]:
    """Unfiltered top-k tail entities for (head, relation, ?), best first,
    scored on ``joint_table(store, snapshot)``.

    Ties break toward the smaller entity id.  ``k`` below 1 raises
    ConfigError.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    snapshot._check_entity(head)
    snapshot._check_relation(relation)
    scores = _Scorer(joint_table(store, snapshot)).tails(head, relation)
    order = np.argsort(scores, kind="stable")[:k]
    return [(int(e), float(scores[e])) for e in order]
