"""Triple snapshots: loading, dictionaries, indexes, and diffs.

A snapshot is an immutable set of (head, relation, tail) triples, stored as
an int64 id array, with the per-run dictionaries mapping string names to
integer ids.  Ids are assigned in first-occurrence order while scanning the
triple list, so the same file always loads to the same ids.  Snapshots from
different files get independent id spaces; diffing matches objects by name.
"""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EmptySnapshotError, ParseError, UnknownObjectError

logger = logging.getLogger(__name__)

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


# A triple expressed with string names instead of snapshot-local ids.
NameTriple = tuple[str, str, str]


class Links(NamedTuple):
    """Undirected entity links of a snapshot in CSR form.

    ``nbrs[ptr[e]:ptr[e + 1]]`` are the entities that some triple links to e
    in either direction, e itself excluded, in name order; ``loop[e]`` is set
    when a triple links e to itself; ``keys`` holds the sorted codes
    ``e * n_e + name_rank[v]`` of the same links, for membership lookups.
    """

    ptr: np.ndarray    # (n_e + 1,)
    nbrs: np.ndarray   # (L,)
    loop: np.ndarray   # (n_e,) bool
    keys: np.ndarray   # (L,) int64, ascending


class Pairs(NamedTuple):
    """Distinct ordered entity pairs (head, tail) that some triple links.

    ``keys`` holds the sorted codes ``head * n_e + name_rank[tail]``, so the
    pairs leaving head h are ``keys[out[h]:out[h + 1]]``, in tail name order,
    and pair k links ``tails[k]``; ``rels[ptr[k]:ptr[k + 1]]`` are the
    relations linking pair k, ascending; ``of_relation[rptr[r]:rptr[r + 1]]``
    are the pairs relation r links, in file order.
    """

    keys: np.ndarray         # (P,) int64, ascending
    tails: np.ndarray        # (P,)
    out: np.ndarray          # (n_e + 1,)
    ptr: np.ndarray          # (P + 1,)
    rels: np.ndarray         # (n,)
    rptr: np.ndarray         # (n_r + 1,)
    of_relation: np.ndarray  # (n,)


def _name_rank(names: tuple[str, ...]) -> np.ndarray:
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    return rank


def triple_codes(ids: np.ndarray, n_e: int, n_r: int) -> np.ndarray:
    """One int64 code per id triple, ordered as the (h, r, t) tuples are."""
    return (ids[:, 0] * n_r + ids[:, 1]) * n_e + ids[:, 2]


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One time step of the knowledge graph.

    ``triple_ids``, the only storage of the triples, is a read-only (n, 3)
    int64 array of (head, relation, tail) ids in file order (duplicates
    removed, first occurrence wins), so serialization round-trips reproduce
    the exact id assignment.  ``triples``, ``triple_set``, ``name_triples()``
    and the dict indexes are views built on first use.  Snapshots compare
    by identity.
    """

    time_step: int
    triple_ids: np.ndarray
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    duplicates_collapsed: int = 0

    def __post_init__(self):
        n_e, n_r = len(self.entity_names), len(self.relation_names)
        if len(set(self.entity_names)) != n_e or len(set(self.relation_names)) != n_r:
            raise ValueError("duplicate names in dictionary")
        ids = self.triple_ids
        if not (isinstance(ids, np.ndarray) and ids.dtype == np.int64
                and ids.ndim == 2 and ids.shape[1] == 3):
            raise ValueError("triple_ids must be an (n, 3) int64 array")
        h, r, t = ids.T
        bad = np.flatnonzero((ids < 0).any(axis=1) | (h >= n_e) | (t >= n_e) | (r >= n_r))
        if bad.size:
            raise ValueError(f"triple {ids[bad[0]].tolist()} outside dictionary range")
        if np.unique(triple_codes(ids, n_e, n_r)).size != len(ids):
            raise ValueError("duplicate triples in snapshot")
        if (np.count_nonzero(np.bincount(ids[:, [0, 2]].ravel(), minlength=n_e)) != n_e
                or np.count_nonzero(np.bincount(r, minlength=n_r)) != n_r):
            raise ValueError("dictionary entry not used by any triple")
        ids.flags.writeable = False

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_name_triples(name_triples: Iterable[NameTriple], time_step: int = 0,
                          duplicates_collapsed: int = 0) -> "Snapshot":
        entity_ids: dict[str, int] = {}
        relation_ids: dict[str, int] = {}
        flat: list[int] = []
        for h, r, t in name_triples:
            flat += (entity_ids.setdefault(h, len(entity_ids)),
                     relation_ids.setdefault(r, len(relation_ids)),
                     entity_ids.setdefault(t, len(entity_ids)))
        if not flat:
            raise EmptySnapshotError("snapshot has no triples")
        ids = np.array(flat, dtype=np.int64).reshape(-1, 3)
        # a duplicate's names occurred before it, so dropping it keeps the ids
        _, first = np.unique(triple_codes(ids, len(entity_ids), len(relation_ids)),
                             return_index=True)
        return Snapshot(
            time_step=time_step,
            triple_ids=ids[np.sort(first)],
            entity_names=tuple(entity_ids),
            relation_names=tuple(relation_ids),
            duplicates_collapsed=duplicates_collapsed + len(ids) - first.size,
        )

    # -- dictionaries ------------------------------------------------------

    @cached_property
    def entity_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.entity_names)}

    @cached_property
    def relation_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.relation_names)}

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> int:
        try:
            return self.entity_ids[name]
        except KeyError:
            raise UnknownObjectError("entity", name) from None

    def relation_id(self, name: str) -> int:
        try:
            return self.relation_ids[name]
        except KeyError:
            raise UnknownObjectError("relation", name) from None

    def _check_entity(self, e: int):
        if not 0 <= e < self.num_entities:
            raise UnknownObjectError("entity", e)

    def _check_relation(self, r: int):
        if not 0 <= r < self.num_relations:
            raise UnknownObjectError("relation", r)

    # -- indexes -----------------------------------------------------------

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        return tuple(map(Triple._make, self.triple_ids.tolist()))

    @cached_property
    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self.triples)

    @cached_property
    def sorted_codes(self) -> np.ndarray:
        """The ``triple_codes`` of the id triples, ascending and read-only."""
        codes = np.sort(triple_codes(self.triple_ids, self.num_entities,
                                     self.num_relations))
        codes.flags.writeable = False
        return codes

    @cached_property
    def digest(self) -> str:
        """blake2b of the sorted int64 codes of the id triples.

        Two snapshots with equal dictionaries have equal digests exactly
        when their triple sets are equal (up to hash collisions).
        """
        return hashlib.blake2b(self.sorted_codes.tobytes(), digest_size=16).hexdigest()

    @cached_property
    def name_rank(self) -> np.ndarray:
        """(n_e,) position of each entity's name in sorted name order."""
        return _name_rank(self.entity_names)

    @cached_property
    def links(self) -> Links:
        """The undirected links between entities as CSR arrays (``Links``)."""
        n = self.num_entities
        h, t = self.triple_ids[:, 0], self.triple_ids[:, 2]
        loop = np.zeros(n, dtype=bool)
        loop[h[h == t]] = True
        u = np.concatenate((h, t))
        v = np.concatenate((t, h))
        off = u != v
        rank = self.name_rank
        keys = np.sort(u[off] * n + rank[v[off]])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        by_rank = np.argsort(rank)
        ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n, minlength=n), out=ptr[1:])
        return Links(ptr=ptr, nbrs=by_rank[keys % n], loop=loop, keys=keys)

    @cached_property
    def relation_rank(self) -> np.ndarray:
        """(n_r,) position of each relation's name in sorted name order."""
        return _name_rank(self.relation_names)

    @cached_property
    def pairs(self) -> Pairs:
        """The ordered entity pairs with their relations as CSR arrays (``Pairs``)."""
        n = self.num_entities
        h, r, t = self.triple_ids.T
        codes = h * n + self.name_rank[t]
        order = np.lexsort((r, codes))
        new = np.diff(codes[order], prepend=-1) != 0
        first = np.flatnonzero(new)
        keys = codes[order[first]]
        pair = np.empty(codes.size, dtype=np.intp)
        pair[order] = np.cumsum(new) - 1
        out = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n, minlength=n), out=out[1:])
        rptr = np.zeros(self.num_relations + 1, dtype=np.intp)
        np.cumsum(np.bincount(r, minlength=self.num_relations), out=rptr[1:])
        return Pairs(keys=keys, tails=t[order[first]], out=out,
                     ptr=np.append(first, codes.size), rels=r[order], rptr=rptr,
                     of_relation=pair[np.argsort(r, kind="stable")])

    @cached_property
    def neighbor_map(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {e: set() for e in range(self.num_entities)}
        for h, _, t in self.triple_ids.tolist():
            if h != t:
                nbrs[h].add(t)
                nbrs[t].add(h)
        return {e: frozenset(s) for e, s in nbrs.items()}

    @cached_property
    def out_map(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """head id -> ordered (relation, tail) pairs."""
        out: dict[int, list[tuple[int, int]]] = {e: [] for e in range(self.num_entities)}
        for h, r, t in self.triple_ids.tolist():
            out[h].append((r, t))
        return {e: tuple(v) for e, v in out.items()}

    @cached_property
    def pair_map(self) -> dict[tuple[int, int], frozenset[int]]:
        """(head, tail) -> relation ids linking that ordered pair."""
        pairs: dict[tuple[int, int], set[int]] = {}
        for h, r, t in self.triple_ids.tolist():
            pairs.setdefault((h, t), set()).add(r)
        return {p: frozenset(s) for p, s in pairs.items()}

    @cached_property
    def relation_pairs(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """relation id -> ordered distinct (head, tail) pairs it links."""
        by_rel: dict[int, list[tuple[int, int]]] = {r: [] for r in range(self.num_relations)}
        for h, r, t in self.triple_ids.tolist():
            by_rel[r].append((h, t))
        return {r: tuple(v) for r, v in by_rel.items()}

    # -- queries -----------------------------------------------------------

    def neighbors(self, e: int) -> frozenset[int]:
        self._check_entity(e)
        return self.neighbor_map[e]

    def has_triple(self, triple: Triple) -> bool:
        h, r, t = triple
        n_e, n_r = self.num_entities, self.num_relations
        if not (0 <= h < n_e and 0 <= r < n_r and 0 <= t < n_e):
            return False
        code = (h * n_r + r) * n_e + t
        i = self.sorted_codes.searchsorted(code)
        return bool(i < self.sorted_codes.size and self.sorted_codes[i] == code)

    def id_rows(self, triples: Iterable[Triple] | np.ndarray) -> np.ndarray:
        """Id triples as an (n, 3) int64 array; an id outside the
        dictionaries raises UnknownObjectError naming its kind and value."""
        rows = np.asarray(triples if isinstance(triples, np.ndarray) else list(triples),
                          dtype=np.int64).reshape(-1, 3)
        bad = np.argwhere((rows < 0) | (rows >= (self.num_entities, self.num_relations,
                                                  self.num_entities)))
        if bad.size:
            i, j = bad[0]
            raise UnknownObjectError(("entity", "relation", "entity")[j], int(rows[i, j]))
        return rows

    def triple_names(self, triple: Triple | np.ndarray) -> NameTriple:
        h, r, t = triple
        return self.entity_names[h], self.relation_names[r], self.entity_names[t]

    def name_triples(self) -> tuple[NameTriple, ...]:
        e, r = self.entity_names, self.relation_names
        return tuple((e[h], r[rel], e[t]) for h, rel, t in self.triple_ids.tolist())

    def resolve(self, name_triple: NameTriple) -> Triple:
        h, r, t = name_triple
        return Triple(self.entity_id(h), self.relation_id(r), self.entity_id(t))


class IdMap(NamedTuple):
    """The ids one kind of object has in two snapshots, matched by name:
    ``to_new[i]`` is the new id of old object i and ``to_old[j]`` the old id
    of new object j, -1 for a removed or emerging object."""

    to_new: np.ndarray  # (n_old,)
    to_old: np.ndarray  # (n_new,)


@dataclass(frozen=True, eq=False)
class SnapshotDiff:
    """Set reconciliation between two snapshots, matched by name.

    ``added_triples`` holds the (n, 3) int64 id rows of the new snapshot's
    triples that the old one lacks, ``deleted_triples`` those of the old
    snapshot that the new one lacks, each in its snapshot's file order.
    ``entity_map`` and ``relation_map`` match the two id spaces once, so no
    later step looks an object up by name.  The emerging (new ids) and
    removed (old ids) objects are ascending id arrays read from them.
    """

    added_triples: np.ndarray
    deleted_triples: np.ndarray
    entity_map: IdMap
    relation_map: IdMap

    emerging_entities = property(lambda self: np.flatnonzero(self.entity_map.to_old < 0))
    emerging_relations = property(lambda self: np.flatnonzero(self.relation_map.to_old < 0))
    removed_entities = property(lambda self: np.flatnonzero(self.entity_map.to_new < 0))
    removed_relations = property(lambda self: np.flatnonzero(self.relation_map.to_new < 0))
    is_empty = property(lambda self: not (len(self.added_triples) or len(self.deleted_triples)))


def undecodable_line(path) -> int:
    """Number of the first line that is not UTF-8, 0 if none; lines end as
    in text mode, and no UTF-8 sequence holds a \\n or \\r byte."""
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return 0


def parse_triple_file(path) -> tuple[list[NameTriple], int]:
    """Read a tab-separated triple file; lines end in \\n, \\r\\n or \\r.

    Returns (name triples in file order with duplicates removed, number of
    duplicates collapsed).  Blank lines and lines starting with '#' are
    ignored.  Any other line must have exactly three non-empty fields.
    """
    path = Path(path)
    out: list[NameTriple] = []
    seen: set[NameTriple] = set()
    dups = 0
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                text = raw.lstrip()
                if not text or text[0] == "#":
                    continue
                fields = raw.rstrip("\n").split("\t")
                if len(fields) != 3 or not all(fields):
                    raise ParseError(path, line_no,
                                     f"expected 3 tab-separated fields, got {len(fields)}")
                nt: NameTriple = (fields[0], fields[1], fields[2])
                if nt in seen:
                    dups += 1
                    continue
                seen.add(nt)
                out.append(nt)
    except UnicodeDecodeError as exc:
        raise ParseError(path, undecodable_line(path), f"not UTF-8: {exc.reason}") from None
    if dups:
        logger.warning("%s: collapsed %d duplicate triples", path, dups)
    return out, dups


def load_snapshot(path, time_step: int = 0) -> Snapshot:
    """Load one triple file as a Snapshot."""
    name_triples, dups = parse_triple_file(path)
    if not name_triples:
        raise EmptySnapshotError(f"{path} contains no triples")
    return Snapshot.from_name_triples(name_triples, time_step=time_step,
                                      duplicates_collapsed=dups)


def save_snapshot(snapshot: Snapshot, path) -> None:
    """Write the snapshot's triples in id-assignment order.

    Reloading the written file reproduces the snapshot exactly, including
    its dictionaries.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for nt in snapshot.name_triples():
            fh.write("\t".join(nt) + "\n")


@dataclass(frozen=True)
class SnapshotDir:
    """A snapshot directory: required train.txt plus optional valid/test."""

    train: Snapshot
    valid: tuple[NameTriple, ...] | None
    test: tuple[NameTriple, ...] | None


def load_snapshot_dir(dirpath, time_step: int = 0) -> SnapshotDir:
    dirpath = Path(dirpath)
    train_path = dirpath / TRAIN_FILE
    if not train_path.is_file():
        raise ParseError(train_path, 0, "required training file is missing")
    train = load_snapshot(train_path, time_step=time_step)
    valid = test = None
    if (dirpath / VALID_FILE).is_file():
        valid = tuple(parse_triple_file(dirpath / VALID_FILE)[0])
    if (dirpath / TEST_FILE).is_file():
        test = tuple(parse_triple_file(dirpath / TEST_FILE)[0])
    return SnapshotDir(train=train, valid=valid, test=test)


def _id_map(old_names: tuple[str, ...], new_ids: dict[str, int], n_new: int) -> IdMap:
    to_new = np.array([new_ids.get(n, -1) for n in old_names], dtype=np.intp)
    to_old = np.full(n_new, -1, dtype=np.intp)
    to_old[to_new[to_new >= 0]] = np.flatnonzero(to_new >= 0)
    return IdMap(to_new, to_old)


def diff_snapshots(g_old: Snapshot, g_new: Snapshot) -> SnapshotDiff:
    """Name-matched diff: added/deleted triples and emerging/removed objects.

    Deleting the deleted set from the old snapshot and adding the added set
    yields exactly the new snapshot's triples (at name level).
    """
    n_e, n_r = g_new.num_entities, g_new.num_relations
    ent = _id_map(g_old.entity_names, g_new.entity_ids, n_e)
    rel = _id_map(g_old.relation_names, g_new.relation_ids, n_r)
    old = g_old.triple_ids
    moved = np.stack((ent.to_new[old[:, 0]], rel.to_new[old[:, 1]], ent.to_new[old[:, 2]]), 1)
    # code -1 for a triple naming a removed object: it matches no triple of g_new
    old_codes = np.where((moved >= 0).all(axis=1), triple_codes(moved, n_e, n_r), -1)
    new_codes = triple_codes(g_new.triple_ids, n_e, n_r)
    return SnapshotDiff(g_new.triple_ids[~np.isin(new_codes, old_codes)],
                        old[~np.isin(old_codes, new_codes)], ent, rel)
