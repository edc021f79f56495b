"""Triple snapshots: loading, dictionaries, indexes, and diffs.

A snapshot is an immutable set of (head, relation, tail) triples, stored as
an int64 id array, with the per-run dictionaries mapping string names to
integer ids.  Ids are assigned in first-occurrence order while scanning the
triple list, so the same file always loads to the same ids.  Snapshots from
different files get independent id spaces; diffing matches objects by name.

A loaded snapshot keeps the digest of its file's bytes.  ``load_snapshot``
and ``load_snapshot_dir`` may be handed a snapshot rebuilt elsewhere (a
checkpoint stores the one it was trained on); when the file's bytes have
its digest they return it without parsing the file, and any other file is
parsed in full.
"""
from __future__ import annotations

import hashlib
import io
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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
    A lookup of the links (e, v) of one e in ascending name order of v is an
    ascending run of needles inside e's segment of ``keys``: the bulk
    builders order their needles so, which keeps ``lookup``'s binary search
    from missing the branch predictor on every step.
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

    ``into_keys`` is the transposed index: the sorted codes
    ``tail * n_e + name_rank[head]``, pair ``into_pair[k]`` having code
    ``into_keys[k]``.  The pairs (c, b) entering one b, looked up in
    ascending name order of c, are then an ascending run of needles inside
    b's segment, as in ``Links``; looked up in ``keys``, the same needles
    would jump across the whole array.
    """

    keys: np.ndarray         # (P,) int64, ascending
    tails: np.ndarray        # (P,)
    out: np.ndarray          # (n_e + 1,)
    ptr: np.ndarray          # (P + 1,)
    rels: np.ndarray         # (n,)
    rptr: np.ndarray         # (n_r + 1,)
    of_relation: np.ndarray  # (n,)
    into_keys: np.ndarray    # (P,) int64, ascending
    into_pair: np.ndarray    # (P,)


def _rank_of(order: list[int]) -> np.ndarray:
    """The inverse permutation of ``order``: each id's position in it."""
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


def _name_rank(names: tuple[str, ...]) -> np.ndarray:
    return _rank_of(sorted(range(len(names)), key=names.__getitem__))


def _carried_rank(old_names: tuple[str, ...], new_rank: np.ndarray,
                  id_map: IdMap) -> np.ndarray:
    """``_name_rank(old_names)`` from the new snapshot's ranks: the
    survivors, listed in new name order, are one sorted run, which
    ``list.sort`` (timsort) merges with the removed ids appended to it.
    Names are unique, so the order, and the rank, is the plain sort's."""
    by_rank = np.empty_like(new_rank)
    by_rank[new_rank] = np.arange(new_rank.size)
    survivors = id_map.to_old[by_rank]
    order = np.concatenate((survivors[survivors >= 0],
                            np.flatnonzero(id_map.to_new < 0))).tolist()
    order.sort(key=old_names.__getitem__)
    return _rank_of(order)


def triple_codes(ids: np.ndarray, n_e: int, n_r: int) -> np.ndarray:
    """One int64 code per id triple, ordered as the (h, r, t) tuples are:
    a mixed-radix number below n_e * n_e * n_r."""
    return (ids[:, 0] * n_r + ids[:, 1]) * n_e + ids[:, 2]


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of the int array ``values``, flattened:
    what ``np.unique(values)`` gives, by one sort and a neighbour mask.
    numpy >= 2.3 answers a flag-less ``np.unique`` on ints with a hash table
    and then sorts its result, 15-20x slower on the codes built here."""
    values = np.sort(values, axis=None)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def lookup(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Position in ``keys``, sorted distinct ints, of each needle, or -1
    where it is absent.

    When the keys span at most 6 entries per key and needle, the rule
    ``np.isin`` applies before it builds a table, positions are read off a
    dense table over that span; otherwise each needle is binary-searched.
    """
    needles = np.asarray(needles)
    if not keys.size:
        return np.full(needles.shape, -1, dtype=np.intp)
    low, span = int(keys[0]), int(keys[-1]) - int(keys[0])
    if span <= 6 * (needles.size + keys.size):
        # the slot past the span holds -1 and answers every needle outside
        # it: those below are clipped to index -1, which is that slot
        table = np.full(span + 2, -1, dtype=np.intp)
        table[keys - low] = np.arange(keys.size)
        return table[np.clip(needles - low, -1, span + 1)]
    at = np.minimum(np.searchsorted(keys, needles), keys.size - 1)
    return np.where(keys[at] == needles, at, -1)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One time step of the knowledge graph.

    ``triple_ids``, the only storage of the triples, is a read-only (n, 3)
    int64 array of (head, relation, tail) ids in file order (duplicates
    removed, first occurrence wins), so serialization round-trips reproduce
    the exact id assignment.  ``triples``, ``triple_set``, ``name_triples()``
    and the dict indexes are views built on first use.  Snapshots compare
    by identity.  ``file_digest`` is the blake2b digest of the bytes of the
    file the snapshot was loaded from, None for one built in memory.
    """

    triple_ids: np.ndarray
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    duplicates_collapsed: int = 0
    file_digest: str | None = None

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
        codes = self.sorted_codes
        if (codes[1:] == codes[:-1]).any():
            raise ValueError("duplicate triples in snapshot")
        if (np.count_nonzero(np.bincount(ids[:, [0, 2]].ravel(), minlength=n_e)) != n_e
                or np.count_nonzero(np.bincount(r, minlength=n_r)) != n_r):
            raise ValueError("dictionary entry not used by any triple")
        ids.flags.writeable = False

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_name_triples(name_triples: Iterable[NameTriple]) -> "Snapshot":
        columns = tuple(zip(*name_triples))
        if not columns:
            raise EmptySnapshotError("snapshot has no triples")
        return _interned(*columns)

    # -- dictionaries ------------------------------------------------------

    @cached_property
    def entity_ids(self) -> dict[str, int]:
        """name -> id; a snapshot the loader interned keeps its dict here,
        as it does for ``relation_ids``."""
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
        """(n_e,) position of each entity's name in sorted name order; an
        old snapshot of a diff may have it carried over (``carry_name_ranks``)."""
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
        n, n_r = self.num_entities, self.num_relations
        h, r, t = self.triple_ids.T
        codes = h * n + self.name_rank[t]
        # one distinct mixed-radix key per triple, below n_e * n_e * n_r
        # like triple_codes, so its one sorted order is (code, r)'s
        order = np.argsort(codes * n_r + r)
        new = np.diff(codes[order], prepend=-1) != 0
        first = np.flatnonzero(new)
        keys = codes[order[first]]
        pair = np.empty(codes.size, dtype=np.intp)
        pair[order] = np.cumsum(new) - 1
        out = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n, minlength=n), out=out[1:])
        rptr = np.zeros(n_r + 1, dtype=np.intp)
        np.cumsum(np.bincount(r, minlength=n_r), out=rptr[1:])
        tails = t[order[first]]
        into = tails * n + self.name_rank[keys // n]
        into_pair = np.argsort(into)
        # file order within each relation: distinct mixed-radix keys, like
        # triple_codes, below n_r * m for m triples (and n_r <= m)
        by_relation = np.argsort(r * r.size + np.arange(r.size))
        return Pairs(keys=keys, tails=tails, out=out,
                     ptr=np.append(first, codes.size), rels=r[order], rptr=rptr,
                     of_relation=pair[by_relation],
                     into_keys=into[into_pair], into_pair=into_pair)

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


def _interned(heads: Sequence[str], relations: Sequence[str], tails: Sequence[str],
              file_digest: str | None = None) -> Snapshot:
    """The Snapshot of name columns in file order: ids in first-occurrence
    order, heads and tails interleaved, each triple's first row kept and
    the later ones counted in ``duplicates_collapsed``."""
    n = len(heads)
    ends = [""] * (2 * n)
    ends[0::2] = heads
    ends[1::2] = tails
    entity_names = tuple(dict.fromkeys(ends))
    relation_names = tuple(dict.fromkeys(relations))
    entity_ids = dict(zip(entity_names, range(len(entity_names))))
    relation_ids = dict(zip(relation_names, range(len(relation_names))))
    ids = np.empty((n, 3), dtype=np.int64)
    ids[:, 0::2] = np.fromiter(map(entity_ids.__getitem__, ends), np.int64, 2 * n).reshape(n, 2)
    ids[:, 1] = np.fromiter(map(relation_ids.__getitem__, relations), np.int64, n)
    # a duplicate's names occurred before it, so dropping it keeps the ids;
    # a triple's first row is the least row of its run of equal codes
    codes = triple_codes(ids, len(entity_names), len(relation_names))
    order = np.argsort(codes)
    first = np.sort(np.minimum.reduceat(
        order, np.flatnonzero(np.diff(codes[order], prepend=-1))))
    snapshot = Snapshot(triple_ids=ids[first],
                        entity_names=entity_names, relation_names=relation_names,
                        duplicates_collapsed=n - first.size, file_digest=file_digest)
    # the interning dicts are the ones ``entity_ids`` and ``relation_ids`` build
    vars(snapshot).update(entity_ids=entity_ids, relation_ids=relation_ids)
    return snapshot


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


def _first_undecodable(lines: list[bytes]) -> int:
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return 0


def undecodable_line(path) -> int:
    """Number of the first line that is not UTF-8, 0 if none; lines end as
    in text mode, and no UTF-8 sequence holds a \\n or \\r byte."""
    return _first_undecodable(Path(path).read_bytes().splitlines())


def _parse_lines(path: Path, lines: Iterable[str]) -> list[NameTriple]:
    """The name triples of text lines numbered from 1, in order with
    duplicates kept."""
    out: list[NameTriple] = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.lstrip()
        if not text or text[0] == "#":
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) != 3 or not all(fields):
            raise ParseError(path, line_no,
                             f"expected 3 tab-separated fields, got {len(fields)}")
        out.append((fields[0], fields[1], fields[2]))
    return out


# every byte value but tab and newline, for bytes.translate to delete
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b"\t\n")))

_Columns = tuple[list[str], list[str], list[str]]


def _split_regular(text: str) -> _Columns | None:
    """The head, relation and tail columns of a regular file's text, in
    file order with duplicates kept; None for any other text.

    Text is regular when it holds no \\r and no '#' and every line has
    exactly two tabs, no empty field and a first field that is not all
    whitespace; the final \\n may be missing.  The line reader gives such
    text the same triples, and reads every other text.
    """
    body = text.removesuffix("\n")
    if "\r" in body or "#" in body:
        return None
    separators = body.encode("utf-8").translate(None, _NOT_SEPARATORS) + b"\n"
    if separators != b"\t\t\n" * separators.count(b"\n"):
        return None
    fields = body.replace("\n", "\t").split("\t")
    heads = fields[0::3]
    # a line of whitespace alone is blank to the line reader
    if "" in fields or any(map(str.isspace, heads)):
        return None
    return heads, fields[1::3], fields[2::3]


def _read_columns(path: Path, data: bytes) -> _Columns:
    """The columns of the bytes ``data`` of the triple file ``path``, in
    file order with duplicates kept.

    A regular file is split whole.  Any other goes through the line reader,
    which alone raises ParseError for a malformed line.  The first bad line
    in file order is the one reported, whether it is malformed or not UTF-8.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a malformed line before the undecodable one is the first bad line
        lines = data.splitlines()
        bad = _first_undecodable(lines)
        _parse_lines(path, (line.decode("utf-8") for line in lines[:bad - 1]))
        raise ParseError(path, bad, f"not UTF-8: {exc.reason}") from None
    columns = _split_regular(text)
    if columns is not None:
        return columns
    # text mode's line ends: \n, \r\n and \r
    triples = _parse_lines(path, io.StringIO(text, newline=None))
    return tuple(map(list, zip(*triples))) or ([], [], [])


def _warn_duplicates(path: Path, dups: int) -> None:
    if dups:
        logger.warning("%s: collapsed %d duplicate triples", path, dups)


def parse_triple_file(path) -> tuple[list[NameTriple], int]:
    """Read a tab-separated triple file; lines end in \\n, \\r\\n or \\r.

    Returns (name triples in file order with duplicates removed, number of
    duplicates collapsed).  Blank lines and lines starting with '#' are
    ignored.  Any other line must have exactly three non-empty fields.  The
    first bad line in file order is the one reported, whether it is
    malformed or not UTF-8.
    """
    path = Path(path)
    rows = list(zip(*_read_columns(path, path.read_bytes())))
    out = list(dict.fromkeys(rows))
    dups = len(rows) - len(out)
    _warn_duplicates(path, dups)
    return out, dups


def load_snapshot(path, known: Snapshot | None = None) -> Snapshot:
    """Load one triple file as a Snapshot.

    Its dictionaries, ids and duplicate count are those that
    ``Snapshot.from_name_triples`` gives the file's rows, duplicates
    included, and its ``file_digest`` is that of the file's bytes.  When
    ``known`` has that same ``file_digest``, it was loaded from these bytes,
    so it is what parsing them gives and is returned without a parse.
    Either way a file with duplicate rows logs the same warning.
    """
    file = Path(path)
    data = file.read_bytes()
    digest = hashlib.blake2b(data, digest_size=16).hexdigest()
    if known is not None and known.file_digest == digest:
        snapshot = known
    else:
        heads, relations, tails = _read_columns(file, data)
        if not heads:
            raise EmptySnapshotError(f"{path} contains no triples")
        snapshot = _interned(heads, relations, tails, digest)
    _warn_duplicates(file, snapshot.duplicates_collapsed)
    return snapshot


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


def load_snapshot_dir(dirpath, known: Snapshot | None = None) -> SnapshotDir:
    """The directory's files; its train.txt is ``known`` when that snapshot
    was loaded from the same bytes (see ``load_snapshot``)."""
    dirpath = Path(dirpath)
    train_path = dirpath / TRAIN_FILE
    if not train_path.is_file():
        raise ParseError(train_path, 0, "required training file is missing")
    train = load_snapshot(train_path, known)
    valid = test = None
    if (dirpath / VALID_FILE).is_file():
        valid = tuple(parse_triple_file(dirpath / VALID_FILE)[0])
    if (dirpath / TEST_FILE).is_file():
        test = tuple(parse_triple_file(dirpath / TEST_FILE)[0])
    return SnapshotDir(train=train, valid=valid, test=test)


def _id_map(old_names: tuple[str, ...], new_ids: dict[str, int], n_new: int) -> IdMap:
    to_new = np.fromiter(map(new_ids.get, old_names, repeat(-1)), np.intp, len(old_names))
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
    return SnapshotDiff(g_new.triple_ids[_absent(distinct(old_codes), new_codes)],
                        old[_absent(g_new.sorted_codes, old_codes)], ent, rel)


def _absent(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Whether each needle is missing from ``keys``, sorted distinct ints.
    The needles are looked up in ascending order, which keeps ``lookup``'s
    binary search from missing the cache and branch predictor on every step."""
    order = np.argsort(needles)
    absent = np.empty(needles.size, dtype=bool)
    absent[order] = lookup(keys, needles[order]) < 0
    return absent


def carry_name_ranks(g_old: Snapshot, g_new: Snapshot, diff: SnapshotDiff) -> None:
    """Give g_old the ``name_rank`` and ``relation_rank`` it would sort
    itself, carried over from g_new's through ``diff``'s id maps (see
    ``_carried_rank``), unless it has them already."""
    cache = vars(g_old)
    for attr, names, id_map in (("name_rank", g_old.entity_names, diff.entity_map),
                                ("relation_rank", g_old.relation_names, diff.relation_map)):
        if attr not in cache:
            cache[attr] = _carried_rank(names, getattr(g_new, attr), id_map)
