"""Triple snapshots: loading, dictionaries, adjacency lookups, and diffs.

A snapshot is an immutable set of (head, relation, tail) triples together
with the per-run dictionaries mapping string names to integer ids.  Ids are
assigned in first-occurrence order while scanning the triple list, so the
same file always loads to the same ids.  Snapshots from different files get
independent id spaces; diffing always matches objects by name.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
class Snapshot:
    """One time step of the knowledge graph.

    ``triples`` keeps file order (duplicates removed, first occurrence wins)
    so that serialization round-trips reproduce the exact id assignment.
    """

    time_step: int
    triples: tuple[Triple, ...]
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    duplicates_collapsed: int = field(default=0, compare=False)

    def __post_init__(self):
        n_e, n_r = len(self.entity_names), len(self.relation_names)
        if len(set(self.entity_names)) != n_e or len(set(self.relation_names)) != n_r:
            raise ValueError("duplicate names in dictionary")
        seen_e, seen_r = set(), set()
        for t in self.triples:
            if not (0 <= t.head < n_e and 0 <= t.tail < n_e and 0 <= t.relation < n_r):
                raise ValueError(f"triple {t} outside dictionary range")
            seen_e.update((t.head, t.tail))
            seen_r.add(t.relation)
        if len(self.triples) != len(set(self.triples)):
            raise ValueError("duplicate triples in snapshot")
        if seen_e != set(range(n_e)) or seen_r != set(range(n_r)):
            raise ValueError("dictionary entry not used by any triple")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_name_triples(name_triples: Iterable[NameTriple], time_step: int = 0,
                          duplicates_collapsed: int = 0) -> "Snapshot":
        entity_ids: dict[str, int] = {}
        relation_ids: dict[str, int] = {}
        triples: list[Triple] = []
        seen: set[Triple] = set()
        extra_dups = 0
        for h, r, t in name_triples:
            hid = entity_ids.setdefault(h, len(entity_ids))
            rid = relation_ids.setdefault(r, len(relation_ids))
            tid = entity_ids.setdefault(t, len(entity_ids))
            triple = Triple(hid, rid, tid)
            if triple in seen:
                extra_dups += 1
                continue
            seen.add(triple)
            triples.append(triple)
        if not triples:
            raise EmptySnapshotError("snapshot has no triples")
        return Snapshot(
            time_step=time_step,
            triples=tuple(triples),
            entity_names=tuple(entity_ids),
            relation_names=tuple(relation_ids),
            duplicates_collapsed=duplicates_collapsed + extra_dups,
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
    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self.triples)

    @cached_property
    def neighbor_map(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {e: set() for e in range(self.num_entities)}
        for h, _, t in self.triples:
            if h != t:
                nbrs[h].add(t)
                nbrs[t].add(h)
        return {e: frozenset(s) for e, s in nbrs.items()}

    @cached_property
    def out_map(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """head id -> ordered (relation, tail) pairs."""
        out: dict[int, list[tuple[int, int]]] = {e: [] for e in range(self.num_entities)}
        for h, r, t in self.triples:
            out[h].append((r, t))
        return {e: tuple(v) for e, v in out.items()}

    @cached_property
    def pair_map(self) -> dict[tuple[int, int], frozenset[int]]:
        """(head, tail) -> relation ids linking that ordered pair."""
        pairs: dict[tuple[int, int], set[int]] = {}
        for h, r, t in self.triples:
            pairs.setdefault((h, t), set()).add(r)
        return {p: frozenset(s) for p, s in pairs.items()}

    @cached_property
    def relation_pairs(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """relation id -> ordered distinct (head, tail) pairs it links."""
        by_rel: dict[int, list[tuple[int, int]]] = {r: [] for r in range(self.num_relations)}
        seen: set[tuple[int, int, int]] = set()
        for h, r, t in self.triples:
            if (r, h, t) not in seen:
                seen.add((r, h, t))
                by_rel[r].append((h, t))
        return {r: tuple(v) for r, v in by_rel.items()}

    @cached_property
    def linked_pairs(self) -> frozenset[tuple[int, int]]:
        """Unordered entity pairs connected by at least one triple."""
        und = set()
        for h, _, t in self.triples:
            und.add((h, t) if h <= t else (t, h))
        return frozenset(und)

    # -- queries -----------------------------------------------------------

    def neighbors(self, e: int) -> frozenset[int]:
        self._check_entity(e)
        return self.neighbor_map[e]

    def has_triple(self, triple: Triple) -> bool:
        return triple in self.triple_set

    def linked(self, u: int, v: int) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.linked_pairs

    def triple_names(self, triple: Triple) -> NameTriple:
        return (self.entity_names[triple.head],
                self.relation_names[triple.relation],
                self.entity_names[triple.tail])

    def name_triples(self) -> tuple[NameTriple, ...]:
        return tuple(self.triple_names(t) for t in self.triples)

    def resolve(self, name_triple: NameTriple) -> Triple:
        h, r, t = name_triple
        return Triple(self.entity_id(h), self.relation_id(r), self.entity_id(t))


@dataclass(frozen=True)
class SnapshotDiff:
    """Set reconciliation between two snapshots, matched by name.

    Triples and object ids in the ``added``/``emerging`` fields live in the
    new snapshot's id space; ``deleted``/``removed`` fields in the old one.
    """

    added_triples: frozenset[Triple]
    deleted_triples: frozenset[Triple]
    emerging_entities: frozenset[int]
    emerging_relations: frozenset[int]
    removed_entities: frozenset[int]
    removed_relations: frozenset[int]

    @property
    def is_empty(self) -> bool:
        return not (self.added_triples or self.deleted_triples)


def parse_triple_file(path) -> tuple[list[NameTriple], int]:
    """Read a tab-separated triple file.

    Returns (name triples in file order with duplicates removed, number of
    duplicates collapsed).  Blank lines and lines starting with '#' are
    ignored.  Any other line must have exactly three non-empty fields.
    """
    path = Path(path)
    out: list[NameTriple] = []
    seen: set[NameTriple] = set()
    dups = 0
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3 or any(not f for f in fields):
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(fields)}")
            nt: NameTriple = (fields[0], fields[1], fields[2])
            if nt in seen:
                dups += 1
                continue
            seen.add(nt)
            out.append(nt)
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


def diff_snapshots(g_old: Snapshot, g_new: Snapshot) -> SnapshotDiff:
    """Name-matched diff: added/deleted triples and emerging/removed objects.

    Deleting the deleted set from the old snapshot and adding the added set
    yields exactly the new snapshot's triples (at name level).
    """
    old_names = set(g_old.name_triples())
    new_names = set(g_new.name_triples())
    added = frozenset(g_new.resolve(nt) for nt in new_names - old_names)
    deleted = frozenset(g_old.resolve(nt) for nt in old_names - new_names)
    old_e, new_e = set(g_old.entity_names), set(g_new.entity_names)
    old_r, new_r = set(g_old.relation_names), set(g_new.relation_names)
    return SnapshotDiff(
        added_triples=added,
        deleted_triples=deleted,
        emerging_entities=frozenset(g_new.entity_ids[n] for n in new_e - old_e),
        emerging_relations=frozenset(g_new.relation_ids[n] for n in new_r - old_r),
        removed_entities=frozenset(g_old.entity_ids[n] for n in old_e - new_e),
        removed_relations=frozenset(g_old.relation_ids[n] for n in old_r - new_r),
    )

