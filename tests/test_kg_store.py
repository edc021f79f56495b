"""Snapshot storage: parsing, interning, views, diffs."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkge.errors import EmptySnapshotError, ParseError, UnknownObjectError
from dkge.kg_store import (Snapshot, Triple, diff_snapshots, load_snapshot,
                           load_snapshot_dir, parse_triple_file, save_snapshot)

from graphs import TOY_T0, TOY_T1, random_name_triples


def test_parse_happy_path(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tlikes\tb\n\n# comment\nb\tlikes\tc\n")
    triples, dups = parse_triple_file(p)
    assert triples == [("a", "likes", "b"), ("b", "likes", "c")]
    assert dups == 0


def test_parse_collapses_duplicates_first_wins(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tr\tb\nc\tr\td\na\tr\tb\n")
    triples, dups = parse_triple_file(p)
    assert triples == [("a", "r", "b"), ("c", "r", "d")]
    assert dups == 1


@pytest.mark.parametrize("line", ["a\tb", "a\tb\tc\td", "a\t\tc", "justone"])
def test_parse_rejects_malformed_lines(tmp_path, line):
    p = tmp_path / "bad.txt"
    p.write_text(line + "\n")
    with pytest.raises(ParseError) as err:
        parse_triple_file(p)
    assert str(p) in str(err.value)
    assert err.value.line_no == 1


def test_parse_line_endings_comments_and_duplicates(tmp_path):
    """CRLF and a lone CR end lines; blank, whitespace-only and '#' lines
    are skipped but counted; a repeated line is collapsed."""
    p = tmp_path / "train.txt"
    p.write_bytes(b"a\tr\tb\r\n"     # 1: CRLF
                  b"b\tr\tc\r"        # 2: lone CR
                  b"\r\n"              # 3: blank
                  b"  # note\n"        # 4: indented comment
                  b"\t \n"             # 5: whitespace only
                  b"a\tr\tb\n"        # 6: duplicate of line 1
                  b"c\ts\ta")          # 7: no final newline
    assert parse_triple_file(p) == ([("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")], 1)
    for content, line_no, got in ((b"a\tr\tb\r\n\r\n# x\rc\t\td\r\n", 4, 3),
                                  (b"# x\r\na r b\n", 2, 1)):
        p.write_bytes(content)
        with pytest.raises(ParseError) as err:
            parse_triple_file(p)
        assert err.value.line_no == line_no
        assert str(err.value) == f"{p}:{line_no}: expected 3 tab-separated fields, got {got}"


@pytest.mark.parametrize("name", ["train.txt", "test.txt"])
def test_non_utf8_line_raises_parse_error(tmp_path, name):
    """A byte that is not UTF-8 raises ParseError naming the file and its
    line, counted as text mode counts them, also far past the first chunk
    the decoder reads."""
    good = b"a\tr\tb\n" * 4000 + b"b\tr\tc\r" + b"c\tr\td\r\n# note\n"
    (tmp_path / "train.txt").write_bytes(good)
    (tmp_path / "test.txt").write_bytes(good)
    p = tmp_path / name
    p.write_bytes(good + b"d\tr\t\xffe\n" + b"e\tr\tf\n")
    with pytest.raises(ParseError) as err:
        load_snapshot_dir(tmp_path)
    assert err.value.path == str(p)
    assert err.value.line_no == 4004
    assert str(err.value) == f"{p}:4004: not UTF-8: invalid start byte"


def ids(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("triple_ids,entities,relations,message", [
    (ids([[0, 0, 1]]), ("a", "a"), ("r",), "duplicate names"),
    (ids([[0, 0, 1]]), ("a", "b"), ("r", "r"), "duplicate names"),
    (ids([[0, 0, 2]]), ("a", "b"), ("r",), "outside dictionary range"),
    (ids([[-1, 0, 1]]), ("a", "b"), ("r",), "outside dictionary range"),
    (ids([[0, 1, 1]]), ("a", "b"), ("r",), "outside dictionary range"),
    (ids([[0, 0, 1], [0, 0, 1]]), ("a", "b"), ("r",), "duplicate triples"),
    (ids([[0, 0, 1]]), ("a", "b", "c"), ("r",), "not used"),
    (ids([[0, 0, 1]]), ("a", "b"), ("r", "s"), "not used"),
    (np.array([0, 0, 1], dtype=np.int64), ("a", "b"), ("r",), "int64 array"),
    (np.zeros((1, 2), dtype=np.int64), ("a",), ("r",), "int64 array"),
    (ids([[0, 0, 1]]).astype(np.int32), ("a", "b"), ("r",), "int64 array"),
    ([[0, 0, 1]], ("a", "b"), ("r",), "int64 array"),
])
def test_snapshot_rejects_inconsistent_fields(triple_ids, entities, relations, message):
    with pytest.raises(ValueError, match=message):
        Snapshot(0, triple_ids, entities, relations)


def test_snapshot_stores_a_read_only_array_and_compares_by_identity():
    g = Snapshot(0, ids([[0, 0, 1], [1, 0, 1]]), ("a", "b"), ("r",))
    assert not g.triple_ids.flags.writeable
    with pytest.raises(ValueError):
        g.triple_ids[0, 2] = 0
    assert g.triples == (Triple(0, 0, 1), Triple(1, 0, 1))
    twin = Snapshot.from_name_triples([("a", "r", "b"), ("b", "r", "b")])
    assert twin.digest == g.digest
    assert twin != g and g == g and len({g, twin}) == 2


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sorted_codes_key_digest_and_membership(seed):
    """``sorted_codes`` is the cached, read-only sort of ``triple_codes``, the
    digest hashes it, and ``has_triple`` answers from it, False for ids
    outside the dictionaries, without building the tuple views."""
    import hashlib
    from dkge.kg_store import triple_codes
    rng = np.random.default_rng(seed)
    g = Snapshot.from_name_triples(random_name_triples(rng, 30, 6, 3))
    n_e, n_r = g.num_entities, g.num_relations
    codes = g.sorted_codes
    assert codes is g.sorted_codes and not codes.flags.writeable
    assert codes.tolist() == sorted(triple_codes(g.triple_ids, n_e, n_r).tolist())
    assert g.digest == hashlib.blake2b(codes.tobytes(), digest_size=16).hexdigest()
    known = set(map(tuple, g.triple_ids.tolist()))
    for h in range(-1, n_e + 1):
        for r in range(-1, n_r + 1):
            for t in range(-1, n_e + 1):
                assert g.has_triple(Triple(h, r, t)) == ((h, r, t) in known)
    assert not {"triples", "triple_set"} & set(vars(g))


def test_id_rows_checks_every_id():
    g = Snapshot.from_name_triples([("a", "r", "b")])
    assert g.id_rows([Triple(1, 0, 0)]).tolist() == [[1, 0, 0]]
    assert g.id_rows(set()).shape == (0, 3)
    for bad, kind, key in (([0, 0, 2], "entity", 2), ([0, -1, 0], "relation", -1),
                           ([-3, 1, 0], "entity", -3)):
        with pytest.raises(UnknownObjectError) as err:
            g.id_rows(np.array([[0, 0, 1], bad]))
        assert (err.value.kind, err.value.key) == (kind, key)


def test_interning_first_occurrence_order():
    g = Snapshot.from_name_triples([("b", "r2", "a"), ("a", "r1", "c")])
    assert g.entity_names == ("b", "a", "c")
    assert g.relation_names == ("r2", "r1")
    assert g.triples == (Triple(0, 0, 1), Triple(1, 1, 2))


def test_from_name_triples_collapses_duplicates():
    g = Snapshot.from_name_triples([("a", "r", "b"), ("a", "r", "b")])
    assert len(g.triples) == 1
    assert g.duplicates_collapsed == 1


def test_empty_snapshot_rejected():
    with pytest.raises(EmptySnapshotError):
        Snapshot.from_name_triples([])


def test_neighbors_exclude_self(g1):
    # self-loops never make an entity its own neighbor
    g = Snapshot.from_name_triples([("a", "r", "a"), ("a", "r", "b")])
    assert g.neighbors(g.entity_id("a")) == frozenset({g.entity_id("b")})
    e1 = g1.entity_id("e1")
    assert {g1.entity_names[v] for v in g1.neighbors(e1)} == {"e2", "e3", "e5", "e6"}


def test_neighbors_unknown_entity(g1):
    with pytest.raises(UnknownObjectError):
        g1.neighbors(99)


def test_entity_and_relation_lookup(g1):
    assert g1.entity_names[g1.entity_id("e3")] == "e3"
    assert g1.relation_names[g1.relation_id("r4")] == "r4"
    with pytest.raises(UnknownObjectError):
        g1.entity_id("nope")
    with pytest.raises(UnknownObjectError):
        g1.relation_id("nope")


def test_pair_and_relation_views(g1):
    h, t = g1.entity_id("e1"), g1.entity_id("e5")
    r1 = g1.relation_id("r1")
    assert r1 in g1.pair_map[(h, t)]
    pairs = g1.relation_pairs[r1]
    named = [(g1.entity_names[a], g1.entity_names[b]) for a, b in pairs]
    assert named == [("e1", "e5"), ("e3", "e4"), ("e1", "e2")]
    assert t in g1.neighbors(h) and h in g1.neighbors(t)
    assert g1.entity_id("e6") not in g1.neighbors(g1.entity_id("e5"))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pair_index_matches_the_dict_views(seed):
    """``Snapshot.pairs`` holds ``pair_map``, ``out_map``'s distinct tails
    in name order and ``relation_pairs``, as arrays."""
    rng = np.random.default_rng(seed)
    g = Snapshot.from_name_triples(random_name_triples(rng, 40, 8, 3))
    p, n = g.pairs, g.num_entities
    heads = (p.keys // n).tolist()
    assert (p.keys == p.keys // n * n + g.name_rank[p.tails]).all()
    assert (np.diff(p.keys) > 0).all()
    assert {(h, t): frozenset(p.rels[p.ptr[k]:p.ptr[k + 1]].tolist())
            for k, (h, t) in enumerate(zip(heads, p.tails.tolist()))} == g.pair_map
    assert all(np.all(np.diff(p.rels[p.ptr[k]:p.ptr[k + 1]]) > 0) for k in range(len(heads)))
    for e in range(n):
        tails = p.tails[p.out[e]:p.out[e + 1]].tolist()
        assert tails == sorted({t for _, t in g.out_map[e]}, key=g.entity_names.__getitem__)
    for r in range(g.num_relations):
        pairs = p.of_relation[p.rptr[r]:p.rptr[r + 1]]
        assert list(zip((p.keys[pairs] // n).tolist(), p.tails[pairs].tolist())) == list(
            g.relation_pairs[r])
    assert sorted(range(g.num_relations), key=g.relation_rank.__getitem__) == sorted(
        range(g.num_relations), key=g.relation_names.__getitem__)


def test_save_load_round_trip(tmp_path, g1):
    p = tmp_path / "snap.txt"
    save_snapshot(g1, p)
    g = load_snapshot(p, time_step=1)
    assert g.triples == g1.triples
    assert g.entity_names == g1.entity_names
    assert g.relation_names == g1.relation_names


def test_load_snapshot_dir(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n")
    (tmp_path / "valid.txt").write_text("a\tr\tb\n")
    sd = load_snapshot_dir(tmp_path)
    assert sd.train.num_entities == 2
    assert sd.valid == (("a", "r", "b"),)
    assert sd.test is None


def test_load_snapshot_dir_requires_train(tmp_path):
    with pytest.raises(ParseError) as err:
        load_snapshot_dir(tmp_path)
    assert "train.txt" in str(err.value)


def test_diff_toy_step(g1, g2):
    diff = diff_snapshots(g1, g2)
    assert {g2.triple_names(t) for t in diff.added_triples} == {
        ("e6", "r5", "e3"), ("e7", "r7", "e6")}
    assert diff.deleted_triples.shape == (0, 3)
    assert {g2.entity_names[e] for e in diff.emerging_entities} == {"e7"}
    assert {g2.relation_names[r] for r in diff.emerging_relations} == {"r7"}
    assert diff.removed_entities.size == 0
    assert diff.removed_relations.size == 0


def test_diff_identical_snapshots(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    diff = diff_snapshots(g1, other)
    assert diff.is_empty


def test_diff_detects_removals():
    g_old = Snapshot.from_name_triples(TOY_T1)
    g_new = Snapshot.from_name_triples(TOY_T0)
    diff = diff_snapshots(g_old, g_new)
    assert {g_old.triple_names(t) for t in diff.deleted_triples} == {("e1", "r1", "e2")}
    assert diff.emerging_entities.size == 0


def test_diff_removed_objects():
    g_old = Snapshot.from_name_triples([("a", "r", "b"), ("c", "s", "d")])
    g_new = Snapshot.from_name_triples([("a", "r", "b")])
    diff = diff_snapshots(g_old, g_new)
    assert {g_old.entity_names[e] for e in diff.removed_entities} == {"c", "d"}
    assert {g_old.relation_names[r] for r in diff.removed_relations} == {"s"}


@st.composite
def triple_lists(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    import numpy as np
    rng = np.random.default_rng(seed)
    return random_name_triples(rng, n, 8, 3)


@given(old=triple_lists(), new=triple_lists())
@settings(max_examples=60, deadline=None)
def test_diff_patch_reconstructs_new_set(old, new):
    """Applying a diff to the old triple set yields exactly the new one."""
    g_old = Snapshot.from_name_triples(old)
    g_new = Snapshot.from_name_triples(new)
    diff = diff_snapshots(g_old, g_new)
    old_names = set(g_old.name_triples())
    added = {g_new.triple_names(t) for t in diff.added_triples}
    deleted = {g_old.triple_names(t) for t in diff.deleted_triples}
    assert deleted <= old_names
    assert not (added & old_names)
    assert (old_names - deleted) | added == set(g_new.name_triples())


def test_duplicate_warning_logged(tmp_path, caplog):
    p = tmp_path / "train.txt"
    p.write_text("a\tr\tb\na\tr\tb\n")
    with caplog.at_level(logging.WARNING):
        parse_triple_file(p)
    assert any("duplicate" in rec.message for rec in caplog.records)
