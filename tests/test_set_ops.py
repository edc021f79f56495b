"""Set operations by sort: ``distinct`` and ``lookup`` against numpy's own,
and scans that keep numpy's hash-table ``unique``, ``np.lexsort``, all but
the listed stable sorts and parameters nothing reads out of the package."""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge
from dkge.kg_store import distinct, lookup


def membership(keys, needles):
    """Position of each needle in sorted distinct ``keys`` by binary
    search, -1 where absent."""
    at = np.searchsorted(keys, needles)
    found = at < keys.size
    found[found] = keys[at[found]] == needles[found]
    return np.where(found, at, -1)


def dense(keys, needles) -> bool:
    """Whether ``lookup`` takes its table path."""
    return keys.size > 0 and keys[-1] - keys[0] <= 6 * (keys.size + needles.size)


@st.composite
def keys_and_needles(draw, reach: int, spread: int):
    """At least two sorted distinct keys, multiples of ``spread`` in
    [-reach, reach] * spread, and up to 60 needles that repeat keys or fall
    between, below and above them."""
    keys = np.array(sorted(draw(st.sets(st.integers(-reach, reach), min_size=2,
                                        max_size=30))), dtype=np.int64) * spread
    pool = st.one_of(st.sampled_from(keys.tolist()),
                     st.integers(-(reach + 3) * spread, (reach + 3) * spread))
    return keys, np.array(draw(st.lists(pool, max_size=60)), dtype=np.int64)


@given(values=st.lists(st.integers(-2**40, 2**40), max_size=80),
       dtype=st.sampled_from([np.int64, np.intp]))
@settings(max_examples=100, deadline=None)
def test_distinct_equals_unique(values, dtype):
    a = np.array(values, dtype=dtype)
    got, want = distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_distinct_flattens_as_unique_does():
    a = np.array([[3, 1], [1, 3], [2, 2]])
    assert np.array_equal(distinct(a), np.unique(a))
    assert distinct(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


@given(case=keys_and_needles(5, 1))
@settings(max_examples=100, deadline=None)
def test_lookup_by_table_equals_search(case):
    keys, needles = case
    assert dense(keys, needles)
    got = lookup(keys, needles)
    assert got.dtype == np.intp
    assert np.array_equal(got, membership(keys, needles))


@given(case=keys_and_needles(40, 10**6))
@settings(max_examples=100, deadline=None)
def test_lookup_by_search_equals_search(case):
    keys, needles = case
    assert not dense(keys, needles)
    got = lookup(keys, needles)
    assert got.dtype == np.intp
    assert np.array_equal(got, membership(keys, needles))


@pytest.mark.parametrize("spread", [1, 10**6], ids=["table", "search"])
def test_lookup_below_above_and_repeated(spread):
    keys = np.array([3, 5, 9]) * spread
    needles = np.array([-1, 3, 3, 4, 9, 10, 100, 5]) * spread
    assert dense(keys, needles) == (spread == 1)
    assert lookup(keys, needles).tolist() == [-1, 0, 0, -1, 2, -1, -1, 1]


def test_lookup_empty_keys_and_needles():
    empty = np.zeros(0, dtype=np.int64)
    assert lookup(empty, np.array([0, 7, -3])).tolist() == [-1, -1, -1]
    assert lookup(empty, empty).shape == (0,)
    for keys in (np.array([4, 6]), np.array([4, 6 * 10**6])):
        got = lookup(keys, empty)
        assert got.shape == (0,) and got.dtype == np.intp


HASHED = {"unique_values", "union1d"}


def hashed_set_operations(source: str) -> list[int]:
    """Lines calling ``np.unique`` without a ``return_*`` keyword,
    ``np.unique_values`` or ``np.union1d``: numpy >= 2.3 answers these
    on ints with a hash table."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"np", "numpy"}):
            continue
        name = node.func.attr
        flagged = any((k.arg or "").startswith("return_") for k in node.keywords)
        if name in HASHED or (name == "unique" and not flagged):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_hashed_set_operations():
    source = ("np.unique(a)\nnp.unique(a, return_inverse=True)\n"
              "numpy.union1d(a, b)\nnp.unique_values(a)\nnp.sort(a)\n")
    assert hashed_set_operations(source) == [1, 3, 4]


def test_package_uses_no_hashed_set_operations():
    found = {path.name: lines
             for path in sorted(Path(dkge.__file__).parent.glob("*.py"))
             if (lines := hashed_set_operations(path.read_text(encoding="utf-8")))}
    assert found == {}


STABLE_KINDS = {"stable", "mergesort"}
# (module, sorted name): the stable sorts left.  ``answer``'s top-k over
# float scores keeps the smaller entity id first among equal scores; the S
# entries of ``normalize_adjacency`` and the edges of ``_entity_contexts``
# are sorted by row alone, since each row's entries already come in column
# order, and a stable sort merges those runs faster than a sort of distinct
# (row, column) keys
STABLE_ALLOWED = {("evaluation.py", "scores"), ("agcn.py", "rows"), ("contexts.py", "rows")}


def multi_key_sorts(source: str, module: str) -> list[int]:
    """Lines calling ``np.lexsort``, or a ``sort``/``argsort`` of a stable
    kind outside ``STABLE_ALLOWED``: the other index builders sort by one
    ``np.argsort`` over a distinct int64 key instead."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if name == "lexsort":
            lines.append(node.lineno)
        elif name in {"sort", "argsort"} and any(
                k.arg == "kind" and isinstance(k.value, ast.Constant)
                and k.value.value in STABLE_KINDS for k in node.keywords):
            first = node.args[0] if node.args else None
            sorted_name = first.id if isinstance(first, ast.Name) else None
            if (module, sorted_name) not in STABLE_ALLOWED:
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_multi_key_sorts():
    source = ("np.lexsort((a, b))\nnp.argsort(r, kind='stable')\n"
              "a.sort(kind='mergesort')\nnp.argsort(scores, kind='stable')\n"
              "np.argsort(codes)\nnp.sort(a, kind='quicksort')\n")
    assert multi_key_sorts(source, "contexts.py") == [1, 2, 3, 4]
    assert multi_key_sorts(source, "evaluation.py") == [1, 2, 3]


def test_package_sorts_by_one_key():
    found = {path.name: lines
             for path in sorted(Path(dkge.__file__).parent.glob("*.py"))
             if (lines := multi_key_sorts(path.read_text(encoding="utf-8"), path.name))}
    assert found == {}


EXEMPT_PARAMETERS = {"self", "cls"}


def unread_parameters(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function or lambda parameter that its body
    never reads; ``self``, ``cls`` and ``_``-prefixed names are exempt.  A
    read in a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, name) for name in params if name not in read
                  and name not in EXEMPT_PARAMETERS and not name.startswith("_")]
    return sorted(found)


def test_scan_finds_unread_parameters():
    source = ("def f(self, a, b, *args, c=1, _d=2, **kw):\n"
              "    def g(e):\n"
              "        return a + c\n"
              "    b = 3\n"
              "    return g\n"
              "h = lambda x, y: x\n"
              "def k(cls, /, p):\n"
              "    del p\n")
    assert unread_parameters(source) == [
        (1, "args"), (1, "b"), (1, "kw"), (2, "e"), (6, "y"), (7, "p")]


def test_package_reads_every_parameter():
    found = {path.name: params
             for path in sorted(Path(dkge.__file__).parent.glob("*.py"))
             if (params := unread_parameters(path.read_text(encoding="utf-8")))}
    assert found == {}
