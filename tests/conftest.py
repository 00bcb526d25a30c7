"""Shared fixture data: the worked example used throughout the test suite.

The array, its heap tree, the dual/reversed-dual trees and all three
parenthesis strings were derived independently by hand from the definitions
and are frozen here; encoder/decoder tests must reproduce them byte for byte.
"""

import gc
import os
import random
import struct
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import strategies as st

import dualtree
from dualtree import index_io
from dualtree.tree import OrdinalTree

# Tests that run `python -m dualtree.cli` in a subprocess need the package
# found there too, as pyproject's pythonpath finds it for pytest.
_SRC = os.path.dirname(os.path.dirname(dualtree.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

FIX_A = [2, 7, 8, 1, 6, 4, 3, 5]

ROOT = 0  # sentinel label used by build_minheap

FIX_T_CHILDREN = {ROOT: (1, 4), 1: (2,), 2: (3,), 4: (5, 6, 7), 7: (8,)}
FIX_TSTAR_CHILDREN = {ROOT: (8, 7, 4), 7: (6,), 6: (5,), 4: (3, 2, 1)}
FIX_HAT_CHILDREN = {ROOT: (4, 7, 8), 4: (1, 2, 3), 7: (6,), 6: (5,)}

FIX_BP = "(((()))(()()(())))"
FIX_DFUDS = "((()()())((()))())"
FIX_DFUDS_TSTAR = "(((())()())((())))"

FIX_INTERVALS = [(1, 4), (3, 6), (5, 9), (8, 10)]

DATA = Path(__file__).parent / "data"

# Blobs as version-2 saves wrote them, kept to load and damage; the inputs
# they were saved from are listed in test_index_io.V2_FIXTURES.
V2_FIX_A = DATA / "v2-fix-a.idx"
V2_ARRAY_600 = DATA / "v2-array-600.idx"
V2_FIX_INTERVALS = DATA / "v2-fix-intervals.idx"
V2_INTERVALS_600 = DATA / "v2-intervals-600.idx"
V2_INTERVALS_12 = DATA / "v2-intervals-12.idx"

CRITERION_LINES = []


def star(leaves):
    return OrdinalTree.from_children(0, {0: tuple(range(1, leaves + 1)), **{v: () for v in range(1, leaves + 1)}})


def relabel(t, name):
    return OrdinalTree.from_children(name(t.root), {name(v): tuple(map(name, t.children(v))) for v in t.nodes()})


def chain(*labels):
    children = {labels[k]: (labels[k + 1],) for k in range(len(labels) - 1)}
    children[labels[-1]] = ()
    return OrdinalTree.from_children(labels[0], children)


@st.composite
def shapes(draw):
    """(root, label -> child tuple map) of random trees, stars, chains and a
    single node, half of them with string labels; leaves may have no entry."""
    shape = draw(st.sampled_from(["random", "star", "chain", "single"]))
    n = draw(st.integers(2, 150))
    if shape == "random":  # uniform attachment, as randgen.random_tree
        rng = random.Random(draw(st.integers(0, 2**32)))
        kids = {1: []}
        for v in range(2, n + 1):
            sibs = kids[rng.randint(1, v - 1)]
            sibs.insert(rng.randint(0, len(sibs)), v)
            kids[v] = []
    elif shape == "star":
        kids = {1: list(range(2, n + 1))}
    elif shape == "chain":
        kids = {v: [v + 1] for v in range(1, n)}
    else:
        kids = {}
    name = (lambda v: f"n{v}") if draw(st.booleans()) else (lambda v: v)
    return name(1), {name(v): tuple(map(name, c)) for v, c in kids.items()}


def trees():
    """The trees of ``shapes``."""
    return shapes().map(lambda shape: OrdinalTree.from_children(*shape))


def weight_prefix(w, x):
    """Sum of the weights of WeightedBits ``w`` at positions <= x, by bisect
    over its tables."""
    k = bisect_right(w.positions, x)
    return w.cum[k - 1] if k else 0


def write_blob(path, version, kind, sections):
    """Write a blob of ``version`` holding the (tag, payload) ``sections``;
    a payload is bytes or, as ``index_io`` makes a section, a list of
    buffers."""
    with open(path, "wb") as fh:
        fh.write(index_io.MAGIC + struct.pack("<HHI", version, kind, len(sections)))
        for tag, payload in sections:
            if isinstance(payload, list):
                payload = b"".join(payload)
            fh.write(tag.encode("ascii") + struct.pack("<Q", len(payload)) + payload)


class Counted(list):
    """A list that counts its index reads, all instances together."""

    reads = 0

    def __getitem__(self, k):
        Counted.reads += 1
        return super().__getitem__(k)


def traced(make):
    """(what ``make()`` returns, bytes it left held, its peak), by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        made = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, held - before, peak - before


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fix_t():
    return OrdinalTree.from_children(ROOT, FIX_T_CHILDREN)


@pytest.fixture
def fix_tstar():
    return OrdinalTree.from_children(ROOT, FIX_TSTAR_CHILDREN)


@pytest.fixture
def fix_hat():
    return OrdinalTree.from_children(ROOT, FIX_HAT_CHILDREN)
