"""Range-minimum engines over a 2D-Min-Heap, plus the fast primal-dual
ancestor they are built from.

All engines answer with the leftmost position of the minimum and run over
the one stored DFUDS bit sequence:

* ``checked`` — range-min over the excess from the (i+1)-th close, then an
  open/rank test that detects whether position i itself is the minimum.
* ``direct`` — range-min over the excess from the i-th close; one rank
  finishes the query.
* ``ancestor`` — maps positions to heap nodes, takes their primal-dual
  ancestor, maps back; node ranks are arithmetic, so no tree is decoded.
* ``scan`` — linear scan of the values; the oracle the others are held to.

``direct`` and ``ancestor``, and through them both interval engines, run
one kernel over the DFUDS: 2 select + 1 rmq + 1 rank, the range-min of the
excess between the i-th and j-th closes and the rank_0 of its position. It
is one call, ``ParenSeq.rmq_closers``, which checks its range once, runs
the one range-min body that ``rmq_excess`` runs, and answers a range of one
close (i == j) by arithmetic: i, with no select.

Every primitive on the query path is tallied in an OpCounters so per-query
budgets can be asserted exactly. ``checked`` tallies the calls it makes.
The kernel's engines tally 2 select + 1 rmq + 1 rank per query whatever the
kernel does inside, including a one-close range: the tally is the plan's
budget, as rank_0 is, which the kernel reads off the excess with no rank
call.
"""

from dataclasses import asdict, astuple, dataclass

from .errors import ContractError
from .parens import CLOSE


@dataclass
class OpCounters:
    """Per-query tally of primitive operations."""

    rank: int = 0
    select: int = 0
    rmq: int = 0
    open: int = 0
    close: int = 0
    bpselect: int = 0

    def as_dict(self):
        return asdict(self)

    def total(self):
        return sum(astuple(self))


def rmq_checked(h, i, j, counters=None):
    """Two-step query: range-min past position i, then test whether the
    matching open proves position i is itself the minimum."""
    c = counters if counters is not None else OpCounters()
    _check_range(h, i, j)
    if i == j:
        return i
    p = h.dfuds
    lo = p.select(i + 1, CLOSE)
    hi = p.select(j, CLOSE)
    c.select += 2
    w1 = p.rmq_excess(lo, hi)
    c.rmq += 1
    o = p.open(w1)
    c.open += 1
    c.rank += 1
    if p.rank(o, CLOSE) == i:
        return i
    c.rank += 1
    return p.rank(w1, CLOSE)


def rmq_direct(h, i, j, counters=None):
    """Single range-min from the i-th close; one rank reads off the answer."""
    c = counters if counters is not None else OpCounters()
    _check_range(h, i, j)
    c.select += 2
    c.rmq += 1
    c.rank += 1
    return h.dfuds.rmq_closers(i, j)


def pda_fast(tree, dfuds, v1, v2, counters=None):
    """Primal-dual ancestor through the DFUDS excess profile of any tree.

    ``tree`` needs only ``root``, ``dft`` and ``node_at``: an OrdinalTree or
    a MinHeapIndex. Consumes 2 select + 1 rmq + 1 rank. Must agree with the
    definitional walk and with the rightmost minimum-depth node of the range.
    """
    c = counters if counters is not None else OpCounters()
    if v1 == tree.root or v2 == tree.root:
        raise ContractError("arguments must not be the root")
    i = tree.dft(v1) - 1
    j = tree.dft(v2) - 1
    if i > j:
        raise ContractError(f"{v1!r} does not precede {v2!r} in depth-first order")
    c.select += 2
    c.rmq += 1
    c.rank += 1
    return tree.node_at(dfuds.rmq_closers(i, j) + 1)


def rmq_ancestor(h, i, j, counters=None):
    """Map indices to heap nodes, take the primal-dual ancestor, map back.
    The heap answers ``pda_fast``'s tree questions by arithmetic."""
    _check_range(h, i, j)
    v = pda_fast(h, h.dfuds, h.node_of(i), h.node_of(j), counters)
    return h.index_of(v)


def rmq_scan(h, i, j, counters=None):
    """Leftmost position of the minimum by linear scan; the oracle.
    ContractError for a heap that holds no values."""
    _check_range(h, i, j)
    values = h.values
    if values is None:
        raise ContractError("the heap holds no values")
    return min(range(i, j + 1), key=lambda k: values[k - 1])


_DISPATCH = {
    "checked": rmq_checked,
    "direct": rmq_direct,
    "ancestor": rmq_ancestor,
    "scan": rmq_scan,
}
ENGINES = tuple(_DISPATCH)


def range_min_index(h, i, j, engine="direct", counters=None):
    try:
        fn = _DISPATCH[engine]
    except KeyError:
        raise ContractError(f"unknown engine {engine!r}; expected one of {ENGINES}") from None
    return fn(h, i, j, counters)


def _check_range(h, i, j):
    if not (isinstance(i, int) and isinstance(j, int)):
        raise ContractError("indices must be integers")
    if not 1 <= i <= h.n or not 1 <= j <= h.n:
        raise ContractError(f"indices ({i}, {j}) outside 1..{h.n}")
    if i > j:
        raise ContractError(f"left index {i} exceeds right index {j}")
