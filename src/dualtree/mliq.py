"""Minimum-length interval queries.

Given intervals with strictly increasing left and strictly increasing right
endpoints, the qualifying set for a query (a, b) is a contiguous index range
[i_min, i_max], and the shortest qualifier is a range-minimum over the
interval lengths. Two query paths are provided:

* ``mliq_naive`` — two endpoint ranks, ``bisect_right`` over the stored
  endpoint arrays ``a`` and ``b``, locate i_max and i_min, then the direct
  range-min engine over the length heap answers.
* ``mliq_weighted`` — two weighted prefix selects (``bpselect``) place a and
  b directly into the BP encodings of the length heap and of its reversal,
  then one primal-dual-ancestor query answers. Opening parentheses of the
  forward BP carry the left-endpoint gaps; closing parentheses of the
  reversed BP carry the right-endpoint gaps in reverse with a one-past-the-
  end sentinel, so the affordable-prefix count pins the least index whose
  right endpoint reaches b.

Each weighted BP is held as its weight tables alone, since a bpselect
reads nothing else. Both are read off the length heap's DFUDS in linear
bulk steps: a node's opener in the heap's BP lies at a closed form of its
preorder index and depth, and the BP of the reversed heap is the mirror of
the heap's BP, so its closers are the heap's openers mirrored. Neither the
heap tree, nor its reversal, nor the bits of either BP are built.

Their weight tables have closed forms, so no weight is summed:

* open side: the (i+1)-th opener of the heap's BP is interval i, and the
  left-endpoint gaps up to it sum to a_i, so the cumulative weights are the
  endpoint array ``a`` itself, at the openers after the root's;
* close side: the reversed BP's i-th closer is interval n+1-i, and the
  reversed right-endpoint gaps behind the sentinel sum to b_n + 1 - b_{n+1-i}
  there, so the cumulative weights are b_n + 1 - b read in reverse, then
  b_n + 1; the closers sit at N + 1 minus the heap's openers read in
  reverse, N being the BP's length.

The open side's cumulative weights are ``a`` itself, so the naive engine's
left rank, ``bisect_right(a, ·)``, is the search the open-side bpselect
makes, and its right rank over ``b`` counts what the close-side bpselect
counts from the other end: both engines search the one stored endpoint
order.

The index holds the endpoints and these tables as ``array('q')`` (the close
side's cumulative weights as ``'Q'``, since b_n + 1 may be 2^63), the
lengths as the heap's own values, also an ``array('q')``, and no dict.
Building or loading checks the endpoints in bulk and names the first
interval that breaks a rule, as a check of one pair at a time would.

Containment conventions: CLOSED (default) answers with intervals satisfying
a_i <= a <= b <= b_i; STRICT requires a_i < a and b_i > b. On integer
endpoints the two differ only by a unit shift of the query; both are exposed
and both are held to the brute-force oracle.
"""

import sys
from array import array
from bisect import bisect_right
from itertools import compress, islice, repeat
from operator import ge, gt, itemgetter, le, lt, not_, sub

from .errors import ContractError, RangeError, ValidationError
from .minheap import build_minheap
from .parens import CLOSE_WEIGHTS, OPEN_WEIGHTS, WeightedBits
from .rmq import OpCounters, pda_fast, rmq_direct

# Read only by the benchmark, which reports it next to the interval domain;
# no index structure depends on it.
DENSE_DOMAIN_LIMIT = 1 << 22

_I64_MAX = (1 << 63) - 1


class IntervalSet:
    """Sorted interval family with weighted-parenthesis search structures
    over the lengths' 2D-Min-Heap. ``a`` and ``b`` are ``array('q')``, which
    the naive engine ranks against; ``lengths`` is ``heap.values``."""

    __slots__ = ("a", "b", "lengths", "heap", "bp_open", "bp_close")

    def __init__(self, a, b, lengths, heap, bp_open, bp_close):
        self.a = a
        self.b = b
        self.lengths = lengths
        self.heap = heap
        self.bp_open = bp_open
        self.bp_close = bp_close

    @property
    def n(self):
        return len(self.a)

    @property
    def domain_max(self):
        return self.b[-1]


def build_intervals(pairs) -> IntervalSet:
    """Validate a family of (a_i, b_i) pairs and build all query structures.

    Each interval i must meet these rules, checked in this order: both
    endpoints are non-negative integers; both fit a signed 64-bit integer;
    a_i <= b_i; a_i > a_{i-1}; b_i > b_{i-1}. The family is checked in bulk,
    and a breach raises ValidationError naming the first interval that
    breaks a rule and the first rule it breaks. Before any rule, the first
    item that is not a sequence of two endpoints raises ValidationError.
    """
    pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
    try:
        sizes = set(map(len, pairs))
    except TypeError:
        sizes = None
    if sizes not in ({2}, set()):
        k, pair = next((k, p) for k, p in enumerate(pairs, start=1) if not hasattr(p, "__len__") or len(p) != 2)
        raise ValidationError(f"interval {k}: expected a pair of endpoints, got {pair!r}")
    left, right = itemgetter(0), itemgetter(1)
    try:
        a, b = array("q", map(left, pairs)), array("q", map(right, pairs))
    except (TypeError, OverflowError):  # an endpoint that is not an int, or not an i64
        raise _first_breach(list(map(left, pairs)), list(map(right, pairs))) from None
    return intervals_from_arrays(a, b)


def intervals_from_arrays(a, b) -> IntervalSet:
    """The index of the endpoints held in two ``array('q')``, which it keeps;
    the rules and messages are those of ``build_intervals``."""
    if not a or not (
        a[0] >= 0 and all(map(le, a, b)) and all(map(lt, a, islice(a, 1, None)))
        and all(map(lt, b, islice(b, 1, None)))
    ):
        raise _first_breach(a, b)
    heap = build_minheap([y - x + 1 for x, y in zip(a, b)])
    # the close side's cumulative weights, b_n + 1 - b reversed, then b_n + 1;
    # unsigned, since b_n + 1 may be 2^63
    sentinel = b[-1] + 1
    close_cum = _minus(sentinel, b[::-1], "Q")
    close_cum.append(sentinel)
    bp_open, bp_close = _weighted_bps(heap.dfuds, a, close_cum)
    return IntervalSet(a, b, heap.values, heap, bp_open, bp_close)


def _first_breach(a, b):
    """The ValidationError of the first interval in ``a``, ``b`` (sequences
    of any objects) that breaks a rule of ``build_intervals``, naming the
    first rule it breaks.

    The rules are searched in their order, each in bulk among the intervals
    before the earliest breach found so far, so a later rule wins only on an
    earlier interval. Comparisons run only on intervals before the first
    endpoint that is not an int.
    """
    n = len(a)
    if not n:
        return ValidationError("interval family must not be empty")
    error = None
    end = _first(map(not_, map(isinstance, a, repeat(int))), n)
    end = _first(map(not_, map(isinstance, b, repeat(int))), end)
    end = _first(map(gt, repeat(0), map(min, a, b)), end)
    if end < n:
        error = "endpoints must be non-negative integers"
    big = _first(map(lt, repeat(_I64_MAX), map(max, a, b)), end)
    if big < end:
        v = a[big] if a[big] > _I64_MAX else b[big]
        end, error = big, f"endpoint {v} outside the signed 64-bit range"
    wide = _first(map(gt, a, b), end)
    if wide < end:
        end, error = wide, f"left endpoint {a[wide]} exceeds right endpoint {b[wide]}"
    left = _first(map(ge, a, islice(a, 1, None)), max(end - 1, 0)) + 1
    if left < end:
        end, error = left, "left endpoints not strictly increasing"
    right = _first(map(ge, b, islice(b, 1, None)), max(end - 1, 0)) + 1
    if right < end:
        end, error = right, "right endpoints not strictly increasing"
    if error is None:
        raise ContractError("the interval family breaks no rule")
    return ValidationError(f"interval {end + 1}: {error}")


def _first(flags, end):
    """Index of the first true flag before ``end``, else ``end``; no flag at
    or past ``end`` is evaluated."""
    return next(compress(range(end), flags), end)


def _preorder_depths(dfuds):
    """The depth of every node in preorder. The DFUDS lists the degrees in
    preorder; a stack that holds each node's depth + 1 once per child still
    to attach gives every depth."""
    depths = []
    waiting = [0]
    pop, put, wait = waiting.pop, depths.append, waiting.extend
    for d in map(len, dfuds.base.to_text()[1:-1].split("0")):
        depth = pop()
        put(depth)
        if d:
            wait(repeat(depth + 1, d))
    return depths


def _minus(value, table, typecode):
    """``array(typecode)`` of ``value - x`` for each x of ``table``, an array
    of 64-bit integers with 0 <= x <= value < 2^64. Each x is one 64-bit slot
    of a big integer and ``value`` fills every slot of another, so one big
    subtraction, which borrows across no slot, computes them all."""
    order = sys.byteorder
    whole = int.from_bytes(array("Q", [value]).tobytes() * len(table), order)
    return array(typecode, (whole - int.from_bytes(table.tobytes(), order)).to_bytes(8 * len(table), order))


def _weighted_bps(dfuds, a, close_cum):
    """The BP of the length heap weighted with the left endpoints, and the BP
    of its reversal weighted with the right endpoints from the sentinel, each
    as a WeightedBits of its weight tables.

    A heap of n intervals has n + 1 nodes, so each BP has N = 2(n + 1) bits,
    and in BP the node of preorder index v opens at 2v + 1 - depth(v). The
    (i+1)-th opener is interval i, and the open side's cumulative weight
    there is a_i: the tables are the openers after the root's and ``a``
    itself. The reversed heap's BP is the mirror of the heap's, so its i-th
    closer sits at N + 1 minus the heap's (n+2-i)-th opener and is interval
    n+1-i; its cumulative weight is ``close_cum``.
    """
    depths = _preorder_depths(dfuds)
    n_bits = 2 * len(depths)
    opens = array("q", map(sub, range(3, n_bits, 2), islice(depths, 1, None)))
    del depths
    closes = _minus(n_bits + 1, opens[::-1], "q")
    closes.append(n_bits)  # the root's opener, mirrored
    bp_open = WeightedBits(n_bits, open_weights=(opens, a))
    bp_close = WeightedBits(n_bits, close_weights=(closes, close_cum))
    return bp_open, bp_close


STRICT = "strict"
CLOSED = "closed"


def mliq_bruteforce(s, a, b, strict=False):
    """Scan every interval under the active convention; leftmost shortest."""
    _check_query(s, a, b)
    best = None
    for i in range(1, s.n + 1):
        ai, bi = s.a[i - 1], s.b[i - 1]
        ok = (ai < a and bi > b) if strict else (ai <= a and bi >= b)
        if ok and (best is None or s.lengths[i - 1] < s.lengths[best - 1]):
            best = i
    return best


def mliq_naive(s, a, b, strict=False, counters=None):
    """Two endpoint ranks bound the qualifying index range, then a range-min
    over lengths picks the answer. Two ranks + (2 select + 1 rmq + 1 rank).

    A rank is ``bisect_right`` over a stored endpoint array. i_max counts the
    left endpoints within a, as ``mliq_weighted``'s open-side bpselect does
    over the same array; i_min is one past the right endpoints short of b,
    which is max(1, n + 1 - count) for the close-side bpselect's count."""
    _check_query(s, a, b)
    c = counters if counters is not None else OpCounters()
    if strict:
        i_max = bisect_right(s.a, a - 1)
        i_min = bisect_right(s.b, b) + 1
    else:
        i_max = bisect_right(s.a, a)
        i_min = bisect_right(s.b, b - 1) + 1
    c.rank += 2
    if i_max < i_min:
        return None
    return rmq_direct(s.heap, i_min, i_max, c)


def mliq_weighted(s, a, b, strict=False, counters=None):
    """Two bpselects place the query endpoints; one primal-dual-ancestor
    query answers. Exactly 2 bpselect + one pda invocation."""
    _check_query(s, a, b)
    c = counters if counters is not None else OpCounters()
    n = s.n
    sentinel = s.b[-1] + 1

    budget_a = a - 1 if strict else a
    if budget_a < 0:
        return None  # strict containment of a = 0 is impossible
    _w, cnt_a = s.bp_open.bpselect_with_count(OPEN_WEIGHTS, budget_a)
    c.bpselect += 1
    i_max = cnt_a

    budget_b = sentinel - b - 1 if strict else sentinel - b
    _q, cnt_b = s.bp_close.bpselect_with_count(CLOSE_WEIGHTS, budget_b)
    c.bpselect += 1
    i_min = max(1, n + 1 - cnt_b)

    if i_min > i_max:
        return None
    node = pda_fast(s.heap, s.heap.dfuds, s.heap.node_of(i_min), s.heap.node_of(i_max), c)
    return s.heap.index_of(node)


def _check_query(s, a, b):
    if a > b:
        raise ContractError(f"query left endpoint {a} exceeds right endpoint {b}")
    if a < 0 or b > s.domain_max:
        raise RangeError(f"query ({a}, {b}) outside endpoint domain 0..{s.domain_max}")
