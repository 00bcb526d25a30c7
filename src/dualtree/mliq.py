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

The weight tables of both BPs have closed forms in the endpoints, so no
weight is summed:

* open side: the (i+1)-th opener of the heap's BP is interval i, and the
  left-endpoint gaps up to it sum to a_i, so the cumulative weights are the
  endpoint array ``a`` itself, at the openers after the root's;
* close side: the reversed BP's i-th closer is interval n+1-i, and the
  reversed right-endpoint gaps behind the sentinel sum to b_n + 1 - b_{n+1-i}
  there, so the cumulative weights are b_n + 1 - b read in reverse, then
  b_n + 1 at the root's closer.

A query's bpselect needs only how many weighted parentheses its budget
affords, and that count is a bisect over the endpoints: ``bisect_right(a,
budget)`` on the open side, and on the close side the right endpoints that
reach b_n + 1 - budget, counted by ``bisect_left`` over ``b`` from its end,
plus the root's closer once the budget covers the sentinel. So both engines
search the one stored endpoint order: the naive engine's ranks are these
counts. The paper frames the weighted engine's gain as bpselect over
weighted parentheses in place of endpoint rank structures; here neither
engine holds a structure of its own beyond the endpoints and the heap.

The index holds the endpoints as two ``array('q')`` and the length heap's
DFUDS, which ``minheap.heap_dfuds`` writes, and nothing else. The lengths
b - a + 1 are computed when the brute-force oracle asks for them: the heap
is built from b - a, which orders the intervals the same way, read once and
never held. The weighted
positions, where the bpselects would land, are computed only when asked
for (``IntervalSet.weighted_positions``, ``IntervalSet.weighted_bps``): by
``verify``, the tests, and the load of a version-1 or -2 blob, which
compares its stored WOPN/WCLS sections with them. A version-3 blob stores
neither table, so no save and no version-3 load computes them.
A node's opener in the heap's BP lies at a closed form of its preorder
index and depth, and the BP of the reversed heap is the mirror of the
heap's BP, so they are read off the DFUDS with one pass for the depths,
``codec._dfuds_depths``, the DFUDS decoder's own reader of the blocks;
neither the heap tree, nor its reversal, nor the bits of either BP are
built. Building or loading checks the endpoints in bulk, with 64-bit lane
arithmetic (``_rules_hold``): each chunk of ``parens._LANES`` entries of
both tables, overlapping the next chunk by one entry, is read as one int of
lanes, its sign bits are checked first, and then one borrow-free
subtraction per rule decides a_i <= b_i and the increase of a and of b in
every lane at once. Only a family that fails is searched for its breach
(``_first_breach``), which names the first interval that breaks a rule, as
a check of one pair at a time would.

Containment conventions: closed (the default) answers with intervals
satisfying a_i <= a <= b <= b_i; strict (``strict=True``) requires a_i < a
and b_i > b. On integer
endpoints the two differ only by a unit shift of the query; both are exposed
and both are held to the brute-force oracle.
"""

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from operator import add, ge, gt, itemgetter, lt, not_, sub

from .bitseq import le_buffer
from .codec import _dfuds_depths
from .errors import ContractError, RangeError, ValidationError
from .minheap import MinHeapIndex, heap_dfuds, held_values
from .parens import _H64, _LANES, WeightedBits
from .rmq import OpCounters, pda_fast, rmq_direct

# Read only by the benchmark, which reports it next to the interval domain;
# no index structure depends on it.
DENSE_DOMAIN_LIMIT = 1 << 22

_I64_MAX = (1 << 63) - 1


class IntervalSet:
    """Sorted interval family: the endpoints ``a`` and ``b``, two
    ``array('q')``, and the 2D-Min-Heap of the interval lengths, which holds
    its DFUDS alone. Both engines search ``a`` and ``b``; everything else is
    computed when asked for."""

    __slots__ = ("a", "b", "heap")

    def __init__(self, a, b, heap):
        self.a = a
        self.b = b
        self.heap = heap

    @property
    def n(self):
        return len(self.a)

    @property
    def domain_max(self):
        return self.b[-1]

    @property
    def lengths(self):
        """b_i - a_i + 1 per interval, computed on each read: an
        ``array('q')``, or a list for the lone interval [0, 2^63 - 1]."""
        return held_values([y - x + 1 for x, y in zip(self.a, self.b)])

    def weighted_positions(self):
        """The weighted positions, (the length heap BP's openers after the
        root's, the reversed BP's closers), computed on each call."""
        return _weighted_positions(self.heap.dfuds)

    def weighted_bps(self):
        """The BP of the length heap weighted with the left endpoints and the
        BP of its reversal weighted with the right endpoints from the
        sentinel b_n + 1, (open side, close side), each a WeightedBits of its
        positions and cumulative weights, computed on each call.

        The open side's cumulative weights are ``a`` itself; the close
        side's, b_n + 1 - b read in reverse and then b_n + 1, are unsigned,
        since b_n + 1 may be 2^63."""
        opens, closes = self.weighted_positions()
        n_bits = 2 * self.n + 2
        sentinel = self.b[-1] + 1
        close_cum = array("Q", map(sub, repeat(sentinel), reversed(self.b)))
        close_cum.append(sentinel)
        return WeightedBits(n_bits, opens, self.a), WeightedBits(n_bits, closes, close_cum)


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
        raise _breach_error(list(map(left, pairs)), list(map(right, pairs))) from None
    return intervals_from_arrays(a, b)


def intervals_from_arrays(a, b) -> IntervalSet:
    """The index of the endpoints held in two ``array('q')`` of one length,
    which it keeps; the rules and messages are those of
    ``build_intervals``. Tables of other types or of unequal lengths are a
    ContractError."""
    if not (type(a) is type(b) is array and a.typecode == b.typecode == "q"):
        raise ContractError("endpoints must be given as two array('q')")
    if len(a) != len(b):
        raise ContractError(f"{len(a)} left endpoints but {len(b)} right endpoints")
    if not a or not _rules_hold(a, b):
        raise _breach_error(a, b)
    # b - a orders the intervals as their lengths do
    return IntervalSet(a, b, MinHeapIndex(None, heap_dfuds(map(sub, reversed(b), reversed(a)))))


def _rules_hold(a, b):
    """Whether the endpoints ``a``, ``b``, two non-empty ``array('q')`` of
    one length, break no rule of ``build_intervals``.

    Both tables are read as little-endian bytes (``le_buffer``), one int of
    64-bit lanes per chunk of ``_LANES`` entries, each chunk overlapping the
    next by one lane, so that every endpoint meets its successor. A chunk
    with a lane's sign bit set holds a negative endpoint. Past that check
    every lane is below 2^63, so ``(x | high) - y`` borrows across no lane
    and its lane's top bit is set where x >= y: it must be set for b >= a
    in every lane, and clear for a_i >= a_{i+1} and b_i >= b_{i+1} in every
    lane but the last. Only chunk-sized ints are made (and, on a big-endian
    host, a byteswapped copy of each table)."""
    n = len(a)
    with memoryview(le_buffer(a)).cast("B") as la, memoryview(le_buffer(b)).cast("B") as lb:
        for lo in range(0, max(n - 1, 1), _LANES - 1):
            span = slice(8 * lo, 8 * min(lo + _LANES, n))
            x = int.from_bytes(la[span], "little")
            y = int.from_bytes(lb[span], "little")
            high = _H64 if n - lo >= _LANES else _H64 >> 64 * (_LANES - n + lo)
            yh = y | high
            if (x | y) & high or (yh - x) & high != high or ((x | high) - (x >> 64) | yh - (y >> 64)) & (high >> 64):
                return False
    return True


def _breach_error(a, b):
    """The ValidationError of ``build_intervals`` for the endpoints ``a``,
    ``b`` of a family that breaks a rule: ``interval K: rule``."""
    if not a:
        return ValidationError("interval family must not be empty")
    return ValidationError("interval %d: %s" % _first_breach(a, b))


def _first_breach(a, b):
    """(K, rule): the first interval K (counted from 1) in ``a``, ``b``, two
    non-empty sequences of any objects, that breaks a rule of
    ``build_intervals``, and the first rule it breaks, in the words of the
    rule's message.

    The rules are searched in their order, each in bulk among the intervals
    before the earliest breach found so far, so a later rule wins only on an
    earlier interval. Comparisons run only on intervals before the first
    endpoint that is not an int.
    """
    n = len(a)
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
    return end + 1, error


def _first(flags, end):
    """Index of the first true flag before ``end``, else ``end``; no flag at
    or past ``end`` is evaluated."""
    return next(compress(range(end), flags), end)


def _weighted_positions(dfuds):
    """The opener positions of the length heap's BP after the root's, and
    the closer positions of the BP of its reversal, two ``array('q')``.

    A heap of n intervals has n + 1 nodes, so each BP has N = 2(n + 1) bits,
    and in BP the node of preorder index v opens at 2v + 1 - depth(v); the
    (i+1)-th opener is interval i. The reversed heap's BP is the mirror of
    the heap's, so its i-th closer, interval n+1-i, sits at N + 1 minus the
    heap's opener of node n+1-i, that is at 2i + depth(n+1-i), and the
    root's at N.
    """
    depths = _dfuds_depths(dfuds.to_text())
    n = len(depths) - 1
    n_bits = 2 * n + 2
    opens = array("q", map(sub, range(3, n_bits, 2), islice(depths, 1, None)))
    closes = array("q", map(add, range(2, n_bits - 1, 2), islice(reversed(depths), n)))
    closes.append(n_bits)
    return opens, closes


def _close_count(b, budget):
    """How many closers of the reversed BP the close-side bpselect affords.
    The i-th closer's cumulative weight is b_n + 1 - b_{n+1-i}, within budget
    exactly when b_{n+1-i} >= b_n + 1 - budget, and the root's closer weighs
    b_n + 1 in all."""
    sentinel = b[-1] + 1
    return len(b) - bisect_left(b, sentinel - budget) + (budget >= sentinel)


def mliq_bruteforce(s, a, b, strict=False, counters=None):
    """Scan every interval under the active convention; leftmost shortest.
    The oracle runs no primitive, so ``counters`` is left as it is."""
    _check_query(s, a, b)
    lengths = s.lengths
    best = None
    for i in range(1, s.n + 1):
        ai, bi = s.a[i - 1], s.b[i - 1]
        ok = (ai < a and bi > b) if strict else (ai <= a and bi >= b)
        if ok and (best is None or lengths[i - 1] < lengths[best - 1]):
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
    i_max = bisect_right(s.a, budget_a)  # the open side's cumulative weights are a itself
    c.bpselect += 1

    budget_b = sentinel - b - 1 if strict else sentinel - b
    cnt_b = _close_count(s.b, budget_b)
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
