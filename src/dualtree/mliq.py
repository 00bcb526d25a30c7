"""Minimum-length interval queries.

Given intervals with strictly increasing left and strictly increasing right
endpoints, the qualifying set for a query (a, b) is a contiguous index range
[i_min, i_max], and the shortest qualifier is a range-minimum over the
interval lengths. Two query paths are provided:

* ``mliq_naive`` — two membership-bitmap ranks locate i_min and i_max, then
  the direct range-min engine over the length heap answers.
* ``mliq_weighted`` — two weighted prefix selects (``bpselect``) place a and
  b directly into the BP encodings of the length heap and of its reversal,
  then one primal-dual-ancestor query answers. Opening parentheses of the
  forward BP carry the left-endpoint gaps; closing parentheses of the
  reversed BP carry the right-endpoint gaps in reverse with a one-past-the-
  end sentinel, so the affordable-prefix count pins the least index whose
  right endpoint reaches b.

Both weighted BPs are read off the length heap's DFUDS in linear bulk steps:
the closing runs of the heap's BP are the degrees of its dual, since
BP(T) = mirror(DFUDS(T*)), and the BP of the reversed heap is the mirror of
the heap's BP. Neither the heap tree nor its reversal is built, and the
weights sit on plain bit sequences without excess tables.

Containment conventions: CLOSED (default) answers with intervals satisfying
a_i <= a <= b <= b_i; STRICT requires a_i < a and b_i > b. On integer
endpoints the two differ only by a unit shift of the query; both are exposed
and both are held to the brute-force oracle.
"""

from bisect import bisect_right
from operator import sub

from . import codec
from .bitseq import BitSeq
from .errors import ContractError, RangeError, ValidationError
from .minheap import build_minheap
from .parens import CLOSE_WEIGHTS, OPEN_WEIGHTS, WeightedBits
from .rmq import OpCounters, pda_fast, rmq_direct

# Endpoint membership domains larger than this use a sorted position list
# instead of a dense bitmap.
DENSE_DOMAIN_LIMIT = 1 << 22


class EndpointBitmap:
    """Membership-with-rank over integer endpoints 0..domain_max."""

    __slots__ = ("values", "_dense")

    def __init__(self, values, domain_max):
        self.values = values
        if domain_max + 1 <= DENSE_DOMAIN_LIMIT:
            bits = bytearray(domain_max + 1)
            for v in self.values:
                bits[v] = 1
            self._dense = BitSeq(bits)
        else:
            self._dense = None

    def rank_leq(self, value):
        """Number of member endpoints <= value."""
        if value < 0:
            return 0
        if self._dense is not None:
            return self._dense.rank(min(value + 1, self._dense.n), 1)
        return bisect_right(self.values, value)

    def bits(self):
        return self._dense


class IntervalSet:
    """Sorted interval family with bitmap and weighted-parenthesis search
    structures over the lengths' 2D-Min-Heap."""

    __slots__ = ("a", "b", "lengths", "heap", "bitmap_a", "bitmap_b", "bp_open", "bp_close")

    def __init__(self, a, b, lengths, heap, bitmap_a, bitmap_b, bp_open, bp_close):
        self.a = a
        self.b = b
        self.lengths = lengths
        self.heap = heap
        self.bitmap_a = bitmap_a
        self.bitmap_b = bitmap_b
        self.bp_open = bp_open
        self.bp_close = bp_close

    @property
    def n(self):
        return len(self.a)

    @property
    def domain_max(self):
        return self.b[-1]


def build_intervals(pairs) -> IntervalSet:
    """Validate a family of (a_i, b_i) pairs and build all query structures."""
    a = []
    b = []
    for idx, (ai, bi) in enumerate(pairs, start=1):
        if not (isinstance(ai, int) and isinstance(bi, int)) or ai < 0 or bi < 0:
            raise ValidationError(f"interval {idx}: endpoints must be non-negative integers")
        if ai > bi:
            raise ValidationError(f"interval {idx}: left endpoint {ai} exceeds right endpoint {bi}")
        if a and ai <= a[-1]:
            raise ValidationError(f"interval {idx}: left endpoints not strictly increasing")
        if b and bi <= b[-1]:
            raise ValidationError(f"interval {idx}: right endpoints not strictly increasing")
        a.append(ai)
        b.append(bi)
    if not a:
        raise ValidationError("interval family must not be empty")

    lengths = [bi - ai + 1 for ai, bi in zip(a, b)]
    heap = build_minheap(lengths)

    bitmap_a = EndpointBitmap(a, b[-1])
    bitmap_b = EndpointBitmap(b, b[-1])
    bp_open, bp_close = _weighted_bps(heap.dfuds, a, b)
    return IntervalSet(a, b, lengths, heap, bitmap_a, bitmap_b, bp_open, bp_close)


def _weighted_bps(dfuds, a, b):
    """The BP of the length heap weighted with the left-endpoint gaps, and
    the BP of its reversal weighted with the right-endpoint gaps.

    The DFUDS lists the degrees in preorder; a stack that holds each node's
    depth once per child still to attach gives every depth. In BP the node
    of preorder index v opens at 2v + 1 - depth(v), after depth(v-1) + 1 -
    depth(v) closers (its dual degree), and depth(n) + 1 closers end the
    sequence. The reversed heap's BP is the mirror of the heap's, so its
    i-th closer sits at N + 1 minus the heap's (n+2-i)-th opener.
    """
    degrees = map(len, dfuds.base.to_text()[1:-1].split("0"))
    depths = []
    waiting = [0]
    for d in degrees:
        depth = waiting.pop()
        depths.append(depth)
        waiting += [depth + 1] * d
    bp_text = codec._bp_of_depths(depths)
    n_bits = len(bp_text)
    opens = list(map(sub, range(1, n_bits, 2), depths))

    # The (i+1)-th opener is interval i; its weight is the left-endpoint gap,
    # so the open-weight prefix there equals a_i.
    bp_open = WeightedBits(bp_text, open_weights=dict(zip(opens[1:], map(sub, a, [0] + a))))
    # The reversed BP's i-th closer is interval n+1-i, so the close weights
    # are the right-endpoint gaps reversed, behind the gap to sentinel b_n + 1.
    gaps = list(map(sub, b, [0] + b)) + [1]
    closes = [n_bits + 1 - pos for pos in reversed(opens)]
    bp_close = WeightedBits(codec.mirror_string(bp_text), close_weights=dict(zip(closes, reversed(gaps))))
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
    """Bitmap ranks bound the qualifying index range, then a range-min over
    lengths picks the answer. Two ranks + (2 select + 1 rmq + 1 rank)."""
    _check_query(s, a, b)
    c = counters if counters is not None else OpCounters()
    if strict:
        i_max = s.bitmap_a.rank_leq(a - 1)
        i_min = s.bitmap_b.rank_leq(b) + 1
    else:
        i_max = s.bitmap_a.rank_leq(a)
        i_min = s.bitmap_b.rank_leq(b - 1) + 1
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
