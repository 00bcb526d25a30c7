"""2D-Min-Heaps: the ordinal tree of an array under nearest-smaller-to-the-left.

Position m+1 attaches as the rightmost child of the rightmost earlier
position whose value is <= the new one, falling back to a sentinel root.
Depth-first order of the resulting tree coincides with array order, which is
what lets parenthesis positions stand in for array indices.

Ties attach to the *rightmost* qualifying predecessor (non-strict rule), so
every range-minimum engine over the heap reports the leftmost minimum.

Because preorder is array order, the DFUDS of the heap is fixed by the node
degrees alone, and one stack pass over the array writes it (Fischer & Heun,
SIAM J. Comput. 40(2), 2011). The pass runs right to left and keeps only the
values still waiting for a parent, largest on top: every pending value >= the
current one has the current position as its nearest earlier smaller-or-equal
position, so the number popped there is that position's degree, and what is
left pending at the end hangs from the root. Each pop writes a '1' and each
position then a '0', so the pass writes the DFUDS back to front, and it
holds nothing per element but the pending values and the text written so
far. ``heap_dfuds`` runs the pass and reverses its bytes, the one writer of
the DFUDS for ``build_minheap``, an array blob's load and the interval
index. The index stores that bit sequence and nothing else besides the
values; the explicit tree is decoded from it on first use. The interval
index's heap of lengths holds the bit sequence alone: its values are a
function of the endpoints, which the pass reads once, as they come.

The values are held as an ``array('q')`` when every one is an int within
signed 64 bits, and as a list otherwise (floats, strings, larger ints), so
an index of integers takes fixed bytes per value. The stack pass runs over
the values as given, before they are converted: iterating the array would
make a new int for every value that waits on the stack.
"""

from array import array
from itertools import compress, count, islice
from operator import ne

from . import codec, duality
from .errors import ContractError
from .parens import ParenSeq

ROOT_LABEL = 0


class MinHeapIndex:
    """An array together with the DFUDS of its heap tree.

    The single stored bit sequence is the DFUDS of the heap tree, which is
    simultaneously the BP of its reversed dual; all engines share it. Node
    labels are array positions with the root 0, so a node's depth-first rank
    is its label plus one and the engines need no explicit tree. ``values``
    is an ``array('q')`` for signed 64-bit ints and a list otherwise, or
    None for a heap that holds its DFUDS alone (the interval index's).
    ``n`` is read off the DFUDS, whose 2(n + 1) bits describe n + 1 nodes.
    """

    __slots__ = ("values", "dfuds", "n", "_tree")

    root = ROOT_LABEL

    def __init__(self, values, dfuds):
        self.values = values
        self.dfuds = dfuds
        self.n = dfuds.n // 2 - 1
        self._tree = None

    @property
    def tree(self):
        """The heap as an OrdinalTree, decoded from the DFUDS on first use."""
        if self._tree is None:
            self._tree = codec._dfuds_tree(self.dfuds.to_text(), ROOT_LABEL)
        return self._tree

    def value(self, i):
        """The value at array position i; ContractError for a heap that
        holds no values."""
        if self.values is None:
            raise ContractError("the heap holds no values")
        return self.values[self.node_of(i) - 1]

    def dft(self, v):
        """Depth-first rank of node v."""
        return v + 1

    def node_at(self, rank):
        """Node of depth-first rank ``rank``."""
        return rank - 1

    def node_of(self, i):
        """Tree node for array position i (labels are the positions)."""
        if not 1 <= i <= self.n:
            raise ContractError(f"position {i} outside 1..{self.n}")
        return i

    def index_of(self, node):
        if node == ROOT_LABEL:
            raise ContractError("the sentinel root maps to no array position")
        return node


def build_minheap(values) -> MinHeapIndex:
    """Build the heap index for a non-empty array of comparable values. The
    index holds a copy: an ``array('q')`` if every value is a signed 64-bit
    int, else a list. A value not equal to itself, such as a float NaN,
    orders against no other, so it is a ContractError, and so is a pair of
    values whose comparison raises."""
    if not isinstance(values, (list, array)):
        values = list(values)
    if not values:
        raise ContractError("array must hold at least one element")
    try:
        dfuds = heap_dfuds(reversed(values))
    except (TypeError, ArithmeticError) as exc:  # decimal.InvalidOperation is an ArithmeticError
        raise _not_self_equal(values) or ContractError(f"values do not order: {type(exc).__name__}: {exc}") from exc
    held = held_values(values)
    if type(held) is list and (error := _not_self_equal(held)):
        raise error
    return MinHeapIndex(held, dfuds)


def _not_self_equal(values):
    """The ContractError naming the first value not equal to itself, or None."""
    i = next(compress(count(1), map(ne, values, values)), 0)
    return ContractError(f"value at position {i} is not equal to itself: {values[i - 1]!r}") if i else None


def held_values(values):
    """``values`` as an index holds them: an ``array('q')`` if every value is
    a signed 64-bit int, else a list."""
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return list(values)


def heap_dfuds(values_from_the_right) -> ParenSeq:
    """The DFUDS of the heap of the values that ``values_from_the_right``
    yields, last to first. The stack pass reads each value once, so none
    need be held, and writes the DFUDS reversed into one bytearray, which is
    reversed in place and freed once decoded."""
    text = _reversed_dfuds(values_from_the_right)
    text.reverse()
    text = text.decode("ascii")
    return ParenSeq(text)


def _reversed_dfuds(values):
    """The heap's DFUDS back to front as ASCII bytes, written by the stack
    pass over the values that ``values`` yields last to first: the last
    node's '0' first, then per value a '1' for each pending value it pops
    and the '0' of the node before it, and last the root's '1's and the
    balancing '1'."""
    out = bytearray(b"0")
    put = out.append
    pending = []  # values still waiting for a parent, increasing to the top
    pop, push = pending.pop, pending.append
    for val in values:
        while pending and pending[-1] >= val:
            pop()
            put(49)  # '1'
        put(48)  # '0'
        push(val)
    root_degree = len(pending)
    pending.clear()
    out += b"1" * (root_degree + 1)
    return out


def reversal_dual_check(values) -> bool:
    """Whether the dual of the heap equals the heap of the reversed array,
    identifying position i with position n-i+1. Requires distinct values."""
    values = list(values)
    srt = sorted(values)
    if any(srt[k] == srt[k + 1] for k in range(len(srt) - 1)):
        raise ContractError("values must be distinct")
    n = len(values)
    d = duality.dual(build_minheap(values).tree)
    # two trees are equal when their labels in preorder and their sizes are
    mirrored = [ROOT_LABEL, *map((n + 1).__sub__, islice(d._order, 1, None))]
    heap = build_minheap(values[::-1]).tree
    return mirrored == heap._order and d._size == heap._size
