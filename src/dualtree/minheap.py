"""2D-Min-Heaps: the ordinal tree of an array under nearest-smaller-to-the-left.

Position m+1 attaches as the rightmost child of the rightmost earlier
position whose value is <= the new one, falling back to a sentinel root.
Depth-first order of the resulting tree coincides with array order, which is
what lets parenthesis positions stand in for array indices.

Ties attach to the *rightmost* qualifying predecessor (non-strict rule), so
every range-minimum engine over the heap reports the leftmost minimum.

Because preorder is array order, the DFUDS of the heap is fixed by the node
degrees alone, and one stack pass over the array counts them (Fischer & Heun,
SIAM J. Comput. 40(2), 2011). The pass runs right to left and keeps only the
values still waiting for a parent, largest on top: every pending value >= the
current one has the current position as its nearest earlier smaller-or-equal
position, so the number popped there is that position's degree, and what is
left pending at the end hangs from the root. It holds nothing per element
but the pending values and the text written so far. ``heap_dfuds`` runs the
pass and writes the DFUDS, the one writer of it for ``build_minheap``, an
array blob's load and the interval index. The index stores that bit
sequence and nothing else besides the values; the explicit tree is decoded
from it on first use. The interval index's heap of lengths holds the bit
sequence alone: its values are a function of the endpoints, which the pass
reads once, as they come.

The values are held as an ``array('q')`` when every one is an int within
signed 64 bits, and as a list otherwise (floats, strings, larger ints), so
an index of integers takes fixed bytes per value. The degree pass runs over
the values as given, before they are converted: iterating the array would
make a new int for every value that waits on the stack.
"""

from array import array
from itertools import islice

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
    int, else a list."""
    if not isinstance(values, (list, array)):
        values = list(values)
    if not values:
        raise ContractError("array must hold at least one element")
    dfuds = heap_dfuds(reversed(values))
    return MinHeapIndex(held_values(values), dfuds)


def held_values(values):
    """``values`` as an index holds them: an ``array('q')`` if every value is
    a signed 64-bit int, else a list."""
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return list(values)


def heap_dfuds(values_from_the_right) -> ParenSeq:
    """The DFUDS of the heap of the values that ``values_from_the_right``
    yields, last to first, by the degree pass, which reads each value once,
    so none need be held. Each degree is written into the text as the pass
    yields it (``codec._dfuds_of_reversed_degrees``), so no degree list is
    held either."""
    return ParenSeq(codec._dfuds_of_reversed_degrees(_degrees_from_the_right(values_from_the_right)))


def _degrees_from_the_right(values):
    """The heap's degrees in reverse preorder, the root's last, yielded by
    the degree pass over the values that ``values`` yields last to first."""
    pending = []  # values still waiting for a parent, increasing to the top
    pop, push = pending.pop, pending.append
    for val in values:
        d = 0
        while pending and pending[-1] >= val:
            pop()
            d += 1
        yield d
        push(val)
    yield len(pending)


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
