"""BP and DFUDS codecs plus the mirror (flip-and-reverse) operation.

BP writes one opening parenthesis on entering a node and a closing one on
leaving it. DFUDS writes, per node in depth-first order, one opening
parenthesis per child followed by a single closing one, with an extra
opening parenthesis up front to balance the sequence.

Both encodings are fixed by an OrdinalTree's preorder arrays, and both are
runs of one parenthesis, so the encoders write them one way: a run per
node, mapped lazily over the tree's own array, each distinct run made once
in a ``_Runs`` table, and the whole text made by one join. BP is runs of
closers joined by openers, read off the depths (before each opener come
depth(prev) + 1 - depth(v) closers, and depth(last) + 1 closers end the
text); DFUDS is a leading opener, then per node a run of degree openers
ended by a closer. The decoders read their input, and
``mirror_string`` checks its own, through ``bitseq.text_of``, the one reader
of bit input; they read the depths and hand them to the tree's one
constructor pass. A BP text is checked by its excess, and a node's depth is
the excess just before its opener. A DFUDS is the BP of a tree (the reversed
dual's), so the same check accepts exactly the DFUDS texts; its blocks give
the degrees and the one stack pass their depths, in ``_dfuds_depths``, the one
reader of DFUDS blocks, which ``mliq`` calls too. A decoder's labels are
depth-first ranks, which cannot repeat, and ``tree_from_text`` checks the
labels it reads are distinct, so no decoder makes the tree's label -> rank
map.

Node anchors: in BP a node owns its opening/closing pair. In DFUDS a node is
anchored at the parenthesis preceding its block of child openers — a closing
parenthesis for every non-root node (the i-th closing parenthesis is the
node of depth-first rank i+1) and the leading opening parenthesis for the
root. The NodeParenMap an encoder returns reads these positions off the
tree's arrays on first access: a BP open is 2·dft − depth − 1, its close is
open + 2·size − 1, and the DFUDS closes are the prefix sums of degree + 1,
starting at 1.
"""

from array import array
from itertools import accumulate, chain, compress, islice
from operator import add, sub

from .bitseq import text_of
from .errors import ParseError, ValidationError
from .parens import _DIGIT_TO_PAREN, ParenSeq
from .tree import OrdinalTree

BP = "bp"
DFUDS = "dfuds"

_FLIP = str.maketrans("()01", ")(10")
_OPENERS = bytes.maketrans(b"01", b"\0\1")  # 0/1 text -> its openers as 0/1 bytes
_STEPS = bytes.maketrans(b"01", b"\xff\x01")  # '0' -> -1, '1' -> +1 as signed bytes


class NodeParenMap:
    """Positions of each node's parentheses and its depth-first rank.

    ``dft`` maps label -> 1-based depth-first rank; ``open_pos`` (BP only,
    None for DFUDS) label -> opening position; ``close_pos`` label -> closing
    position in BP, non-root label -> anchor close in DFUDS. Each table is
    built from the tree on first access.
    """

    __slots__ = ("kind", "_tree", "_dft", "_open", "_close")

    def __init__(self, kind, tree):
        self.kind = kind
        self._tree = tree
        self._dft = self._open = self._close = None

    @property
    def dft(self):
        if self._dft is None:
            t = self._tree
            self._dft = dict(zip(t._order, range(1, t.n_nodes + 1)))
        return self._dft

    @property
    def open_pos(self):
        if self.kind != BP:
            return None
        if self._open is None:
            t = self._tree
            self._open = dict(zip(t._order, map(sub, range(1, 2 * t.n_nodes, 2), t._depth)))
        return self._open

    @property
    def close_pos(self):
        if self._close is None:
            t = self._tree
            if self.kind == BP:
                ends = map(add, range(t.n_nodes), t._size)  # rank after each subtree
                self._close = dict(zip(t._order, map(sub, map((2).__mul__, ends), t._depth)))
            else:
                closes = islice(accumulate(map((1).__add__, t._degrees()), initial=1), 1, None)
                self._close = dict(zip(islice(t._order, 1, None), closes))
        return self._close

    def anchor(self, v):
        """The position identified with node v."""
        if self.kind == BP:
            return self.open_pos[v]
        return 1 if v == self._tree.root else self.close_pos[v]

    def __eq__(self, other):
        return (
            isinstance(other, NodeParenMap)
            and (self.kind, self.dft, self.open_pos, self.close_pos)
            == (other.kind, other.dft, other.open_pos, other.close_pos)
        )

    __hash__ = None


def bp_encode(t: OrdinalTree):
    """Balanced-parenthesis encoding; length is twice the node count."""
    return ParenSeq(_bp_of_depths(t._depth)), NodeParenMap(BP, t)


def dfuds_encode(t: OrdinalTree):
    """Unary-degree encoding; leading opener, then per node d opens + one close."""
    return ParenSeq(_dfuds_of_degrees(t._degrees())), NodeParenMap(DFUDS, t)


def bp_decode(p) -> OrdinalTree:
    """Inverse of bp_encode up to relabeling; labels are depth-first ranks."""
    depths = _bp_depths(text_of(p))
    return OrdinalTree._from_depths(list(range(1, len(depths) + 1)), depths)


def dfuds_decode(p) -> OrdinalTree:
    """Inverse of dfuds_encode up to relabeling; labels are depth-first ranks."""
    return _dfuds_tree(text_of(p), 1)


def mirror(p: ParenSeq) -> ParenSeq:
    """Reverse the sequence and flip every parenthesis."""
    return ParenSeq(p.to_text()[::-1].translate(_FLIP))


def mirror_string(s: str) -> str:
    """``mirror`` on a parenthesis or 0/1 string, kept as text; ``text_of``
    checks its characters."""
    text_of(s)
    return s[::-1].translate(_FLIP)


def tree_to_text(t: OrdinalTree) -> str:
    """Two-line text form: BP string, then node labels in depth-first order.
    ValidationError names the first label whose ``str`` would not read back:
    empty, holding whitespace, or equal to an earlier label's."""
    labels = list(map(str, t._order))
    line = " ".join(labels)
    # distinct ints always write distinct, clean strings; the generic check
    # would cost about half as much again as the rest of the write
    if set(map(type, t._order)) != {int} and (line.split() != labels or len(set(labels)) < len(labels)):
        seen = set()
        for v, s in zip(t._order, labels):
            if s.split() != [s]:
                raise ValidationError(f"label {v!r} cannot be written as text: {s!r} is empty or holds whitespace")
            if s in seen:
                raise ValidationError(f"label {v!r} cannot be written as text: an earlier label is also written {s!r}")
            seen.add(s)
    return _bp_of_depths(t._depth).translate(_DIGIT_TO_PAREN) + "\n" + line + "\n"


def tree_from_text(text: str) -> OrdinalTree:
    """Inverse of tree_to_text. Without a label line, labels are depth-first
    ranks; with one, labels are the whitespace-separated strings. Blank
    lines are skipped, and text after the label line is a ParseError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("no parenthesis line", 1)
    if len(lines) > 2:
        raise ParseError("text after the label line")
    if len(lines) == 1:
        return bp_decode(lines[0].strip())
    depths = _bp_depths(text_of(lines[0].strip()))
    n = len(depths)
    labels = lines[1].split()
    if len(labels) != n:
        raise ParseError(f"label line has {len(labels)} entries for {n} nodes")
    if len(set(labels)) != n:
        raise ParseError("labels are not unique")
    return OrdinalTree._from_depths(labels, depths)


# -- text of the encodings -------------------------------------------------------


class _Runs(dict):
    """The run ``make(k)`` of each key k, made the first time k is met: once
    per distinct key, not once per node (a tree of n nodes has fewer than
    sqrt(2n) + 1 distinct degrees, and as few distinct depth drops)."""

    def __init__(self, make):
        self._make = make

    def __missing__(self, k):
        self[k] = run = self._make(k)
        return run


def _bp_of_depths(depths):
    """BP as 0/1 text of the tree whose preorder depths are ``depths``:
    before each opener come depth(previous) + 1 - depth closers, and
    depth(last) + 1 closers end the text."""
    drops = map(sub, chain((-1,), depths), chain(depths, (0,)))
    return "1".join(map(_Runs(lambda d: "0" * (d + 1)).__getitem__, drops))


def _dfuds_of_degrees(degrees):
    """DFUDS as 0/1 text of the tree whose preorder degrees are ``degrees``:
    a leading opener, then per node its degree's openers and a closer."""
    return "".join(chain("1", map(_Runs(lambda d: "1" * d + "0").__getitem__, degrees)))


# -- decoding --------------------------------------------------------------------


def _check_bp(text):
    """The excess before each position of ``text`` and after its last, or
    ParseError at the first position where ``text`` stops being the BP of
    one tree: its excess must stay positive until the last position, where
    it reaches zero."""
    if not text:
        raise ParseError("empty sequence", 1)
    if text[0] == "0":
        raise ParseError("closing parenthesis without a match", 1)
    exc = list(accumulate(array("b", text.encode("ascii").translate(_STEPS)), initial=0))
    try:
        closed = exc.index(0, 1)  # just after the root's closer
    except ValueError:
        raise ParseError(f"{exc[-1]} opening parentheses left unmatched", len(text)) from None
    if closed < len(text):
        if text[closed] == "1":
            raise ParseError("second tree starts after the first closed", closed + 1)
        raise ParseError("closing parenthesis without a match", closed + 1)
    return exc


def _bp_depths(text):
    """The depths in preorder of the nodes of the BP ``text``, which
    ``_check_bp`` checks: a node's depth is the excess just before its
    opener. The excesses are dropped on return, before the tree's arrays are
    made."""
    return list(compress(_check_bp(text), text.encode("ascii").translate(_OPENERS)))


def _dfuds_tree(text, first):
    """The tree of a DFUDS text whose nodes in preorder are labelled
    ``first``, ``first + 1``, ... A DFUDS is the BP of a tree (the reversed
    dual's), so ``_check_bp`` checks it."""
    _check_bp(text)
    depths = _dfuds_depths(text)
    return OrdinalTree._from_depths(list(range(first, first + len(depths))), depths)


def _dfuds_depths(text):
    """The depths in preorder of the nodes of a DFUDS text, taken as valid:
    its blocks list the degrees in preorder, and one stack pass makes them
    depths. The one reader of DFUDS blocks, for the decoder here and the
    weighted positions of ``mliq``."""
    depths = []
    waiting = [0]  # a node's depth + 1 once per child still to attach
    pop, put, wait = waiting.pop, depths.append, waiting.extend
    for d in map(len, text[1:-1].split("0")):
        depth = pop()
        put(depth)
        if d:
            wait([depth + 1] * d)
    return depths
