"""BP and DFUDS codecs plus the mirror (flip-and-reverse) operation.

BP writes one opening parenthesis on entering a node and a closing one on
leaving it. DFUDS writes, per node in depth-first order, one opening
parenthesis per child followed by a single closing one, with an extra
opening parenthesis up front to balance the sequence.

Node anchors: in BP a node owns its opening/closing pair. In DFUDS a node is
anchored at the parenthesis preceding its block of child openers — a closing
parenthesis for every non-root node (the i-th closing parenthesis is the
node of depth-first rank i+1) and the leading opening parenthesis for the
root.
"""

import re
from dataclasses import dataclass

from .errors import ParseError
from .parens import ParenSeq
from .tree import OrdinalTree

BP = "bp"
DFUDS = "dfuds"

_FLIP = str.maketrans("()01", ")(10")
_NOT_PAREN = re.compile(r"[^()01]")


@dataclass(frozen=True)
class NodeParenMap:
    """Positions of each node's parentheses and its depth-first rank."""

    kind: str
    dft: dict  # label -> 1-based depth-first rank
    open_pos: dict | None  # BP only: label -> opening position
    close_pos: dict  # BP: label -> closing position; DFUDS: non-root label -> anchor close

    def anchor(self, v):
        """The position identified with node v."""
        if self.kind == BP:
            return self.open_pos[v]
        return 1 if self.dft[v] == 1 else self.close_pos[v]


def bp_encode(t: OrdinalTree):
    """Balanced-parenthesis encoding; length is twice the node count."""
    bits = []
    open_pos = {}
    close_pos = {}
    dft = {}
    stack = [(t.root, False)]
    while stack:
        v, leaving = stack.pop()
        if leaving:
            bits.append(0)
            close_pos[v] = len(bits)
            continue
        bits.append(1)
        open_pos[v] = len(bits)
        dft[v] = len(dft) + 1
        stack.append((v, True))
        for c in reversed(t.children(v)):
            stack.append((c, False))
    return ParenSeq(bits), NodeParenMap(BP, dft, open_pos, close_pos)


def dfuds_encode(t: OrdinalTree):
    """Unary-degree encoding; leading opener, then per node d opens + one close."""
    bits = [1]
    close_pos = {}
    dft = {}
    stack = [t.root]
    while stack:
        v = stack.pop()
        dft[v] = len(dft) + 1
        if dft[v] > 1:
            close_pos[v] = len(bits)  # the close ending the previous block
        bits.extend([1] * len(t.children(v)))
        bits.append(0)
        for c in reversed(t.children(v)):
            stack.append(c)
    return ParenSeq(bits), NodeParenMap(DFUDS, dft, None, close_pos)


def bp_decode(p) -> OrdinalTree:
    """Inverse of bp_encode up to relabeling; labels are depth-first ranks."""
    bits = _as_bits(p)
    children = {}
    stack = []
    count = 0
    for x, b in enumerate(bits, start=1):
        if b:
            count += 1
            children[count] = []
            if stack:
                children[stack[-1]].append(count)
            elif count > 1:
                raise ParseError("second tree starts after the first closed", x)
            stack.append(count)
        else:
            if not stack:
                raise ParseError("closing parenthesis without a match", x)
            stack.pop()
    if stack:
        raise ParseError(f"{len(stack)} opening parentheses left unmatched", len(bits))
    if count == 0:
        raise ParseError("empty sequence", 1)
    return OrdinalTree.from_children(1, {v: tuple(k) for v, k in children.items()})


def dfuds_decode(p) -> OrdinalTree:
    """Inverse of dfuds_encode up to relabeling; labels are depth-first ranks."""
    bits = _as_bits(p)
    if not bits:
        raise ParseError("empty sequence", 1)
    if bits[0] != 1:
        raise ParseError("must start with the balancing opening parenthesis", 1)
    children = {}
    pending = []  # (node, remaining children), top has remaining > 0
    x = 1
    node = 0
    total = len(bits)
    while x < total:
        node += 1
        if node > 1:
            if not pending:
                raise ParseError("block starts after all children were attached", x + 1)
            parent = pending[-1][0]
            children[parent].append(node)
            pending[-1][1] -= 1
            if pending[-1][1] == 0:
                pending.pop()
        degree = 0
        while x < total and bits[x] == 1:
            degree += 1
            x += 1
        if x == total:
            raise ParseError("degree block not terminated by a closing parenthesis", x)
        x += 1  # consume the close
        children[node] = []
        if degree:
            pending.append([node, degree])
    if pending:
        raise ParseError("children promised but sequence ended", total)
    if node == 0:
        raise ParseError("no nodes encoded", 1)
    return OrdinalTree.from_children(1, {v: tuple(k) for v, k in children.items()})


def mirror(p: ParenSeq) -> ParenSeq:
    """Reverse the sequence and flip every parenthesis."""
    return ParenSeq(p.base.to_text()[::-1].translate(_FLIP))


def mirror_string(s: str) -> str:
    """``mirror`` on a parenthesis or 0/1 string, kept as text."""
    bad = _NOT_PAREN.search(s)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1)
    return s[::-1].translate(_FLIP)


def tree_to_text(t: OrdinalTree) -> str:
    """Two-line text form: BP string, then node labels in depth-first order."""
    p, _ = bp_encode(t)
    labels = " ".join(str(v) for v in t.nodes())
    return p.to_string() + "\n" + labels + "\n"


def tree_from_text(text: str) -> OrdinalTree:
    """Inverse of tree_to_text. Without a label line, labels are depth-first
    ranks; with one, labels are the whitespace-separated strings."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("no parenthesis line", 1)
    t = bp_decode(lines[0].strip())
    if len(lines) == 1:
        return t
    labels = lines[1].split()
    if len(labels) != t.n_nodes:
        raise ParseError(f"label line has {len(labels)} entries for {t.n_nodes} nodes")
    relabel = dict(zip(t.nodes(), labels))
    if len(set(labels)) != len(labels):
        raise ParseError("labels are not unique")
    children = {relabel[v]: tuple(relabel[c] for c in t.children(v)) for v in t.nodes()}
    return OrdinalTree.from_children(relabel[t.root], children)


def _as_bits(p):
    if isinstance(p, ParenSeq):
        return list(p.base.iter_bits())
    if isinstance(p, str):
        out = []
        for x, c in enumerate(p, start=1):
            if c in "(1":
                out.append(1)
            elif c in ")0":
                out.append(0)
            else:
                raise ParseError(f"unexpected character {c!r}", x)
        return out
    return list(p)
