"""The dict-based ordered tree that ``OrdinalTree`` replaced, kept as the
oracle for the preorder-array form.

``DictTree`` holds six per-node maps (child tuples, parent, depth-first
rank and its inverse, depth, subtree size) and answers every accessor from
them. Beside it are the constructions that worked on those maps: the
one-pass dual and reversed dual, the reversal, and the stack decoders of BP
and DFUDS text. The tests in ``test_tree_oracle.py`` hold the array form to
all of them.
"""

from bisect import bisect_left

from dualtree.errors import ContractError, ValidationError
from dualtree.tree import _NAV_KINDS, ILS, IRS, LMC, PARENT, RMC


class DictTree:
    __slots__ = ("root", "_children", "_parent", "_dft", "_by_dft", "_depth", "_size")

    def __init__(self, root, children, parent):
        self.root = root
        self._children = children
        self._parent = parent
        self._index()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_children(cls, root, children):
        """Build from a root label and a label -> ordered child tuple map."""
        norm = {}
        parent = {}
        seen = {root}
        stack = [root]
        while stack:  # in preorder, so of two faults the one met first is named
            v = stack.pop()
            kids = tuple(children.get(v, ()))
            if len(set(kids)) != len(kids):
                raise ValidationError(f"node {v!r} has duplicate children")
            norm[v] = kids
            for c in kids:
                if c in seen:
                    raise ValidationError(f"node {c!r} appears twice (cycle or shared child)")
                seen.add(c)
                parent[c] = v
            stack.extend(reversed(kids))
        extra = set(children) - set(norm)
        if extra:
            raise ValidationError(f"child lists given for unreachable nodes: {sorted(extra, key=repr)}")
        return cls(root, norm, parent)

    def _index(self):
        dft = {}
        depth = {self.root: 0}
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            dft[v] = len(order)
            d = depth[v] + 1
            for c in reversed(self._children[v]):
                depth[c] = d
                stack.append(c)
        self._dft = dft
        self._by_dft = order
        self._depth = depth
        size = dict.fromkeys(order, 1)
        for v in reversed(order):
            if v != self.root:
                size[self._parent[v]] += size[v]
        self._size = size

    # -- basic accessors ---------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self._by_dft)

    def nodes(self):
        """All labels in depth-first order (root first)."""
        return iter(self._by_dft)

    def has_node(self, v):
        return v in self._dft

    def children(self, v):
        self._check_node(v)
        return self._children[v]

    def parent(self, v):
        self._check_node(v)
        return self._parent.get(v)

    def dft(self, v):
        self._check_node(v)
        return self._dft[v]

    def node_at(self, rank):
        if not 1 <= rank <= self.n_nodes:
            raise ContractError(f"depth-first rank {rank} outside 1..{self.n_nodes}")
        return self._by_dft[rank - 1]

    def depth(self, v):
        self._check_node(v)
        return self._depth[v]

    def subtree_size(self, v):
        self._check_node(v)
        return self._size[v]

    def in_subtree(self, x, v):
        """True when x lies in the subtree hanging off (and including) v."""
        dv = self.dft(v)
        return dv <= self.dft(x) < dv + self._size[v]

    # -- navigation ----------------------------------------------------------------

    def navigate(self, v, kind):
        """Named relative of v (parent / rmc / lmc / ils / irs), or None."""
        self._check_node(v)
        if kind == PARENT:
            return self._parent.get(v)
        if kind in (RMC, LMC):
            kids = self._children[v]
            if not kids:
                return None
            return kids[-1] if kind == RMC else kids[0]
        if kind in (ILS, IRS):
            p = self._parent.get(v)
            if p is None:
                return None
            if kind == IRS:
                # the node after v's subtree is v's right sibling when it has one
                w = self.first_right(v)
                return w if w is not None and self._parent[w] == p else None
            # siblings are in ascending depth-first order
            sibs = self._children[p]
            k = bisect_left(sibs, self._dft[v], key=self._dft.__getitem__)
            return sibs[k - 1] if k else None
        raise ContractError(f"unknown navigation kind {kind!r}; expected one of {_NAV_KINDS}")

    def first_right(self, v):
        """First node in depth-first order after v's subtree, or None.

        This is the smallest element of the set of nodes right of v, i.e.
        everything outside v's subtree that follows it.
        """
        self._check_node(v)
        if v == self.root:
            raise ContractError("the root has no nodes to its right")
        nxt = self._dft[v] + self._size[v]
        return self._by_dft[nxt - 1] if nxt <= self.n_nodes else None

    def range_min_depth(self, v1, v2):
        """(minimal depth, rightmost node attaining it) over the closed
        depth-first range [v1, v2]; neither endpoint may be the root."""
        self._check_node(v1)
        self._check_node(v2)
        if v1 == self.root or v2 == self.root:
            raise ContractError("range endpoints must not be the root")
        lo, hi = self._dft[v1], self._dft[v2]
        if lo > hi:
            raise ContractError(f"{v1!r} does not precede {v2!r} in depth-first order")
        best = None
        best_d = None
        for rank in range(lo, hi + 1):
            x = self._by_dft[rank - 1]
            d = self._depth[x]
            if best_d is None or d <= best_d:
                best_d = d
                best = x
        return best_d, best

    def subtree(self, v):
        """A standalone copy of the subtree rooted at v (labels preserved)."""
        self._check_node(v)
        children = {}
        stack = [v]
        while stack:
            x = stack.pop()
            children[x] = self._children[x]
            stack.extend(self._children[x])
        return DictTree.from_children(v, children)

    # -- comparison -------------------------------------------------------------------

    def children_map(self):
        return dict(self._children)

    def parent_map(self):
        return dict(self._parent)

    def __eq__(self, other):
        return (
            isinstance(other, DictTree)
            and self.root == other.root
            and self._children == other._children
        )

    def __hash__(self):
        return hash((self.root, self.n_nodes))

    def __repr__(self):
        return f"DictTree(root={self.root!r}, nodes={self.n_nodes})"

    def _check_node(self, v):
        if v not in self._dft:
            raise ContractError(f"unknown node {v!r}")


def dual(t):
    return _dual_pass(t, descending=True)


def reversed_dual(t):
    return _dual_pass(t, descending=False)


def _dual_pass(t, descending):
    # node k of the preorder has its dual parent at k + size, the root past the end
    order = t._by_dft
    size = t._size
    n = len(order)
    at = order + [t.root]
    parent = {}
    kids = {v: [] for v in order}
    for k in range(n - 1, 0, -1) if descending else range(1, n):
        v = order[k]
        p = parent[v] = at[k + size[v]]
        kids[p].append(v)
    return DictTree(t.root, {v: tuple(c) for v, c in kids.items()}, parent)


def reverse(t):
    return DictTree(t.root, {v: kids[::-1] for v, kids in t._children.items()}, t._parent)


def bp_tree(text, labels):
    """The tree of a well-formed BP 0/1 text whose nodes in preorder are ``labels``."""
    root = labels[0]
    kids = {v: [] for v in labels}
    parent = {}
    stack = [root]
    closers = map(len, text.split("1"))
    next(closers)
    for v, k in zip(labels[1:], closers):
        if k:
            del stack[-k:]
        parent[v] = p = stack[-1]
        kids[p].append(v)
        stack.append(v)
    return DictTree(root, {v: tuple(c) for v, c in kids.items()}, parent)


def dfuds_tree(text, first):
    """The tree of a well-formed DFUDS 0/1 text, nodes labelled from ``first`` in preorder."""
    degrees = list(map(len, text[1:].split("0")[:-1]))
    labels = list(range(first, first + len(degrees)))
    kids = {v: [] for v in labels}
    parent = {}
    waiting = [first] * degrees[0]
    for v, d in zip(labels[1:], degrees[1:]):
        parent[v] = p = waiting.pop()
        kids[p].append(v)
        waiting += [v] * d
    return DictTree(first, {v: tuple(c) for v, c in kids.items()}, parent)
