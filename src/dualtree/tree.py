"""Explicit rooted ordered trees, held as their preorder arrays.

OrdinalTree is the ground truth every parenthesis structure is checked
against. A tree is fixed by its preorder and subtree sizes, as BP and DFUDS
show, and it holds the labels in depth-first order and rank-indexed int
arrays of size, depth and parent rank (an O(1) ``parent``). Every
constructor fills those arrays in one pass from the labels and depths in
preorder (``_from_depths``; ``from_children`` walks its map once to list
them) or by arithmetic on other trees' arrays. The label ->
rank dict that every lookup by label reads is made by the first such
lookup and kept, so a tree that is only built, encoded or dualized holds no
per-node container but its preorder. The rest is arithmetic (Navarro,
Compact Data Structures, ch. 8): the children of rank r start at r + 1,
each after the previous one's subtree; a subtree is a slice; a left sibling
is a climb from rank r - 1, O(height) for one node and fewer than n steps
over all nodes. Equal trees have equal labels and sizes.
"""

from array import array
from itertools import islice, repeat
from operator import sub

from .errors import ContractError, ValidationError

PARENT = "parent"
RMC = "rmc"
LMC = "lmc"
ILS = "ils"
IRS = "irs"

_NAV_KINDS = (PARENT, RMC, LMC, ILS, IRS)

_INT = "i"  # typecode of the rank-indexed arrays; C ints hold any rank a process can reach


class OrdinalTree:
    __slots__ = ("root", "_order", "_rank", "_parent", "_depth", "_size")

    def __init__(self, order, parent, depth, size):
        """The tree with preorder ``order`` and, in that order, the parent
        ranks (-1 at the root), depths and sizes; callers make them agree
        and the labels distinct."""
        self.root = order[0]
        self._order = order
        self._rank = None  # label -> rank, made by the first lookup
        self._parent = array(_INT, parent)
        self._depth = array(_INT, depth)
        self._size = array(_INT, size)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_children(cls, root, children):
        """Build from a root label and a label -> ordered child tuple map."""
        order = []
        depths = []
        seen = {root}
        stack = [0, root]  # each label above its depth
        while stack:
            v, d = stack.pop(), stack.pop()
            order.append(v)
            depths.append(d)
            kids = tuple(children.get(v, ()))
            for c in kids:
                if c in seen:
                    # a label repeated in the list is met again here at the latest
                    if len(set(kids)) < len(kids):
                        raise ValidationError(f"node {v!r} has duplicate children")
                    raise ValidationError(f"node {c!r} appears twice (cycle or shared child)")
                seen.add(c)
            d += 1
            for c in reversed(kids):
                stack.append(d)
                stack.append(c)
        extra = set(children).difference(seen)
        if extra:
            raise ValidationError(f"child lists given for unreachable nodes: {sorted(extra, key=repr)}")
        return cls._from_depths(order, depths)

    @classmethod
    def _from_depths(cls, order, depths):
        """The tree with preorder ``order`` whose nodes lie at ``depths``, in
        that order (the depths of a tree: the root's 0, every later one at
        least 1 and at most one more than the one before). A node's parent is
        the latest earlier node one level up; the sizes are summed from the
        last node back."""
        n = len(order)
        parent = [-1] * n
        latest = [0] * n  # the latest node at each depth so far
        for v, d in zip(range(1, n), islice(depths, 1, None)):
            parent[v] = latest[d - 1]
            latest[d] = v
        size = [1] * n
        for v in range(n - 1, 0, -1):
            size[parent[v]] += size[v]
        return cls(order, parent, depths, size)

    def _degrees(self):
        """Child counts of the nodes in preorder."""
        degree = [0] * self.n_nodes
        for p in islice(self._parent, 1, None):
            degree[p] += 1
        return degree

    @classmethod
    def build(cls, parents, child_orders):
        """Build and validate from a parent map plus explicit child orders.

        ``parents`` maps each non-root node to its parent (the root either
        has no entry or maps to None). ``child_orders`` lists the ordered
        children of every node that has any.
        """
        nodes = set(parents) | set(child_orders)
        for kids in child_orders.values():
            nodes.update(kids)
        nodes.update(p for p in parents.values() if p is not None)
        if not nodes:
            raise ValidationError("a tree needs at least one node")
        roots = [v for v in nodes if parents.get(v) is None]
        if not roots:
            raise ValidationError("no root: every node has a parent (cycle)")
        if len(roots) > 1:
            raise ValidationError(f"multiple roots: {sorted(map(repr, roots))}")
        root = roots[0]
        children = {}
        for v in nodes:
            kids = tuple(child_orders.get(v, ()))
            for c in kids:
                if parents.get(c) != v:
                    raise ValidationError(f"node {c!r} listed under {v!r} but its parent entry says {parents.get(c)!r}")
            children[v] = kids
        for c, p in parents.items():
            if p is None:
                continue
            if c not in children.get(p, ()):
                raise ValidationError(f"node {c!r} has parent {p!r} but is missing from its child order")
        # every node has a child list here, so from_children names an
        # unreachable one (a cycle) and a child listed twice
        return cls.from_children(root, children)

    # -- basic accessors ---------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self._order)

    def nodes(self):
        """All labels in depth-first order (root first)."""
        return iter(self._order)

    def has_node(self, v):
        return v in self._ranks()

    def children(self, v):
        r = self._rank_of(v)
        size = self._size
        kids = []
        c = r + 1
        while c < r + size[r]:
            kids.append(self._order[c])
            c += size[c]
        return tuple(kids)

    def parent(self, v):
        p = self._parent[self._rank_of(v)]
        return self._order[p] if p >= 0 else None

    def dft(self, v):
        return self._rank_of(v) + 1

    def node_at(self, rank):
        if not 1 <= rank <= self.n_nodes:
            raise ContractError(f"depth-first rank {rank} outside 1..{self.n_nodes}")
        return self._order[rank - 1]

    def depth(self, v):
        return self._depth[self._rank_of(v)]

    def subtree_size(self, v):
        return self._size[self._rank_of(v)]

    def in_subtree(self, x, v):
        """True when x lies in the subtree hanging off (and including) v."""
        r = self._rank_of(v)
        return r <= self._rank_of(x) < r + self._size[r]

    # -- navigation ----------------------------------------------------------------

    def navigate(self, v, kind):
        """Named relative of v (parent / rmc / lmc / ils / irs), or None.

        parent and irs are O(1), lmc and rmc O(degree). ils climbs from the
        node before v, so one call costs the height of its left sibling's
        subtree, and asking it of every node costs fewer than n steps.
        """
        r = self._rank_of(v)
        parent = self._parent
        p = parent[r]
        if kind in (RMC, LMC):
            kids = self.children(v)
            if not kids:
                return None
            return kids[-1] if kind == RMC else kids[0]
        if kind == IRS:
            # the node after v's subtree is v's right sibling when it has one
            w = r + self._size[r]
            return self._order[w] if w < self.n_nodes and parent[w] == p else None
        if kind == ILS:
            # the node before v is its parent or lies under v's left sibling
            w = r - 1
            while w != p and parent[w] != p:
                w = parent[w]
            return self._order[w] if w != p else None
        if kind == PARENT:
            return self._order[p] if p >= 0 else None
        raise ContractError(f"unknown navigation kind {kind!r}; expected one of {_NAV_KINDS}")

    def first_right(self, v):
        """First node in depth-first order after v's subtree, or None.

        This is the smallest element of the set of nodes right of v, i.e.
        everything outside v's subtree that follows it.
        """
        r = self._rank_of(v)
        if r == 0:
            raise ContractError("the root has no nodes to its right")
        w = r + self._size[r]
        return self._order[w] if w < self.n_nodes else None

    def range_min_depth(self, v1, v2):
        """(minimal depth, rightmost node attaining it) over the closed
        depth-first range [v1, v2]; neither endpoint may be the root."""
        lo = self._rank_of(v1)
        hi = self._rank_of(v2)
        if lo == 0 or hi == 0:
            raise ContractError("range endpoints must not be the root")
        if lo > hi:
            raise ContractError(f"{v1!r} does not precede {v2!r} in depth-first order")
        depths = self._depth[lo:hi + 1]
        best = min(depths)
        return best, self._order[hi - depths[::-1].index(best)]

    def subtree(self, v):
        """A standalone copy of the subtree rooted at v (labels preserved)."""
        r = self._rank_of(v)
        end = r + self._size[r]
        parent = [-1, *map(sub, self._parent[r + 1:end], repeat(r))]
        depth = list(map(sub, self._depth[r:end], repeat(self._depth[r])))
        return OrdinalTree(self._order[r:end], parent, depth, self._size[r:end])

    # -- comparison -------------------------------------------------------------------

    def children_map(self):
        """label -> tuple of its children, for every node (leaves map to ())."""
        order = self._order
        kids = [[] for _ in order]
        for v, p in zip(islice(order, 1, None), islice(self._parent, 1, None)):
            kids[p].append(v)
        return dict(zip(order, map(tuple, kids)))

    def parent_map(self):
        """label -> parent label, for every node but the root."""
        order = self._order
        return dict(zip(islice(order, 1, None), map(order.__getitem__, islice(self._parent, 1, None))))

    def __eq__(self, other):
        # labels in preorder, the root first, and the sizes fix a tree
        return isinstance(other, OrdinalTree) and self._order == other._order and self._size == other._size

    def __hash__(self):
        return hash((self.root, self.n_nodes))

    def __repr__(self):
        return f"OrdinalTree(root={self.root!r}, nodes={self.n_nodes})"

    def _ranks(self):
        """The label -> rank dict, made on the first call and kept."""
        if self._rank is None:
            self._rank = dict(zip(self._order, range(len(self._order))))
        return self._rank

    def _rank_of(self, v):
        try:
            return self._ranks()[v]
        except KeyError:
            raise ContractError(f"unknown node {v!r}") from None
