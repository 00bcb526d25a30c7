"""Tree duality: the dual, reversed and reversed-dual constructions, the
primal-dual ancestor, and the joining algebra used to decompose duals.

The dual exchanges parent/sibling and left/right roles: the dual parent of a
non-root node is the first node after its subtree in depth-first order (the
root when none follows), and dual siblings come in descending depth-first
order, so the dual's preorder is the root and then the other nodes in
reverse. BP of the dual is the reversed DFUDS of the primal, so ``dual``
reads each of its arrays off the primal's sizes, parents and degrees by
arithmetic, with no pass over a stack. ``reverse`` permutes the primal's
arrays: a node keeps its depth and size and moves to its mirrored rank.
``join`` and ``root_prepend`` are arithmetic on the preorder arrays too.
``reversed_dual`` lists the nodes in its preorder with the depths they have
in the dual, which reversing keeps (a node's dual depth is the count of
children the DFUDS still awaits before the node's block), and the tree
fills its arrays from those. The reversed dual's preorder is the root, then
each node's children right to left, taking the nodes in the primal's
preorder, which is why its BP is the primal's DFUDS; it is built in that one
pass, and ``reverse(dual(t))`` stays as its oracle in verify and the tests.
Two independent constructions of the dual stay as oracles:
``_dual_by_rules`` (whose certificate ``dual_certified`` returns) and
``_dual_by_right_neighbour``; verify and the tests check all three agree.
"""

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import add, sub

from .errors import ContractError
from .tree import OrdinalTree

RULE_1B = "1b"
RULE_2 = "2"
RULE_3 = "3"


@dataclass(frozen=True)
class DualityCertificate:
    """Dual tree together with the rule that attached each non-root node."""

    original: OrdinalTree
    transformed: OrdinalTree
    rules: dict  # non-root label -> RULE_1B | RULE_2 | RULE_3


def dual(t: OrdinalTree) -> OrdinalTree:
    """The dual tree; same node set, parenthood and sibling order exchanged."""
    # Primal rank k > 0 has dual rank n - k. Its dual parent is the node
    # after its subtree, k + size(k), the root when that is n; its dual
    # subtree is itself and its left siblings with their subtrees, the ranks
    # parent(k) + 1 .. k; its dual depth is the count of children the DFUDS
    # still awaits before k, 1 + the sum of degree - 1 over the ranks before.
    n = t.n_nodes
    order = t._order
    awaited = _awaited(t)
    return OrdinalTree(order[:1] + order[:0:-1],
                       [-1, *map(sub, range(1, n), t._size[:0:-1])],
                       [0, *awaited[n - 1:0:-1]],
                       [n, *map(sub, range(n - 1, 0, -1), t._parent[:0:-1])])


def reversed_dual(t: OrdinalTree) -> OrdinalTree:
    """reverse(dual(t)), built in one pass: the tree whose BP encoding
    equals DFUDS of t."""
    # Its preorder is the root, then each node's children right to left,
    # taking the nodes in t's preorder: the other ranks, last first, stably
    # sorted by parent. Reversing keeps the dual's depths.
    order = t._order
    awaited = _awaited(t)
    at = sorted(range(t.n_nodes - 1, 0, -1), key=t._parent.tolist().__getitem__)
    return OrdinalTree._from_depths([order[0], *map(order.__getitem__, at)], [0, *map(awaited.__getitem__, at)])


def _awaited(t: OrdinalTree) -> list:
    """By rank, and once more at the end, the count of children the DFUDS of
    t still awaits before the rank's block: 1 + the sum of degree - 1 over
    the ranks before. For rank k > 0 it is k's depth in the dual."""
    return list(accumulate(map((-1).__add__, t._degrees()), initial=1))


def dual_certified(t: OrdinalTree) -> DualityCertificate:
    """The dual built from the local attachment rules, with the rule that
    attached each non-root node."""
    by_rules, rules = _dual_by_rules(t)
    return DualityCertificate(t, by_rules, rules)


def _dual_by_rules(t: OrdinalTree):
    # Rightmost child in the dual: for the root its own rightmost child,
    # for any other node its immediate left sibling. Walking rmc links of
    # the original extends each dual child list leftwards.
    rules = {}
    root = t.root
    for v in t.nodes():
        if v == root:
            continue
        irs = t.navigate(v, "irs")
        p = t.parent(v)
        # a rightmost child's subtree ends where its parent's does
        is_rmc = t.dft(v) + t.subtree_size(v) == t.dft(p) + t.subtree_size(p)
        if irs is not None:
            rules[v] = RULE_3
        elif p == root:
            rules[v] = RULE_1B
        else:
            rules[v] = RULE_2
        if (irs is not None) == is_rmc:
            raise AssertionError(f"node {v!r} must be a rightmost child xor have a right sibling")

    children = {}
    for w in t.nodes():
        if w == root:
            rightmost = t.navigate(root, "rmc")
        else:
            rightmost = t.navigate(w, "ils")
        chain = []
        x = rightmost
        while x is not None:
            chain.append(x)
            x = t.navigate(x, "rmc")
        children[w] = tuple(reversed(chain))
    return OrdinalTree.from_children(root, children), rules


def _dual_by_right_neighbour(t: OrdinalTree):
    # Parent of v in the dual is the first node right of v's subtree (the
    # root when none exists); siblings order by descending primal position.
    root = t.root
    groups = {}
    for v in t.nodes():
        if v == root:
            continue
        p = dual_parent(t, v)
        groups.setdefault(p, []).append(v)
    children = {v: () for v in t.nodes()}
    for p, kids in groups.items():
        kids.sort(key=t.dft, reverse=True)
        children[p] = tuple(kids)
    return OrdinalTree.from_children(root, children)


def dual_parent(t: OrdinalTree, v) -> object:
    """Parent of v in the dual: first node right of v's subtree, else the root."""
    if v == t.root:
        raise ContractError("the root has no parent in the dual")
    nxt = t.first_right(v)
    return t.root if nxt is None else nxt


def reverse(t: OrdinalTree) -> OrdinalTree:
    """Same parents, every child list reversed."""
    # Reversing the children mirrors the BP: the node at rank r, last in
    # postorder among r + size - depth nodes, moves to rank n - r - size + depth.
    # It keeps its depth and size, and its parent moves the same way.
    n = t.n_nodes
    size, depth = t._size.tolist(), t._depth.tolist()
    to = list(map(add, map(sub, range(n, 0, -1), size), depth))
    at = [0] * n
    for r, k in enumerate(to):
        at[k] = r
    return OrdinalTree(list(map(t._order.__getitem__, at)),
                       [-1, *map(to.__getitem__, map(t._parent.tolist().__getitem__, islice(at, 1, None)))],
                       list(map(depth.__getitem__, at)), list(map(size.__getitem__, at)))


def dual_of_reversed(t: OrdinalTree) -> OrdinalTree:
    """dual(reverse(t)); kept separate from reversed_dual for differential
    comparison — the two compositions do not commute in general."""
    return dual(reverse(t))


def primal_dual_ancestor(t: OrdinalTree, v1, v2) -> object:
    """The unique node v with v1 in the dual subtree of v and v2 in the
    primal subtree of v, by direct walk over dual ancestors of v1."""
    if v1 == t.root or v2 == t.root:
        raise ContractError("arguments must not be the root")
    if t.dft(v1) > t.dft(v2):
        raise ContractError(f"{v1!r} does not precede {v2!r} in depth-first order")
    limit = t.dft(v2)
    x = v1
    while True:
        nxt = t.first_right(x)
        if nxt is None or t.dft(nxt) > limit:
            return x
        x = nxt


def join(t1: OrdinalTree, t2: OrdinalTree) -> OrdinalTree:
    """Insert the children of t1's root as children of the rightmost child
    of t2's root, which must exist and be a leaf."""
    # t1's root becomes t2's last rank n2 - 1, the leaf; its other nodes follow
    n1, n2 = t1.n_nodes, t2.n_nodes
    if n2 == 1:
        raise ContractError("second tree's root has no rightmost child")
    if t2._parent[-1] != 0:
        attach = t2._order[max(r for r, p in enumerate(t2._parent) if p == 0)]
        raise ContractError(f"rightmost child {attach!r} of the second tree's root is not a leaf")
    moved = t1._order[1:]
    overlap = set(moved).intersection(t2._order)
    if overlap:
        raise ContractError(f"label collision between joined trees: {sorted(map(repr, overlap))}")
    return OrdinalTree(t2._order + moved,
                       [*t2._parent, *map((n2 - 1).__add__, islice(t1._parent, 1, None))],
                       [*t2._depth, *map((1).__add__, islice(t1._depth, 1, None))],
                       [t2._size[0] + n1 - 1, *t2._size[1:-1], n1, *islice(t1._size, 1, None)])


def join_all(trees) -> OrdinalTree:
    """Left-associative fold of ``join`` over two or more trees."""
    trees = list(trees)
    if not trees:
        raise ContractError("need at least one tree to join")
    acc = trees[0]
    for t in trees[1:]:
        acc = join(acc, t)
    return acc


def root_prepend(label, t: OrdinalTree) -> OrdinalTree:
    """New root with the old root as its single child."""
    # every rank and depth grows by one; the old root's parent -1 becomes 0
    if label in t._order:
        raise ContractError(f"label {label!r} already used in the tree")
    return OrdinalTree([label, *t._order], [-1, *map((1).__add__, t._parent)],
                       [0, *map((1).__add__, t._depth)], [t.n_nodes + 1, *t._size])


def is_quasi_subtree(a: OrdinalTree, t: OrdinalTree) -> bool:
    """True when every immediate-left-sibling relation of ``a`` holds in ``t``
    and every rightmost-child relation at a non-root node of ``a`` does too."""
    for v in a.nodes():
        if not t.has_node(v):
            raise ContractError(f"node {v!r} of the candidate does not occur in the host tree")
    for v in a.nodes():
        ils = a.navigate(v, "ils")
        if ils is not None and t.navigate(v, "ils") != ils:
            return False
        if v != a.root:
            rmc = a.navigate(v, "rmc")
            if rmc is not None and t.navigate(v, "rmc") != rmc:
                return False
    return True


def dual_edge_violations(a: OrdinalTree, t: OrdinalTree) -> list:
    """Edges of dual(a) missing from dual(t).

    Edges incident to either tree's root are exempt: the attachment of a
    quasi-subtree's own root children is not determined by the host tree.
    """
    da = dual(a)
    dt = dual(t)
    bad = []
    for v in da.nodes():
        p = da.parent(v)
        if p is None:
            continue
        if p in (t.root, a.root) or v in (t.root, a.root):
            continue
        if dt.parent(v) != p:
            bad.append((p, v))
    return bad
