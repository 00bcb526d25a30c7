"""Seeded inputs for the benchmark workloads.

Every generator draws from its own ``random.Random`` seeded with a string
built from the run seed and a topic, and none of them touches
``dualtree.randgen``: a change to the library cannot change what the
benchmark feeds it. ``digest`` fingerprints an input so that two runs (or two
commits) can be shown to have used identical inputs.
"""

import hashlib
import random

ARRAY_N = 10**6
INTERVALS_N = 10**5
RANDOM_TREE_N = 10**5
CHAIN_N = 10**5
STAR_LEAVES = 10**4
MAX_GAP = 16


def rng(seed, topic):
    return random.Random(f"{seed}:{topic}")


def digest(items):
    """Short SHA-256 of the decimal text of a flat or nested list of ints."""
    h = hashlib.sha256()
    h.update(repr(items).encode("ascii"))
    return h.hexdigest()[:16]


# -- array-random ----------------------------------------------------------------


def array_values(seed, n=ARRAY_N):
    """n integers uniform in [-2n, 2n]; the range is narrow enough for ties."""
    draw = rng(seed, "array-values").randrange
    span = 4 * n + 1
    return [draw(span) - 2 * n for _ in range(n)]


def range_queries(seed, n, count):
    """``count`` ranges (i, j): i uniform in 1..n, then j uniform in i..n."""
    draw = rng(seed, "array-queries").randrange
    out = []
    for _ in range(count):
        i = draw(n) + 1
        out.append((i, i + draw(n - i + 1)))
    return out


# -- intervals-random ----------------------------------------------------------------


def interval_family(seed, n=INTERVALS_N):
    """n intervals with strictly increasing endpoints on both sides.

    Both endpoint sequences advance by gaps uniform in 1..MAX_GAP; a right
    endpoint that would fall before its left endpoint is raised to it.
    """
    draw = rng(seed, "intervals").randint
    a = draw(0, MAX_GAP)
    b = a + draw(0, MAX_GAP)
    pairs = [(a, b)]
    for _ in range(n - 1):
        a += draw(1, MAX_GAP)
        b = max(b + draw(1, MAX_GAP), a)
        pairs.append((a, b))
    return pairs


def interval_queries(seed, pairs, count):
    """``count`` queries (a, b, strict); every second query is strict.

    A query picks an interval k at random and a neighbour j within 8 places;
    the shorter of the two gives the width, so widths follow the family's own
    local lengths, and the query sits inside the longer one where it fits
    (strictly inside for a strict query). Most queries therefore have an
    answer.
    """
    draw = rng(seed, "interval-queries").randint
    n = len(pairs)
    out = []
    for q in range(count):
        strict = q % 2 == 1
        k = draw(0, n - 1)
        j = min(n - 1, max(0, k + draw(-8, 8)))
        if pairs[j][1] - pairs[j][0] > pairs[k][1] - pairs[k][0]:
            j, k = k, j
        ak, bk = pairs[k]
        w = pairs[j][1] - pairs[j][0]
        lo, hi = (ak + 1, bk - w - 1) if strict else (ak, bk - w)
        a = draw(lo, hi) if lo <= hi else ak
        out.append((a, a + w, strict))
    return out


# -- trees-dual ------------------------------------------------------------------------


def uniform_tree(seed, n=RANDOM_TREE_N):
    """Children map of a uniformly random ordered tree with n nodes.

    A shuffled word of n-1 openings and n closings has exactly one rotation
    whose proper prefixes all keep a non-negative excess (cycle lemma); that
    rotation minus its last closing is a uniform Dyck word, read as the BP of
    the tree below an extra root. Labels are preorder ranks 1..n.
    """
    word = [1] * (n - 1) + [-1] * n
    rng(seed, "uniform-tree").shuffle(word)
    run = low = 0
    cut = 0
    for x, step in enumerate(word):
        run += step
        if run < low:
            low, cut = run, x + 1
    word = word[cut:] + word[:cut]
    children = {1: []}
    stack = [1]
    label = 1
    for step in word[:-1]:
        if step > 0:
            label += 1
            children[stack[-1]].append(label)
            children[label] = []
            stack.append(label)
        else:
            stack.pop()
    return {v: tuple(kids) for v, kids in children.items()}


def chain(n=CHAIN_N):
    children = {v: (v + 1,) for v in range(1, n)}
    children[n] = ()
    return children


def star(leaves=STAR_LEAVES):
    children = {1: tuple(range(2, leaves + 2))}
    children.update((v, ()) for v in range(2, leaves + 2))
    return children
