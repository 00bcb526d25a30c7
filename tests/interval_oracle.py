"""The per-pair validation that ``mliq.build_intervals`` ran before it checked
its family in bulk, kept as the oracle for the bulk check, and a strategy
that plants one breach of its rules in a valid family."""

from itertools import accumulate

from hypothesis import strategies as st

from dualtree.errors import ValidationError

I64_MAX = (1 << 63) - 1


def check_pairs(pairs):
    """Raise the ValidationError of the first interval that breaks a rule,
    checking one interval at a time and its rules in order."""
    a = []
    b = []
    for idx, (ai, bi) in enumerate(pairs, start=1):
        if not (isinstance(ai, int) and isinstance(bi, int)) or ai < 0 or bi < 0:
            raise ValidationError(f"interval {idx}: endpoints must be non-negative integers")
        if ai > I64_MAX or bi > I64_MAX:
            big = ai if ai > I64_MAX else bi
            raise ValidationError(f"interval {idx}: endpoint {big} outside the signed 64-bit range")
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


def raised(fn, *args):
    """(type, message) of what ``fn(*args)`` raised, or None."""
    try:
        fn(*args)
    except Exception as exc:  # the comparison is the point: any type counts
        return type(exc), str(exc)
    return None


@st.composite
def valid_families(draw, max_size=40):
    n = draw(st.integers(1, max_size))
    a = list(accumulate(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), initial=draw(st.integers(0, 3))))[1:]
    extra = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    b = []
    for ai, e in zip(a, extra):
        b.append(max(ai, b[-1] + 1 if b else 0) + e)
    return list(zip(a, b))


BREACHES = ("float", "str", "negative", "wide", "left", "right", "empty", "beyond")
STORABLE = ("negative", "wide", "left", "right", "empty")  # what an i64 blob section can hold


@st.composite
def breached_families(draw, kinds=BREACHES):
    """(kind, pairs): a valid family with one breach of ``kind`` planted at a
    random interval, on a random side where the kind has one."""
    pairs = draw(valid_families())
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return kind, []
    k = draw(st.integers(0, len(pairs) - 1))
    side = draw(st.integers(0, 1))
    a, b = map(list, zip(*pairs))
    ends = (a, b)[side]
    if kind == "float":
        ends[k] = draw(st.sampled_from([float(ends[k]), ends[k] + 0.5]))
    elif kind == "str":
        ends[k] = str(ends[k])
    elif kind == "negative":
        ends[k] = -draw(st.integers(1, 1 << 64))
    elif kind == "wide":
        a[k] = b[k] + draw(st.integers(1, 3))
    elif kind == "left":
        a[k] = a[k - 1] - draw(st.integers(0, 1)) if k else a[k]
    elif kind == "right":
        b[k] = b[k - 1] - draw(st.integers(0, 1)) if k else b[k]
    else:  # beyond
        ends[k] = I64_MAX + draw(st.integers(1, 1 << 64))
    return kind, list(zip(a, b))
