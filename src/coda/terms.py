"""The pure-data term model.

A coda is a pair of data; data is a finite sequence of codas.  Data is
represented as a plain tuple of Coda values so that concatenation is tuple
concatenation, structural equality is ``==`` and everything is hashable.

Also provides the canonical total order used everywhere (carrier listing,
sorting, quotient representatives), width/depth metrics, and bounded
enumeration / exact counting of pure data.

The order has two forms.  `cmp_data`/`cmp_coda` compare two terms with an
explicit stack and stop at the first difference, which is usually a length;
each pair of shared subterms is compared once.  `coda_key` is a flat
tuple of ints, built once per coda and kept on it, for sorting many codas:
enc(d) is len(d) followed by enc(left) enc(right) of each coda of d, and a
coda's key is enc(left) + enc(right).  The code is prefix-free, so tuple
order is `cmp_coda`'s order and equal keys mean equal codas.  A key is cut
after `KEY_INTS` ints and then ends in one object that compares the two
codas by `cmp_coda`; by prefix-freeness two keys reach that object only
when both are cut and agree on every int.  The cut matters because codas
share subterms: `{(B:B)}` puts one B on both sides, so a chain of them has a
tree exponentially larger than itself.  Keys are built by an explicit-stack
walk and compared by tuple comparison in C, so nothing recurses however deep
the coda is.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from itertools import product
from typing import Iterator, NamedTuple, Tuple


_set = object.__setattr__


class Coda:
    """An ordered pair of data.  Immutable, hashable, value semantics."""

    __slots__ = ("left", "right", "_hash", "_key")  # _key: set by coda_key

    def __init__(self, left: "Data" = (), right: "Data" = ()):
        left = tuple(left)
        right = tuple(right)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __setattr__(self, name, value):
        raise AttributeError("Coda is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Coda):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    def __repr__(self):
        from .lang import render  # lang imports terms

        return f"<coda {render((self,))}>"


Data = Tuple[Coda, ...]

EMPTY: Data = ()
COLON = Coda()  # the primordial atom (:)


# ---------------------------------------------------------------------------
# Canonical order: shorter sequence first, then pointwise; codas by
# (left, right) recursively.

def cmp_data(a: Data, b: Data) -> int:
    """-1, 0 or 1 as a sorts before, with or after b.  An explicit stack
    holds the pairs of data still to compare, the next one last.  A pair of
    data met again was compared in full before and found equal, so shared
    subterms are compared once, however often the tree repeats them."""
    stack = [(a, b)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        pair = id(a), id(b)
        if a is b or pair in seen:
            continue
        seen.add(pair)
        for x, y in zip(reversed(a), reversed(b)):
            if x is not y:
                stack += ((x.right, y.right), (x.left, y.left))
    return 0


def cmp_coda(x: Coda, y: Coda) -> int:
    return cmp_data((x,), (y,))


def canonical_order(a: Data, b: Data) -> int:
    """Total order on data; returns -1, 0 or 1."""
    return cmp_data(tuple(a), tuple(b))


data_key = cmp_to_key(lambda a, b: cmp_data(a, b))


KEY_INTS = 1024  # coda_key keeps at most this many ints of the encoding


def _parts(d: Data) -> Iterator[Data]:
    for x in d:
        yield x.left
        yield x.right


def coda_key(c: Coda) -> tuple:
    """The canonical sort key of `c` (see the module docstring), built on
    first use and kept on `c`."""
    try:
        return c._key
    except AttributeError:
        pass
    out: list = []
    stack = [_parts((c,))]  # generators of the data still to encode, innermost last
    while stack:
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
        elif len(out) == KEY_INTS:
            out.append(cmp_to_key(cmp_coda)(c))
            break
        else:
            out.append(len(d))
            stack.append(_parts(d))
    key = tuple(out)
    _set(c, "_key", key)
    return key


# ---------------------------------------------------------------------------
# Width / depth

class SizeBound(NamedTuple):
    width: int
    depth: int


def coda_depth(c: Coda) -> int:
    return 1 + max(data_depth(c.left), data_depth(c.right))


def data_depth(d: Data) -> int:
    return max((coda_depth(c) for c in d), default=0)


def data_width(d: Data) -> int:
    w = len(d)
    for c in d:
        w = max(w, data_width(c.left), data_width(c.right))
    return w


def measure(d: Data) -> SizeBound:
    return SizeBound(data_width(d), data_depth(d))


# ---------------------------------------------------------------------------
# Counting and bounded enumeration

class CapExceeded(Exception):
    """Work refused because its predicted size exceeds a cap."""


def count_pure_data(bound: SizeBound) -> int:
    """Exact count of pure data with width <= w and depth <= d.

    Recurrence: D(w,0) = 1 and D(w,d) = sum_{k=0..w} (D(w,d-1)^2)^k, since a
    data of depth <= d is a sequence of at most w codas, each a pair of data
    of depth <= d-1.
    """
    w, d = bound
    return _count(w, d)


@lru_cache(maxsize=None)
def _count(w: int, d: int) -> int:
    if d <= 0:
        return 1
    pairs = _count(w, d - 1) ** 2
    return sum(pairs**k for k in range(w + 1))


DEFAULT_ENUM_CAP = 100_000


def enumerate_pure_data(bound: SizeBound, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Data]:
    """Yield every pure data within `bound`, in canonical order, no duplicates.

    Raises CapExceeded up front when the recurrence predicts more than `cap`
    items.
    """
    w, d = bound
    predicted = count_pure_data(bound)
    if predicted > cap:
        raise CapExceeded(f"{predicted} pure data exceed cap {cap}")
    yield from _enumerate(w, d)


def _enumerate(w: int, d: int) -> Iterator[Data]:
    yield EMPTY
    if d <= 0:
        return
    codas = _codas_upto(w, d)
    for k in range(1, w + 1):
        for items in product(codas, repeat=k):
            yield items


@lru_cache(maxsize=None)
def _codas_upto(w: int, d: int) -> Tuple[Coda, ...]:
    # already in canonical coda order because _enumerate yields data in
    # canonical (length-then-lexicographic) order
    # the empty coda is COLON itself, so probes share the one (:)
    below = tuple(_enumerate(w, d - 1))
    return tuple(Coda(l, r) if l or r else COLON for l in below for r in below)
