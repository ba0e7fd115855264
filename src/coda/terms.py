"""The pure-data term model.

A coda is a pair of data; data is a finite sequence of codas.  Data is
represented as a plain tuple of Coda values so that concatenation is tuple
concatenation and everything is hashable.  Equality is structural, and
`_hash` is too, so codas of different hash are unequal.  Past the hashes,
`Coda.__eq__` is done when the codas below are the same objects; otherwise
it is `cmp_data`'s walk of the left and then the right data, whose 0 means
equal: equal hashes prove nothing.

Also provides the canonical total order used everywhere (carrier listing,
sorting), bounded enumeration of pure data, and exact counting by one loop
over the depth, which refuses a count that `str` cannot print.

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

import sys
from functools import cmp_to_key, lru_cache
from itertools import islice, product
from operator import is_
from typing import Iterator, NamedTuple, Tuple


class Coda:
    """An ordered pair of data.  Immutable, hashable, value semantics."""

    # _key: set by coda_key; _text: set by encoding on the atoms it builds
    __slots__ = ("left", "right", "_hash", "_key", "_text")

    def __init__(self, left: "Data" = (), right: "Data" = ()):
        if type(left) is not tuple:
            left = tuple(left)
        if type(right) is not tuple:
            right = tuple(right)
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))

    def __setattr__(self, name, value):
        raise AttributeError("Coda is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Coda):
            return NotImplemented
        if self._hash != other._hash:
            return False
        a, b, c, d = self.left, other.left, self.right, other.right
        if len(a) == len(b) and len(c) == len(d) and all(map(is_, a + c, b + d)):
            return True  # the same codas below: the common case, decided in C
        return not cmp_data(a, b) and not cmp_data(c, d)

    def __repr__(self):
        from .lang import _pieces  # lang imports terms
        # no piece but the last is empty, so this is all or over REPR_CHARS
        text = "".join(islice(_pieces((self,)), REPR_CHARS + 1))
        return f"<coda {text[:REPR_CHARS]}...>" if len(text) > REPR_CHARS else f"<coda {text}>"


# The slots' own setters, which bypass `Coda.__setattr__`: cheaper than
# `object.__setattr__`, which looks the name up on each call.
_set_left, _set_right = Coda.left.__set__, Coda.right.__set__
_set_hash, _set_key = Coda._hash.__set__, Coda._key.__set__

Data = Tuple[Coda, ...]

COLON = Coda()  # the primordial atom (:)
REPR_CHARS = 1000  # repr cuts the rendered text after this many characters


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


data_key = cmp_to_key(lambda a, b: cmp_data(a, b))  # late-bound, as traced runs patch cmp_data


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
    _set_key(c, key)
    return key


# ---------------------------------------------------------------------------
# Counting and bounded enumeration

class SizeBound(NamedTuple):
    width: int
    depth: int


class CapExceeded(Exception):
    """Work refused because its predicted size exceeds a cap."""


def count_pure_data(bound: SizeBound) -> int:
    """Exact count of pure data with width <= w and depth <= d.

    Recurrence: D(w,0) = 1 and D(w,d) = sum_{k=0..w} (D(w,d-1)^2)^k, since a
    data of depth <= d is a sequence of at most w codas, each a pair of data
    of depth <= d-1.  One loop sums each level in closed form, and raises
    CapExceeded at a level of more digits than `str` prints (4,300 where
    Python lacks the limit or has it off), before computing one far past it.
    """
    w, d = bound
    if w < 0 or d < 0:
        raise ValueError(f"width and depth must not be negative: {bound}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    n = 1
    for _ in range(d if w else 0):  # width 0 holds only ()
        pairs = n * n
        # the level is at least pairs^w >= 2^(w * (bits - 1)), and 2^3.322 > 10
        if w * (pairs.bit_length() - 1) * 1000 > digits * 3322:
            raise CapExceeded(f"the count has more than {digits} digits")
        n = w + 1 if pairs == 1 else (pairs ** (w + 1) - 1) // (pairs - 1)
        if n >= 10 ** digits:
            raise CapExceeded(f"the count has more than {digits} digits")
    return n


DEFAULT_ENUM_CAP = 100_000


def enumerate_pure_data(bound: SizeBound, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Data]:
    """Every pure data within `bound`, in canonical order, no duplicates.

    Raises CapExceeded at the call, before any item is made, when the
    recurrence predicts more than `cap` items.
    """
    predicted = count_pure_data(bound)
    if predicted > cap:
        raise CapExceeded(f"{predicted} pure data exceed cap {cap}")
    return _enumerate(*bound)


def _enumerate(w: int, d: int) -> Iterator[Data]:
    yield ()
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
