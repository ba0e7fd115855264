import sys
import time
from functools import cmp_to_key
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coda.encoding import word, word_text
from coda import terms
from coda.engine import evaluate
from coda.prelude import _word_order, prelude
from coda.terms import (
    COLON,
    KEY_INTS,
    REPR_CHARS,
    CapExceeded,
    Coda,
    SizeBound,
    cmp_coda,
    cmp_data,
    coda_key,
    count_pure_data,
    data_key,
    enumerate_pure_data,
)

pure_data = st.recursive(
    st.just(()),
    lambda inner: st.lists(
        st.builds(Coda, inner, inner), max_size=3
    ).map(tuple),
    max_leaves=12,
)


def test_coda_is_immutable_and_hashable():
    c = Coda((COLON,), ())
    for attr in ("left", "right", "_hash", "_key", "other"):
        with pytest.raises(AttributeError):
            setattr(c, attr, ())
    assert hash(c) == hash(Coda((COLON,), ()))
    assert c == Coda((COLON,), ())
    assert c != COLON
    assert not Coda() == 1


def test_coda_holds_plain_tuples():
    class Row(tuple):
        pass

    a, b = Coda((COLON,), ()), COLON
    want = Coda((a, b), (b,))
    for left, right in [([a, b], [b]), (iter((a, b)), (x for x in (b,))),
                        (Row((a, b)), Row((b,)))]:
        c = Coda(left, right)
        assert c == want and hash(c) == hash(want)
        assert type(c.left) is tuple and type(c.right) is tuple


def cmp_by_recursion(a, b):
    """Reference for the canonical order, by its recursive definition:
    shorter data first, then codas pointwise, each by its left data and then
    its right one.  It unfolds shared subterms and recurses once per level."""
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for x, y in zip(a, b):
        if x is not y:
            c = cmp_by_recursion(x.left, y.left) or cmp_by_recursion(x.right, y.right)
            if c:
                return c
    return 0


@given(pure_data, pure_data)
def test_canonical_order_is_antisymmetric(a, b):
    ab = cmp_data(a, b)
    assert ab == cmp_by_recursion(a, b) == -cmp_data(b, a)
    assert (ab == 0) == (a == b)


@given(pure_data, pure_data, pure_data)
def test_canonical_order_sorts_consistently(a, b, c):
    ordered = sorted([a, b, c], key=data_key)
    assert sorted(ordered, key=data_key) == ordered
    for x, y in zip(ordered, ordered[1:]):
        assert cmp_data(x, y) <= 0


codas = st.builds(Coda, pure_data, pure_data)


@st.composite
def shared_pairs(draw):
    """Two codas built from one pool of data, so that one object recurs in
    many places, and equal data recur as distinct objects."""
    pool = [(), (COLON,)]
    for _ in range(draw(st.integers(0, 4))):
        part = st.sampled_from(pool)
        pool.append(tuple(draw(st.lists(st.builds(Coda, part, part), min_size=1, max_size=3))))
    part = st.sampled_from(pool)
    return draw(st.builds(Coda, part, part)), draw(st.builds(Coda, part, part))


@given(st.tuples(codas, codas) | shared_pairs())
def test_coda_key_agrees_with_cmp_coda(pair):
    x, y = pair
    kx, ky = coda_key(x), coda_key(y)
    assert (kx > ky) - (kx < ky) == cmp_coda(x, y) == cmp_by_recursion((x,), (y,))
    assert (kx == ky) == (x == y)
    assert coda_key(x) is kx  # kept on the coda


@given(st.tuples(codas, codas) | shared_pairs())
def test_cut_keys_agree_with_cmp_coda(pair):
    # a cut of 3 ints sends most pairs of fresh codas to the compared tail
    x, y = pair
    with mock.patch.object(terms, "KEY_INTS", 3):
        kx, ky = coda_key(x), coda_key(y)
        assert (kx > ky) - (kx < ky) == cmp_by_recursion((x,), (y,))
        assert (kx == ky) == (x == y)
        assert _word_order((y, x)) == word_order_by_two_lists((y, x))


def word_order_by_two_lists(d):
    """Reference for `_word_order`: non-words sorted by `cmp_coda`, then
    words sorted by their text."""
    texts = [(word_text(c), c) for c in d]
    others = sorted((c for t, c in texts if t is None),
                    key=cmp_to_key(lambda x, y: cmp_by_recursion((x,), (y,))))
    words = sorted(((t, c) for t, c in texts if t is not None), key=itemgetter(0))
    return tuple(others) + tuple(c for _, c in words)


mixed = st.lists(st.one_of(
    codas, st.sampled_from(["a", "b", "ab", "ba", "", "zzz"]).map(word),
)).map(tuple)


@settings(deadline=None)
@given(mixed)
def test_word_order_matches_the_two_list_reference(d):
    assert _word_order(d) == word_order_by_two_lists(d)


def nest(c, depth):
    for _ in range(depth):
        c = Coda((c,), ())
    return c


def test_deep_codas_sort_without_recursion():
    # (:(:)) sorts before ((:):), and wrapping both alike keeps the order
    low, high = Coda((), (COLON,)), Coda((COLON,), ())
    assert cmp_coda(nest(low, 10), nest(high, 10)) == -1
    x, y = nest(low, 10**5), nest(high, 10**5)
    twin = nest(Coda((), (COLON,)), 10**5)  # equal to x, built apart
    # compared into ints first, so that a failure prints no 10^5-deep coda
    order = cmp_coda(x, y), cmp_data((y,), (x,)), cmp_coda(twin, x)
    assert order == (-1, 1, 0)
    assert coda_key(x) < coda_key(y)
    assert sorted([y, x], key=coda_key) == [x, y]
    a = word("a")
    assert _word_order((a, y, x)) == (x, y, a)


def doubled(base, depth):
    """The coda (B:B) with B the data of the level below: a tree of 2^depth
    copies of `base`, in depth + 1 objects."""
    b = (base,)
    for _ in range(depth):
        b = (Coda(b, b),)
    return b[0]


def test_shared_codas_sort_without_unfolding():
    assert len(coda_key(doubled(word("a"), 20))) == KEY_INTS + 1  # cut, not 2^21 ints
    x, y = doubled(word("a"), 40), doubled(word("b"), 40)
    assert sorted([y, x], key=coda_key) == [x, y]
    assert _word_order((word("a"), y, x)) == (x, y, word("a"))
    # built apart, so equal without sharing a node: each pair of shared data
    # is compared once, where unfolding the trees would visit 2^40 of them
    twin = doubled(Coda(word("a").left, word("a").right), 40)
    assert twin is not x and coda_key(twin) == coda_key(x)
    shallow = doubled(word("a"), 12)
    kx, ks = coda_key(x), coda_key(shallow)
    # compared into ints first, so that a failure prints no 2^40 tree
    order = cmp_coda(twin, x), cmp_coda(x, y), cmp_coda(x, shallow)
    assert order == (0, -1, (kx > ks) - (kx < ks))


def forge_hash(c, h):
    object.__setattr__(c, "_hash", h)


def fastest(call, times=3):
    """The least of a few timings of `call()`, so that one pause of the
    machine or the garbage collector does not fail a bound."""
    spans = []
    for _ in range(times):
        start = time.perf_counter()
        call()
        spans.append(time.perf_counter() - start)
    return min(spans)


def test_deep_codas_are_equal_without_recursion():
    x = nest(Coda((), (COLON,)), 10**5)
    twin = nest(Coda((), (COLON,)), 10**5)
    # differs only at the bottom, and every level's hash is forged to equal
    # x's, so that only a walk to the bottom can tell the two apart
    other = nest(Coda((COLON,), ()), 10**5)
    a, b = x, other
    while a.left:
        forge_hash(b, a._hash)
        a, b = a.left[0], b.left[0]
    forge_hash(b, a._hash)
    # compared into bools first, so that a failure prints no 10^5-deep coda
    verdicts = x == twin, x == other, other == x
    assert verdicts == (True, False, False)


def test_equal_hashes_do_not_make_codas_equal():
    a, b = word("a"), word("b")
    # the last three have the same codas below, split or counted differently
    for x, y in [(Coda((COLON,), ()), Coda((), (COLON,))),
                 (Coda((a,), (a,)), Coda((a,), (b,))),
                 (Coda((a,), (a, a)), Coda((a, a), (a,))),
                 (Coda((a,), (a,)), Coda((a, a), (a,))),
                 (Coda((a,), (a,)), Coda((a,), (a, a)))]:
        forge_hash(y, x._hash)
        assert x != y and y != x
        # built over the forged pair, the parents' hashes agree as well
        px, py = Coda((x, a), (COLON,)), Coda((y, a), (COLON,))
        assert px._hash == py._hash
        assert px != py and py != px
        assert (px,) != (py,)


def test_shared_codas_are_equal_without_unfolding():
    x = doubled(word("a"), 40)
    twin = doubled(Coda(word("a").left, word("a").right), 40)
    verdicts = x == twin, x == doubled(word("b"), 40)
    assert verdicts == (True, False)
    assert fastest(lambda: x == twin) < 0.01
    for program, want in [((word("once"),), (twin,)),
                          ((word("is"), x), (twin, x)),
                          ((word("isnt"), x), ())]:
        out = evaluate((Coda(program, (twin, x)),), prelude())
        assert out.normalized and out.result == want


def test_repr_is_bounded():
    assert repr(COLON) == "<coda (:)>"
    assert repr(word("a")) == "<coda a>"
    for c in (doubled(word("a"), 40), nest(COLON, 10**5)):
        assert fastest(lambda: repr(c)) < 0.1
        text = repr(c)
        assert len(text) == len("<coda ...>") + REPR_CHARS
        assert text.endswith("...>")


def test_count_small_cells():
    assert count_pure_data(SizeBound(0, 0)) == 1
    assert count_pure_data(SizeBound(1, 1)) == 2
    assert count_pure_data(SizeBound(2, 2)) == 91


@pytest.mark.parametrize("bound", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_enumeration_matches_count(bound):
    bound = SizeBound(*bound)
    items = list(enumerate_pure_data(bound))
    assert len(items) == count_pure_data(bound)
    assert len(set(items)) == len(items)
    keys = [data_key(d) for d in items]
    assert keys == sorted(keys)
    for d in items:
        w, dep = size_by_recursion(d)
        assert w <= bound.width and dep <= bound.depth
    assert size_by_recursion((Coda((COLON, COLON), ()),)) == (2, 2)


def size_by_recursion(d):
    """The width (longest sequence) and depth (nesting of codas) of `d`."""
    sizes = [size_by_recursion(side) for c in d for side in (c.left, c.right)]
    return (max([len(d)] + [w for w, _ in sizes]),
            max(dep for _, dep in sizes) + 1 if d else 0)


@pytest.mark.parametrize("bound", [(-1, 1), (1, -1)])
def test_negative_bounds_are_refused(bound):
    with pytest.raises(ValueError):
        count_pure_data(SizeBound(*bound))
    with pytest.raises(ValueError):
        list(enumerate_pure_data(SizeBound(*bound)))


def count_by_recurrence(w, d):
    n = 1
    for _ in range(d):
        n = sum((n * n) ** k for k in range(w + 1))
    return n


@pytest.mark.parametrize("bound", [(2, 12), (1, 1100), (1_000_000, 2), (2, 30), (10**30, 2)])
def test_counts_str_cannot_print_are_refused_quickly(bound):
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"more than \d+ digits"):
        count_pure_data(SizeBound(*bound))
    assert time.perf_counter() - start < 1


def test_count_refuses_at_the_first_level_str_cannot_print():
    # the last level of each width that str prints is counted exactly
    limit = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
    for w in (1, 2, 3, 50):
        d = 0
        while count_by_recurrence(w, d + 1) < limit:
            d += 1
        assert count_pure_data(SizeBound(w, d)) == count_by_recurrence(w, d)
        with pytest.raises(CapExceeded):
            count_pure_data(SizeBound(w, d + 1))
    assert len(str(count_pure_data(SizeBound(4, 5)))) == 2873
    assert count_pure_data(SizeBound(0, 10**18)) == 1  # width 0 holds only ()
    assert count_pure_data(SizeBound(10**30, 1)) == 10**30 + 1


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_pure_data(SizeBound(3, 3), cap=10))
