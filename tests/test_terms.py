import pytest
from hypothesis import given, strategies as st

from coda.terms import (
    COLON,
    CapExceeded,
    Coda,
    SizeBound,
    canonical_order,
    coda_depth,
    count_pure_data,
    data_key,
    data_width,
    enumerate_pure_data,
    measure,
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
    for attr in ("left", "right", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(c, attr, ())
    assert hash(c) == hash(Coda((COLON,), ()))
    assert c == Coda((COLON,), ())
    assert c != COLON


def test_measure():
    d = (Coda((COLON, COLON), ()),)
    assert measure(d) == SizeBound(2, 2)
    assert coda_depth(COLON) == 1
    assert data_width(()) == 0


@given(pure_data, pure_data)
def test_canonical_order_is_antisymmetric(a, b):
    ab = canonical_order(a, b)
    ba = canonical_order(b, a)
    assert ab == -ba
    assert (ab == 0) == (a == b)


@given(pure_data, pure_data, pure_data)
def test_canonical_order_sorts_consistently(a, b, c):
    ordered = sorted([a, b, c], key=data_key)
    assert sorted(ordered, key=data_key) == ordered
    for x, y in zip(ordered, ordered[1:]):
        assert canonical_order(x, y) <= 0


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
        w, dep = measure(d)
        assert w <= bound.width and dep <= bound.depth


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_pure_data(SizeBound(3, 3), cap=10))
