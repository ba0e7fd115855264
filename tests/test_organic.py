import pytest

from coda.lang import parse
from coda.organic import (
    DEMOS,
    QAtom,
    bounded_n_carrier,
    demo_bool,
    demo_bool_sequences,
    demo_gaussian,
    demo_N2,
    demo_seq,
    demo_sets,
    fibonacci,
    gauss_mult,
    inner,
    nat_product,
    organic_N,
    q_add,
    rationals,
    rem,
    rem_value,
    search_spaces,
    seq,
)
from coda.terms import CapExceeded


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_passes(name):
    report = DEMOS[name]()
    failing = [a.description for a in report.assertions if not a.passed]
    assert report.passed, failing
    assert report.assertions


def test_report_render_formats():
    rep = demo_bool()
    text = rep.render()
    assert text.startswith("demo bool")
    tsv = rep.render("tsv")
    assert all(line.split("\t")[1] == "ok" for line in tsv.splitlines())


def test_rem_values():
    assert rem_value(3, 3, 7) == 1
    assert rem_value(1, 3, 5) == 2
    assert rem_value(2, 2, 4) == 0
    assert [rem_value(2, 2, n) for n in range(6)] == [0, 1, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        rem(0, 1)


def test_rem_endo_on_carrier():
    c = bounded_n_carrier(10)
    e = rem(3, 3, c)
    assert e[:7] == (0, 1, 2, 0, 1, 2, 0)


def test_qatom():
    assert QAtom.make(4, 6) == QAtom(2, 3)
    assert QAtom.make(0, 5) is None
    with pytest.raises(ValueError):
        QAtom.make(1, 0)
    s = q_add(QAtom.make(1, 2), QAtom.make(1, 3))
    assert (s.numerator, s.denominator) == (5, 6)


def test_nat_product_via_engine():
    assert nat_product(3, 4) == 12
    assert nat_product(1, 7) == 7


def test_gauss_mult():
    assert gauss_mult((1, 1), (1, 1)) == (0, 2)
    assert gauss_mult((0, 1), (0, 1)) == (-1, 0)


def test_fibonacci():
    assert fibonacci(0) == []
    assert fibonacci(1) == [1]
    assert fibonacci(10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci(31)


def test_seq_and_inner_shapes():
    nseq = seq(parse("is a"), "n")
    assert len(nseq) == 4  # ap over a three-atom composition
    e = inner(nseq, "n", parse("is a"))
    assert len(e) == 3


def test_search_finds_holders():
    results = search_spaces(["pass", "bool", "not", "a"], max_len=1)
    sources = [r.source for r in results]
    assert "pass" in sources and "bool" in sources
    assert "not" not in sources
    assert "a" not in sources
    assert "{a}" in sources  # constants always hold


def test_search_empty_words_has_no_holders():
    assert search_spaces([], max_len=2) == []


def test_search_cap():
    with pytest.raises(CapExceeded):
        search_spaces(["a", "b", "c", "d"], max_len=4, cap=100)
