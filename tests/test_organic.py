import itertools

import pytest

from coda import organic
from coda.engine import Engine
from coda.lang import parse
from coda.organic import (
    DEMOS,
    DemoReport,
    QAtom,
    bounded_n_carrier,
    demo_bool,
    fibonacci,
    gauss_mult,
    inner,
    int_data,
    matrix_hom,
    nat_product,
    pair_data,
    q_add,
    rationals,
    reduce_int,
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

    # a passing quantified check renders as the plain check (0 failures)
    plain, quantified = DemoReport("x"), DemoReport("x")
    plain.check("no n below 5 is 7", 0, 0)
    assert quantified.check_none("no n below 5 is 7", (n for n in range(5) if n == 7))
    for fmt in ("text", "tsv"):
        assert quantified.render(fmt) == plain.render(fmt)
    assert quantified.render("tsv") == "x\tok\tno n below 5 is 7\t0\t0"

    failing = DemoReport("x")
    assert not failing.check_none("all n below 5 are even", (n for n in range(5) if n % 2))
    assert failing.render().splitlines()[1] == (
        "  FAIL all n below 5 are even (expected 0, got 2 failing, first 1)")
    assert failing.render("tsv") == "x\tFAIL\tall n below 5 are even\t0\t2 failing, first 1"


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


SUM_CHECK = "sum equals rational addition for num,den <= 12"


@pytest.mark.parametrize("bad_sum", [QAtom(5, 3), QAtom(18, 12)], ids=["wrong", "unreduced"])
def test_sum_check_catches_one_bad_pair(monkeypatch, bad_sum):
    # 7/12 + 11/12 = 3/2, and only the pair (7, 12, 11, 12) meets these atoms;
    # 18/12 is 3/2 as a Fraction, so only the lowest-terms clause catches it
    real = organic.q_add
    seven, eleven = QAtom(7, 12), QAtom(11, 12)
    monkeypatch.setattr(organic, "q_add",
                        lambda x, y: bad_sum if (x, y) == (seven, eleven) else real(x, y))
    [check] = [a for a in rationals().assertions if a.description == SUM_CHECK]
    assert not check.passed
    assert check.actual == "1 failing, first (7, 12, 11, 12)"


def test_nat_product_via_engine():
    assert nat_product(3, 4) == 12
    assert nat_product(1, 7) == 7


def test_gauss_mult():
    assert gauss_mult((1, 1), (1, 1)) == (0, 2)
    assert gauss_mult((0, 1), (0, 1)) == (-1, 0)
    units = list(itertools.product((-1, 0, 1), repeat=2))
    for u, x in itertools.product(units, units):
        z = complex(*u) * complex(*x)
        assert gauss_mult(u, x) == (int(z.real), int(z.imag)), (u, x)


def test_reduce_int_on_unsorted_input():
    assert reduce_int(parse("b a b a a")) == 1
    assert reduce_int(parse("b a b b a b")) == -2
    assert reduce_int(()) == 0


def test_arithmetic_runs_in_the_engine(monkeypatch):
    def refuse(self, d):
        raise RuntimeError("engine called")

    monkeypatch.setattr(Engine, "eval_data", refuse)
    with pytest.raises(RuntimeError):
        gauss_mult((1, 1), (1, 1))
    with pytest.raises(RuntimeError):
        reduce_int(int_data(2) + int_data(-1))
    with pytest.raises(RuntimeError):
        matrix_hom((1, 1, 1, 0), pair_data(1, 1))


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
