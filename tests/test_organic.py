import itertools
from math import gcd

import pytest

from coda import organic
from coda.algebra import REFUTED, ProbeSet, check_associative, small_probes
from coda.engine import Budget, Engine
from coda.lang import parse
from coda.organic import (
    DEMOS,
    DemoReport,
    QAtom,
    _bool_probes,
    _colon_count,
    bool_seq_truncated,
    demo_bool,
    ev,
    fibonacci,
    gauss_mult,
    inner,
    inner_bool_endos,
    int_data,
    matrix_hom,
    mediant,
    nat_product,
    pair_data,
    q_add,
    reduce_int,
    rem_value,
    search_spaces,
    seq,
)
from coda.spacelab import extract_carrier, saturation_carrier, zn_carrier
from coda.terms import CapExceeded

from conftest import words_over


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
    # a misspelt format is refused, not printed as text
    for fmt in ("TSV", "tsvv", ""):
        with pytest.raises(ValueError, match=f"^fmt must be 'text' or 'tsv', not '{fmt}'$"):
            rep.render(fmt)


def test_rem_values():
    assert rem_value(3, 3, 7) == 1
    assert rem_value(1, 3, 5) == 2
    assert rem_value(2, 2, 4) == 0
    assert [rem_value(2, 2, n) for n in range(6)] == [0, 1, 0, 1, 0, 1]


def test_organic_n_reads_its_rem_maps_from_the_calculus(monkeypatch):
    # rem(2,2) given the program of rem(3,3): only the two checks that read
    # its map fail, and the carrier check names the n where n % 3 != n % 2
    monkeypatch.setitem(organic.REM_PROGRAMS, (2, 2), "while remove a a a")
    report = organic.organic_N()
    assert not report.passed
    failing = {a.description: a.actual for a in report.assertions if not a.passed}
    assert failing == {"rem(2,2)(4)": "1",
                       "rem(2,2) equals mod 2 on the carrier": "11 failing, first 2"}


def test_qatom():
    assert QAtom.make(4, 6) == QAtom(2, 3)
    assert QAtom.make(0, 5) is None
    with pytest.raises(ValueError):
        QAtom.make(1, 0)
    s = q_add(QAtom.make(1, 2), QAtom.make(1, 3))
    assert (s.numerator, s.denominator) == (5, 6)
    # the gate checks these sums' values; each is also in lowest terms
    atoms = [QAtom.make(n, d) for n in range(13) for d in range(1, 13)]
    for x, y in itertools.product(atoms, repeat=2):
        s = q_add(x, y)
        assert s is None or gcd(s.numerator, s.denominator) == 1, (x, y)


def test_ev_refuses_a_partial_form():
    # no demo compares a form the budget cut short
    with pytest.raises(ValueError, match="exhausts the budget"):
        ev(parse("while {(B:B)} : a"), budget=Budget(max_steps=5))
    assert ev(parse("ap {B B} : a b"), budget=Budget(max_steps=5)) == parse("a a b b")


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


def refuse(self, d):
    raise RuntimeError("engine called")


def test_arithmetic_runs_in_the_engine(monkeypatch):
    c2 = extract_carrier(bool_seq_truncated(2), _bool_probes(), cap=16)
    monkeypatch.setattr(Engine, "eval_data", refuse)
    with pytest.raises(RuntimeError):
        gauss_mult((1, 1), (1, 1))
    with pytest.raises(RuntimeError):
        reduce_int(int_data(2) + int_data(-1))
    with pytest.raises(RuntimeError):
        matrix_hom((1, 1, 1, 0), pair_data(1, 1))
    with pytest.raises(RuntimeError):
        mediant((1, 2), (1, 3))
    with pytest.raises(RuntimeError):
        inner_bool_endos(c2)
    # the gate's Z_n and saturation tables are the engine's too
    with pytest.raises(RuntimeError):
        zn_carrier(3)
    with pytest.raises(RuntimeError):
        saturation_carrier(3)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_demo_asks_the_engine_before_it_decides(monkeypatch, name):
    # with the engine refusing and no assertion allowed, each demo raises
    # the engine's error: none decides an assertion in Python alone first
    def decided(self, *args):
        raise AssertionError("an assertion was decided before the engine ran")

    monkeypatch.setattr(Engine, "eval_data", refuse)
    monkeypatch.setattr(DemoReport, "check", decided)
    with pytest.raises(RuntimeError, match="^engine called$"):
        DEMOS[name]()


# each inner map sends an element to T when its rule holds on the
# element's count of (:), and to F otherwise
INNER_RULES = {
    "e1": lambda c: True,
    "e2": lambda c: c <= 1,
    "e3": lambda c: c % 2 == 0,
    "e4": lambda c: c == 0,
    "e5": lambda c: c >= 1,
    "e6": lambda c: c % 2 == 1,
    "e7": lambda c: c >= 2,
    "e8": lambda c: False,
}


@pytest.mark.parametrize("n, cap", [(1, 8), (2, 16), (3, 64)])
def test_inner_bool_endos_follow_the_colon_count(n, cap):
    c = extract_carrier(bool_seq_truncated(n), _bool_probes(), cap=cap)
    t_idx, f_idx = c.index_of(organic.T_ELEM), c.index_of(organic.F_ELEM)
    endos = inner_bool_endos(c)
    assert sorted(endos) == sorted(INNER_RULES)
    for name, rule in INNER_RULES.items():
        want = [t_idx if rule(_colon_count(e)) else f_idx for e in c.elements]
        assert list(endos[name]) == want, name


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


def test_search_screens_each_word_once():
    def found(words):
        return [(r.source, r.verdict.checked) for r in search_spaces(words, 1)]

    assert found(["a", "a"]) == found(["a"]) == [("{a}", 50)]


def test_search_survivors_are_associative_on_words():
    # the screen's pure data and budget, plus the 14 words of length 1-3 over
    # a and b, refute none of either pinned search's survivors
    probes = ProbeSet(small_probes(()).probes + words_over("ab", 3), Budget(max_steps=2_000, max_nodes=50_000))
    for words in (["pass", "bool", "not", "sort", "once", "is", "a", "b"],
                  ["first", "last", "rev", "min", "null", "pass"]):
        survivors = search_spaces(words, 2)
        refuted = [r.source for r in survivors if check_associative(r.candidate, probes).status == REFUTED]
        assert refuted == [], words
