"""Acceptance gate: one test per criterion, each printing a PASS line.

Every criterion re-derives its expectations independently (hard-coded
reference values, stdlib arithmetic oracles) rather than trusting the
library's own bookkeeping.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from coda.algebra import (
    ProbeSet,
    apply_to,
    check_right_distributivity,
    product,
    sum_data,
)
from coda.encoding import word
from coda.engine import Budget, Engine, TriBool, evaluate
from coda.lang import parse, render
from coda.organic import (
    EXPECTED_COUNTS,
    EXPECTED_GRID,
    QAtom,
    TABLE_ROWS,
    _bool_probes,
    _colon_count,
    a_data,
    bool_endo_names,
    bool_report,
    bool_seq_truncated,
    bounded_n_carrier,
    demo_gaussian,
    demo_sets,
    fibonacci,
    inner,
    inner_bool_endos,
    int_data,
    matrix_action,
    matrix_hom,
    nat_product,
    pair_data,
    q_add,
    reduce_int,
    rem_value,
    seq,
    sort_pair,
)
from coda.prelude import prelude
from coda.spacelab import (
    Endo,
    compose,
    enumerate_endos,
    extract_carrier,
    field_check,
    identity_endo,
    oplus,
    saturation_carrier,
    zero_endo,
    zn_carrier,
)
from coda.terms import COLON, SizeBound, count_pure_data, enumerate_pure_data

from conftest import random_data


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def ev(src, ctx=None):
    return render(evaluate(parse(src), ctx or prelude()).result)


# -- 1 -----------------------------------------------------------------------

def oracle_count(w, d):
    """Independent reimplementation of the counting recurrence."""
    if d == 0:
        return 1
    below = oracle_count(w, d - 1)
    return sum((below * below) ** k for k in range(w + 1))


EXACT_CELLS = {
    (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1,
    (1, 0): 1, (1, 1): 2, (1, 2): 5, (1, 3): 26, (1, 4): 677,
    (2, 0): 1, (2, 1): 3, (2, 2): 91,
    (3, 0): 1, (3, 1): 4, (3, 2): 4369,
    (4, 0): 1, (4, 1): 5, (4, 2): 406901,
}

ROUNDED_CELLS = {
    (2, 3): (6.9, 7), (2, 4): (2.2, 31),
    (3, 3): (7.0, 21), (3, 4): (1.1, 131),
    (4, 3): (7.5, 44), (4, 4): (1.0, 359),
}


def test_criterion_01_pure_data_counts():
    for (w, d), want in EXACT_CELLS.items():
        assert count_pure_data(SizeBound(w, d)) == want
        assert oracle_count(w, d) == want
    for (w, d), (mant, exp) in ROUNDED_CELLS.items():
        n = count_pure_data(SizeBound(w, d))
        assert n == oracle_count(w, d)
        assert round(n / 10 ** exp, 1) == mant
    for (w, d), want in EXACT_CELLS.items():
        if want <= 5000:
            assert sum(1 for _ in enumerate_pure_data(SizeBound(w, d))) == want
    ok(1, "pure-data counts match all reference cells, enumeration agrees")


# -- 2 -----------------------------------------------------------------------

BOOL_PRODUCT_PRINTED = {
    ("ID", "ID"): "ID", ("ID", "TRUE"): "TRUE", ("ID", "FALSE"): "FALSE",
    ("ID", "NOT"): "NOT",
    ("TRUE", "ID"): "TRUE", ("TRUE", "TRUE"): "TRUE",
    ("TRUE", "FALSE"): "TRUE", ("TRUE", "NOT"): "TRUE",
    ("FALSE", "ID"): "FALSE", ("FALSE", "TRUE"): "FALSE",
    ("FALSE", "FALSE"): "FALSE", ("FALSE", "NOT"): "FALSE",
    ("NOT", "ID"): "NOT", ("NOT", "TRUE"): "FALSE",
    ("NOT", "FALSE"): "TRUE", ("NOT", "NOT"): "ID",
}

BOOL_SUM_PRINTED = {
    ("ID", "ID"): "ID", ("ID", "TRUE"): "ID", ("ID", "FALSE"): "FALSE",
    ("ID", "NOT"): "FALSE",
    ("TRUE", "ID"): "ID", ("TRUE", "TRUE"): "TRUE",
    ("TRUE", "FALSE"): "FALSE", ("TRUE", "NOT"): "NOT",
    ("FALSE", "ID"): "FALSE", ("FALSE", "TRUE"): "FALSE",
    ("FALSE", "FALSE"): "FALSE", ("FALSE", "NOT"): "FALSE",
    ("NOT", "ID"): "FALSE", ("NOT", "TRUE"): "NOT",
    ("NOT", "FALSE"): "FALSE", ("NOT", "NOT"): "NOT",
}


def test_criterion_02_bool_tables():
    rep = bool_report()
    names = bool_endo_names(rep)
    assert len(rep.endos) == 4
    idx = {n: i for i, n in enumerate(names)}
    for (f, g), want in BOOL_PRODUCT_PRINTED.items():
        assert names[rep.product_table[idx[f]][idx[g]]] == want, (f, g)
    for (f, g), want in BOOL_SUM_PRINTED.items():
        assert names[rep.sum_table[idx[f]][idx[g]]] == want, (f, g)
    assert names[rep.identity] == "ID"
    assert names[rep.zero] == "TRUE"
    ok(2, "bool has 4 endomorphisms with the reference product/sum tables")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_bool_sequence_grid():
    ctx = prelude()
    l2 = bool_seq_truncated(2)
    c2 = extract_carrier(l2, _bool_probes(), cap=16, ctx=ctx)
    assert c2.size == 7
    assert [_colon_count(e) for e in c2.elements] == EXPECTED_COUNTS
    endos = inner_bool_endos(c2)
    t_idx = c2.index_of(((parse("(b:)")[0]),))
    f_idx = c2.index_of(((parse("(b:(:))")[0]),))
    letter = {t_idx: "T", f_idx: "F"}
    for name, _, _ in TABLE_ROWS:
        got = "".join(letter[v] for v in endos[name])
        assert got == EXPECTED_GRID[name], name
    ok(3, "the 8 inner endomorphisms reproduce the reference value grid")


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_language_goldens():
    assert ev("{B} : 1 2 3") == "1 2 3"
    assert ev("{B B} : 1 2 3") == "1 2 3 1 2 3"
    assert ev("{A B} a b : 1 2") == "a b 1 2"
    assert ev("(def first2 : {first 2 : B}) (first2 : a b c d)") == "a b"
    ok(4, "language application goldens match byte-exactly")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_field_criteria_agree():
    ctx = prelude()
    bool_c = extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=4, ctx=ctx)
    carriers = {
        "bool": (bool_c, True),
        "Z2": (zn_carrier(2), True),
        "Z3": (zn_carrier(3), True),
        "Z5": (zn_carrier(5), True),
        "Z4": (zn_carrier(4), False),
        "Z6": (zn_carrier(6), False),
        "sat3": (saturation_carrier(3), False),
        "sat5": (saturation_carrier(5), False),
    }
    for name, (c, want) in carriers.items():
        sub, hom = field_check(c)
        assert sub == hom, f"{name}: criteria disagree"
        assert sub == want, name
    ok(5, "both field criteria agree and match on every analyzed carrier")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_l1_semiring_axioms():
    ctx = prelude()
    l1 = bool_seq_truncated(1)
    c = extract_carrier(l1, _bool_probes(), cap=8, ctx=ctx)
    endos = enumerate_endos(c)
    assert len(endos) == 27
    ident = identity_endo(c)
    zero = zero_endo(c)
    for f in endos:
        assert compose(f, ident) == f and compose(ident, f) == f
        assert oplus(f, zero, c) == f and oplus(zero, f, c) == f
    for f, g, h in itertools.product(endos, repeat=3):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        fg = oplus(f, g, c)
        assert oplus(fg, h, c) == oplus(f, oplus(g, h, c), c)
        assert compose(fg, h) == oplus(compose(f, h), compose(g, h), c)
    ok(6, "all 27 endomorphisms satisfy the semiring axioms exhaustively")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_organic_number_oracles():
    ctx = prelude()
    n_space = parse("is a")
    eng_budget = Budget()
    for m in range(17):
        for n in range(17):
            out = evaluate(apply_to(n_space, a_data(m) + a_data(n)), ctx,
                           eng_budget).result
            assert out == a_data(m + n)
    for p in (2, 3, 5):
        for n in range(33):
            assert rem_value(p, p, n) == n % p
    for z1 in range(-8, 9):
        for z2 in range(-8, 9):
            if abs(z1 + z2) <= 8:
                assert reduce_int(int_data(z1) + int_data(z2)) == z1 + z2
    rng = random.Random(99)
    for _ in range(60):
        mat = tuple(rng.randrange(5) for _ in range(4))
        v = (rng.randrange(3), rng.randrange(3))
        got = matrix_hom(mat, pair_data(*v), ctx)
        assert sort_pair(got) == matrix_action(mat, v)
    m, n = sort_pair(pair_data(1, 2) + pair_data(1, 3))
    g = gcd(m, n)
    assert (m // g, n // g) == (2, 5)
    for n1, d1, n2, d2 in itertools.product(range(13), range(1, 13),
                                            range(13), range(1, 13)):
        got = q_add(QAtom.make(n1, d1), QAtom.make(n2, d2))
        want = Fraction(n1, d1) + Fraction(n2, d2)
        assert (got.as_fraction() if got else Fraction(0)) == want
    assert q_add(QAtom.make(1, 2), QAtom.make(1, 3)) == QAtom(5, 6)
    assert nat_product(3, 4, ctx) == 12
    ok(7, "organic number spaces match the arithmetic oracles on all bounds")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_gaussian():
    report = demo_gaussian()
    assert report.passed, [a.description for a in report.assertions if not a.passed]
    ok(8, "(1+i)^2 = 2i and 20 random Gaussian products match the oracle")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_sets():
    report = demo_sets()
    assert report.passed, [a.description for a in report.assertions if not a.passed]
    ok(9, "sets carrier: 8 elements, semilattice, 6 units, inclusion order")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_seq_goldens():
    ctx = prelude()
    t_src = "(n:a a a) (n:) (n:a a) (n:a) (n:)"
    nseq = seq(parse("is a"), "n")
    summed = evaluate(apply_to(inner(nseq, "n", parse("is a")), parse(t_src)),
                      ctx).result
    assert render(summed) == "(n:a a a a a a)"
    assert ev(f"sort : {t_src}") == "(n:) (n:) (n:a) (n:a a) (n:a a a)"
    assert ev(f"min : {t_src}") == "(n:)"
    assert ev(f"first : {t_src}") == "(n:a a a)"
    assert fibonacci(10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    ok(10, "sum/sort/min/first goldens and fibonacci(10) match")


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_engine_properties():
    from coda.engine import add_definition

    ctx = prelude()
    rng = random.Random(12345)
    ctx_plus = add_definition(ctx, "zzznew", parse("pass"))
    wrapper_head = (word("first"), word("9"))
    for _ in range(1000):
        d = random_data(rng, 2)
        once = evaluate(d, ctx)
        twice = evaluate(d, ctx)
        # determinism
        assert once.result == twice.result
        if once.normalized:
            # normal forms are fixed points
            again = evaluate(once.result, ctx)
            assert again.result == once.result
            # an unrelated definition does not change the result
            assert evaluate(d, ctx_plus).result == once.result
            # congruence soundness: equal data stay equal in a context
            wrapped = evaluate(apply_to(wrapper_head, d), ctx)
            wrapped_nf = evaluate(apply_to(wrapper_head, once.result), ctx)
            if wrapped.normalized and wrapped_nf.normalized:
                assert wrapped.result == wrapped_nf.result
    ok(11, "determinism, idempotence, monotonicity, congruence: 1000 trials")


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_global_algebra():
    ctx = prelude()
    rng = random.Random(777)
    probes = ProbeSet((parse(""), parse("(:)"), parse("a")))
    checked = 0
    for _ in range(1000):
        a, b, x = (random_data(rng, 1) for _ in range(3))
        eng = Engine(ctx, Budget(max_steps=5_000, max_nodes=100_000))
        # composition law
        lhs = eng.eval_data(apply_to(product(a, b), x))
        rhs = eng.eval_data(apply_to(a, apply_to(b, x)))
        if not eng.exhausted:
            assert lhs == rhs
        # pointwise sum law
        eng = Engine(ctx, Budget(max_steps=5_000, max_nodes=100_000))
        lhs = eng.eval_data(apply_to(sum_data(a, b), x))
        rhs = eng.eval_data(apply_to(a, x) + apply_to(b, x))
        if not eng.exhausted:
            assert lhs == rhs
            checked += 1
    assert checked > 500
    for _ in range(334):
        a, b, c = (random_data(rng, 1) for _ in range(3))
        v = check_right_distributivity(a, b, c, probes, ctx)
        assert not v.refuted, str(v)
    # the left-hand law fails: a concrete self-verifying counterexample
    from coda.algebra import check_left_distributivity

    v = check_left_distributivity(parse("pass"), parse("pass"), parse("bool"),
                                  ProbeSet((parse(""), parse("(:)"))))
    assert v.refuted and v.witness.still_violates(ctx)
    ok(12, "composition/sum laws and right distributivity hold; "
           "left distributivity refuted with a live witness")
