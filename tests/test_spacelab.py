import collections
import hashlib
import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings, strategies as st

from coda.algebra import (
    REFUTED,
    ProbeSet,
    check_associative,
    default_probes,
    product,
    product_chain,
    sum_data,
)
from coda.encoding import lang_atom, word
from coda.engine import DEFAULT_BUDGET, Budget, Engine, TriBool, equal
from coda.lang import parse
from coda.organic import (
    REM_PROGRAMS,
    T_ELEM,
    _bool_probes,
    bool_seq_truncated,
    bounded_n_carrier,
    rem_value,
    sets_space,
)
from coda.prelude import prelude
from coda import spacelab
from coda.spacelab import (
    CarrierOverflow,
    CarrierTable,
    EndoFlags,
    NotASpace,
    TooManyEndos,
    carrier_from_function,
    classify,
    compose,
    constant_endo,
    enumerate_endos,
    extract_carrier,
    field_check,
    homomorphisms,
    identity_endo,
    induced_endo,
    inverse_of,
    is_cancellative,
    is_commutative,
    is_homomorphism,
    is_idempotent,
    is_subspace,
    iso_check,
    isomorphisms,
    oplus,
    render_report,
    render_table,
    saturation_carrier,
    zn_carrier,
    zero_endo,
)
from coda.terms import COLON, CapExceeded, Coda, data_key

from conftest import SAFE_WORDS, random_data, words_over


SETS_PROBES = ProbeSet(((), (word("a"),), (word("b"),), (word("c"),), parse("a b c")))


def bool_carrier():
    return extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=4)


def test_bool_carrier():
    c = bool_carrier()
    assert c.size == 2
    assert c.closed
    assert c.label(c.neutral) == "()"
    assert monoid_by_loop(c)
    # the sum is logical or
    assert c.add == ((0, 1), (1, 1))


def assert_counting_table(c, n, add):
    """c is {0..n-1} labelled "0".."n-1", with neutral 0 and sum add."""
    assert c.labels == tuple(map(str, range(n))) and c.neutral == 0
    assert c.add == tuple(tuple(add(x, y) for y in range(n)) for x in range(n))


def test_zn_carrier_monoid():
    # the engine's `while remove a^n` against the stdlib's (x + y) % n
    for n in range(1, 25):
        c = zn_carrier(n)
        assert_counting_table(c, n, lambda x, y: (x + y) % n)
        assert c.elements == tuple((word("a"),) * k for k in range(n))
        assert monoid_by_loop(c)
        assert is_commutative(c)
        assert is_cancellative(c)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be at least 1"):
            zn_carrier(n)


def test_saturation_carrier():
    # the engine's `first q-1` against the stdlib's min(x + y, q - 1)
    for q in range(1, 25):
        assert_counting_table(saturation_carrier(q), q, lambda x, y: min(x + y, q - 1))
    c = saturation_carrier(3)
    assert c.add[2][2] == 2
    assert not is_cancellative(c)
    for q in (0, -1):
        with pytest.raises(ValueError, match="^q must be at least 1"):
            saturation_carrier(q)


def test_chinese_remainder_on_extracted_carriers():
    # Z_m x Z_n on the disjoint letters a and b is Z_mn exactly when m and n
    # are coprime, and then it has phi(mn) isomorphisms to Z_mn
    for m, n in itertools.product(range(2, 6), repeat=2):
        zm_zn = sum_data(product(parse("while remove" + " a" * m), parse("is a")),
                         product(parse("while remove" + " b" * n), parse("is b")))
        c = extract_carrier(zm_zn, ProbeSet(((word("a"),), (word("b"),))), cap=m * n)
        assert c.size == m * n and c.closed
        phi = sum(math.gcd(k, m * n) == 1 for k in range(m * n))
        assert len(list(isomorphisms(c, zn_carrier(m * n)))) == (
            phi if math.gcd(m, n) == 1 else 0)


def test_open_carrier_from_function():
    c = carrier_from_function(range(4), lambda x, y: x + y, 0)
    assert not c.closed
    assert c.add[3][3] is None


def test_closed_is_no_undefined_sum():
    # sums that exhaust the probes' budget: Z3, whose a + a a and a a + a a
    # take more than 3 steps to reduce
    exhausting = ProbeSet(((), (word("a"),), parse("a a")), Budget(max_steps=3))
    z3 = extract_carrier(parse("while remove a a a"), exhausting)
    assert z3.add == ((0, 1, 2), (1, 2, None), (2, None, None))
    with pytest.raises(CarrierOverflow):  # a sum past the cap refuses: it is never None
        extract_carrier(parse("pass"), default_probes(), cap=1)
    carriers = [
        bool_carrier(),
        z3,
        zn_carrier(3),
        carrier_from_function(range(4), lambda x, y: x + y, 0),
        carrier_from_function(range(2), lambda x, y: None, 0),
    ]
    assert [c.closed for c in carriers] == [True, False, True, False, False]
    for c in carriers:
        assert c.closed == all(None not in row for row in c.add)


def test_carrier_cap_bounds_only_the_elements_sums_add():
    # the neutral's and the probes' normal forms are kept past the cap
    first2 = extract_carrier(parse("first 2"), default_probes(), cap=5)
    assert first2.size == 91 and first2.closed
    b = extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=1)
    assert b.size == 2 and b.closed


def test_refusals_are_cap_exceeded():
    assert issubclass(CarrierOverflow, CapExceeded)
    assert issubclass(TooManyEndos, CapExceeded)


def test_endo_algebra():
    c = zn_carrier(4)
    f = (0, 2, 0, 2)
    g = identity_endo(c)
    assert compose(f, g) == f
    assert compose(g, f) == f
    assert oplus(f, zero_endo(c), c) == f
    assert is_homomorphism(f, c)
    assert not is_homomorphism((1, 1, 1, 1), c)
    assert is_idempotent(constant_endo(c, 2))


def test_enumerate_endos_and_cap():
    c = zn_carrier(3)
    endos = enumerate_endos(c)
    assert len(endos) == 27
    with pytest.raises(TooManyEndos):
        enumerate_endos(zn_carrier(8))


def test_classify_bool():
    c = bool_carrier()
    rep = classify(c, enumerate_endos(c))
    assert len(rep.endos) == 4
    assert len(rep.units()) == 2
    assert len(rep.constants()) == 2
    assert rep.semilattice and rep.algebraic
    assert not rep.neutral_space
    assert rep.field == (True, True)


def test_classify_matches_brute_force():
    l1 = extract_carrier(bool_seq_truncated(1), _bool_probes(), cap=8)
    for c in (zn_carrier(3), saturation_carrier(3), bool_carrier(), l1):
        assert c.closed
        add, pairs = c.add, list(itertools.product(range(c.size), repeat=2))
        endos = enumerate_endos(c)
        rep = classify(c, endos)
        units = [f for f in endos if inverse_of(f) in endos]
        assert rep.units() == [endos.index(u) for u in units]
        assert rep.identity == endos.index(tuple(range(c.size)))
        assert rep.zero == endos.index((c.neutral,) * c.size)
        for f, flags in zip(endos, rep.flags):
            idempotent = compose(f, f) == f
            assert flags == EndoFlags(
                constant=len(set(f)) == 1,
                homomorphism=all(f[add[i][j]] == add[f[i]][f[j]] for i, j in pairs),
                unit=f in units,
                central=all(compose(f, u) == compose(u, f) for u in units),
                idempotent=idempotent,
                subspace=idempotent and all(
                    f[add[i][j]] == f[add[f[i]][j]] == f[add[i][f[j]]]
                    for i, j in pairs
                ),
            )
    with pytest.raises(ValueError):
        classify(l1, enumerate_endos(l1) + [identity_endo(l1)])


def test_classify_rejects_malformed_endos():
    # a mixed-radix index would alias (0, 2) onto (1, 0) on two elements
    c = bool_carrier()
    full = enumerate_endos(c)
    for bad in ((0, 2), (0, -1), (0, 1, 1), (1,), [1, 0]):
        with pytest.raises(ValueError):
            classify(c, full + [bad])
    with pytest.raises(ValueError, match="^endo list must contain the identity and zero maps$"):
        classify(zn_carrier(2), [(0, 0), (1, 1)])


def test_extracted_table_matches_fresh_engines():
    # the table is read from the walk's graph, whose sums share one
    # engine's memo; recompute every entry with its own engine
    cases = (
        (parse("bool"), ProbeSet(((), (COLON,))), 4),
        (sets_space(), SETS_PROBES, 16),
        (bool_seq_truncated(1), _bool_probes(), 8),
        (bool_seq_truncated(3), _bool_probes(), 64),
        (parse("first 2"), default_probes(), 64),
    )
    for space, probes, cap in cases:
        c = extract_carrier(space, probes, cap=cap)
        assert c.closed
        table = []
        for x in c.elements:
            row = []
            for y in c.elements:
                eng = Engine(prelude(), probes.budget)
                s = eng.eval_data((Coda(space, x + y),))
                assert not eng.exhausted
                row.append(c.index_of(s))
            table.append(tuple(row))
        assert c.add == tuple(table)


def extract_by_fresh_engines(space, probes, cap):
    """`extract_carrier` with a fresh engine for each normal form, keyed by
    the data themselves: the reference for the windows of one engine."""
    budget, space = probes.budget, tuple(space)

    def normalize(x):
        eng = Engine(prelude(), budget)
        out = eng.eval_data((Coda(space, tuple(x)),))
        return None if eng.exhausted else out

    seen = {}
    neutral_elem = normalize(())
    if neutral_elem is None:
        raise CarrierOverflow("budget exhausted while normalizing the neutral")
    seen[neutral_elem] = None
    for p in probes.probes:
        e = normalize(p)
        if e is not None:
            seen[e] = None
    sums = {}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for y in list(seen):
                for a, b in ((x, y), (y, x)):
                    s = sums[a, b] = normalize(a + b)
                    if s is not None and s not in seen:
                        if len(seen) >= cap:
                            raise CarrierOverflow(f"more than {cap} carrier elements")
                        seen[s] = None
                        new.append(s)
        frontier = new
    elements = tuple(sorted(seen, key=data_key))
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(tuple(index.get(sums[x, y]) for y in elements) for x in elements)
    return CarrierTable(elements=elements, neutral=index[neutral_elem], add=table)


def _extraction(space, probes, cap):
    try:
        return extract_carrier(space, probes, cap=cap)
    except CarrierOverflow as exc:
        return str(exc)


def _reference_extraction(space, probes, cap):
    try:
        return extract_by_fresh_engines(space, probes, cap)
    except CarrierOverflow as exc:
        return str(exc)


def matches_fresh_engines(space, probes, cap):
    """Whether the extraction is the reference's carrier or cap refusal, or
    else a NotASpace refusal whose witness re-checks in a fresh engine where
    the reference is a table that is no monoid or a cap refusal.  Returns
    the kind of outcome, or False."""
    reference = _reference_extraction(space, probes, cap)
    try:
        got = _extraction(space, probes, cap)
    except NotASpace as exc:
        refused = isinstance(reference, str) or not monoid_by_loop(reference)
        return refused and exc.witness.still_violates() and "NotASpace"
    return got == reference and ("refusal" if isinstance(got, str) else "carrier")


SPACE_WORDS = SAFE_WORDS + ("def", "f", "sort", "once", "is", "last")


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8),
       st.sampled_from([Budget(max_steps=n) for n in range(1, 13)] + [Budget()]))
def test_extraction_on_one_engine_matches_fresh_engines(rng, cap, budget):
    space = random_data(rng, 2, words=SPACE_WORDS)
    probes = ProbeSet(tuple(random_data(rng, 2, words=SPACE_WORDS)
                            for _ in range(rng.randrange(1, 5))) + (parse("(def f : a) (f : b)"),), budget)
    assert matches_fresh_engines(space, probes, cap)


@pytest.mark.parametrize("src", ["pass", "sort", "once", "not", "rev"])
def test_extraction_past_the_first_frontier_matches_fresh_engines(src):
    # sums of the probes' sums are found in later frontiers, from pairs the
    # first one does not repeat; `not` lists its neutral second, and is no
    # space: (:) + (:) is ()
    probes = ProbeSet(((), (word("a"),), (word("b"),)))
    for cap in (3, 5, 8, 20):
        outcome = matches_fresh_engines(parse(src), probes, cap)
        assert outcome and (src == "not") == (outcome == "NotASpace"), cap


@pytest.mark.parametrize("space, probes, cap, size, walked", [
    (parse("bool"), ProbeSet(((), (COLON,))), 4, 2, 3),
    (sets_space(), SETS_PROBES, 16, 8, 25),
    (bool_seq_truncated(1), _bool_probes(), 8, 3, 7),
    (bool_seq_truncated(2), _bool_probes(), 16, 7, 15),
    (bool_seq_truncated(3), _bool_probes(), 64, 15, 31),
    (parse("first 2"), default_probes(), 64, 91, 820),
], ids=["bool", "sets", "L1", "L2", "L3", "first 2"])
def test_extraction_normalisation_counts(monkeypatch, space, probes, cap, size, walked):
    # the walk normalises the neutral, each probe, one sum per element and
    # generator, and the identity laws, and no datum twice; Light's test
    # reads only the table
    seen = []
    normalize = spacelab._normalize
    monkeypatch.setattr(spacelab, "_normalize", lambda *args: seen.append(args[2]) or normalize(*args))
    c = extract_carrier(space, probes, cap=cap)
    assert c.size == size and c.closed
    assert len(seen) == walked
    assert len(set(seen)) == len(seen)


WALK_TOKENS = ("not", "bool", "rev", "first", "last", "min", "once", "sort", "pass", "a",
               "{B a}", "{a B}", "{B B}")


def test_walk_matches_the_pairs_on_short_spaces(monkeypatch):
    # every one- and two-token space, against the pairs of fresh engines:
    # the same carrier or cap refusal, or NotASpace where the pairs' table is
    # no monoid (every `not`-headed space: (:) + (:) is ()) or where they
    # refuse at the cap after a failed law; no extraction normalises a
    # datum twice
    seen = []
    normalize = spacelab._normalize
    monkeypatch.setattr(spacelab, "_normalize", lambda *args: seen.append(args[2]) or normalize(*args))
    probes = ProbeSet(((), (word("a"),), (word("b"),)))
    outcomes, refused_not = collections.Counter(), 0
    for tokens in itertools.chain.from_iterable(
            itertools.product(WALK_TOKENS, repeat=n) for n in (1, 2)):
        for cap in (3, 5, 8, 20):
            seen.clear()
            outcome = matches_fresh_engines(parse(" ".join(tokens)), probes, cap)
            assert outcome, (tokens, cap)
            assert len(set(seen)) == len(seen), (tokens, cap)
            assert (tokens[0] == "not") <= (outcome == "NotASpace"), (tokens, cap)
            outcomes[outcome] += 1
            refused_not += tokens[0] == "not"
    assert outcomes == {"carrier": 255, "NotASpace": 224, "refusal": 249} and refused_not == 56


@pytest.mark.parametrize("src", ["pass", "sort"])
def test_the_walk_refuses_at_the_cap_by_itself(monkeypatch, src):
    # `pass` and `sort` are infinite over a and b: the walk raises at the
    # cap, and no datum is normalised twice
    seen = []
    normalize = spacelab._normalize
    monkeypatch.setattr(spacelab, "_normalize", lambda *args: seen.append(args[2]) or normalize(*args))
    probes = ProbeSet(((), (word("a"),), (word("b"),)))
    for cap in (3, 5, 8, 20):
        seen.clear()
        with pytest.raises(CarrierOverflow, match=f"^more than {cap} carrier elements$"):
            extract_carrier(parse(src), probes, cap=cap)
        assert len(set(seen)) == len(seen), cap
    assert len(seen) == 21  # the neutral, a, b and 18 sums


def test_a_table_that_is_not_the_sum_is_refused():
    # x + y is read along y's word, so a composition that is no space can
    # read a table that is not even the engine's sum: b + a a as a b, where
    # (prod (:sort) (:last 2) : b a a) is a a.  Light's test refuses it
    space = product(parse("sort"), parse("last 2"))
    probes = ProbeSet(((), (word("a"),), (word("b"),)))
    with pytest.raises(NotASpace, match="^associativity fails: ") as refusal:
        extract_carrier(space, probes)
    assert refusal.value.witness.still_violates()
    assert not monoid_by_loop(extract_by_fresh_engines(space, probes, 64))
    # with first 2, every sum on the walk is the engine's, so the witness
    # is the triple at which Light's test fails
    with pytest.raises(NotASpace, match="^associativity fails: ") as refusal:
        extract_carrier(product(parse("sort"), parse("first 2")), probes)
    assert refusal.value.witness.probes == tuple((word(w),) for w in "aba")
    assert refusal.value.witness.still_violates()


def test_a_refutation_is_rechecked_under_the_extraction_budget():
    # slow is an identity whose one evaluation takes more steps than the
    # default budget allows, so `not` after it fails right identity only
    # under the probes' larger budget; the refusal's witness re-checks there
    slow = (lang_atom("B (first 0 : " + "(pass:a) " * DEFAULT_BUDGET.max_steps + ")"),)
    probes = ProbeSet(((), (COLON,)), Budget(10 ** 7, 10 ** 8))
    with pytest.raises(NotASpace, match="^right identity fails: ") as refusal:
        extract_carrier(product(parse("not"), slow), probes)
    assert refusal.value.witness.still_violates()
    assert not refusal.value.witness.still_violates(budget=DEFAULT_BUDGET)


def test_a_law_the_engine_cannot_refute_fails_nothing():
    # (a (pass:) : (a:) (a:)) exhausts the one step, so e + e is an
    # exhausted sum, None as the pairs give it; (def:) (def:b) is not b's
    # normal form (def:b), but three-valued equality cannot tell them
    # apart, so the walk goes on to the cap, as the pairs do
    b = (word("b"),)
    exhausting = ProbeSet(((), b), Budget(max_steps=1))
    assert matches_fresh_engines(parse("a (pass:)"), exhausting, 8) == "carrier"
    assert extract_carrier(parse("a (pass:)"), exhausting).add == ((None, None), (None, None))
    assert equal(parse("(def:(def:) (def:b))"), parse("(def:b)"), prelude()) is TriBool.UNDECIDED
    assert matches_fresh_engines(parse("def"), ProbeSet(((), b)), 6) == "refusal"


ITEM_22_COMPOSITIONS = [("once", "first 2"), ("once", "last 3"), ("first 2", "last 3"),
                        ("last 2", "first 3"), ("once rev", "first 2"), ("once rev", "last 3")]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the walk reads x + y along y's word, "
                                       "and these tables hold sums that are not the engine's")
@pytest.mark.parametrize("parts", ITEM_22_COMPOSITIONS, ids=["/".join(p) for p in ITEM_22_COMPOSITIONS])
def test_compositions_with_wrong_sums_are_refused(parts):
    # the extraction returns a table with 2, 4, 12, 12, 2 and 4 entries unlike
    # a fresh engine's sum, where the reference table is no monoid
    space = product_chain(*map(parse, parts))
    assert matches_fresh_engines(space, ProbeSet(((), (word("a"),), (word("b"),))), 30)


@pytest.mark.parametrize("parts", ITEM_22_COMPOSITIONS, ids=["/".join(p) for p in ITEM_22_COMPOSITIONS])
def test_compositions_with_wrong_sums_are_refuted_on_words(parts):
    # default_probes(("a", "b")) holds no word of two letters, and first 2 /
    # last 3 and last 2 / first 3 hold on it; () and the 14 words of length
    # 1-3 over a and b refute all six, with a witness that re-checks
    verdict = check_associative(product_chain(*map(parse, parts)), ProbeSet(((),) + words_over("ab", 3)))
    assert verdict.status == REFUTED and verdict.witness.still_violates()


def monoid_by_loop(c):
    """Whether `c` is a monoid: the identity laws, and every triple's
    associativity wherever the table is defined."""
    n, e = c.size, c.neutral
    if any(c.add[e][i] != i or c.add[i][e] != i for i in range(n)):
        return False
    for i, j, k in itertools.product(range(n), repeat=3):
        ij, jk = c.add[i][j], c.add[j][k]
        if ij is not None and jk is not None:
            left, right = c.add[ij][k], c.add[i][jk]
            if left is not None and right is not None and left != right:
                return False
    return True


def test_light_test_matches_every_triple():
    # every table on three elements with neutral 0; the tables whose
    # neutral is an identity, with any of their other sums undefined; and
    # the carriers of the lab
    elements = tuple((word(str(i)),) for i in range(3))
    tables = [(add[:3], add[3:6], add[6:]) for add in itertools.product(range(3), repeat=9)]
    tables += [((0, 1, 2), (1, a, b), (2, c, d))
               for a, b, c, d in itertools.product((0, 1, 2, None), repeat=4)]
    carriers = [CarrierTable(elements, 0, add) for add in tables]
    carriers += [zn_carrier(n) for n in (1, 2, 3, 4, 6)] + [saturation_carrier(q) for q in (2, 3, 7)]
    carriers += [bool_carrier(), extract_carrier(sets_space(), SETS_PROBES, cap=16),
                 carrier_from_function(range(4), lambda x, y: x + y, 0)]
    carriers += [extract_carrier(bool_seq_truncated(k), _bool_probes(), cap=64) for k in (1, 2, 3)]
    # the identity laws, and Light's test over every element but the neutral
    verdicts = [all(c.add[c.neutral][i] == i == c.add[i][c.neutral] for i in range(c.size))
                and spacelab._light(c.add, [g for g in range(c.size) if g != c.neutral]) is None
                for c in carriers]
    assert verdicts == [monoid_by_loop(c) for c in carriers]
    assert 0 < sum(verdicts[:len(tables)]) < len(tables) and all(verdicts[len(tables):])


def reordered(c, order):
    """c with its elements listed in `order`, a permutation of its indices."""
    return carrier_from_function(order, lambda i, j: c.add[i][j], c.neutral)


def respects_by_loop(a, b, f):
    """Reference for the homomorphism law: f[i + j] == f[i] + f[j], the left
    sum in carrier a and the right one in b, wherever both are defined."""
    for i, row in enumerate(a.add):
        image_row = b.add[f[i]]
        for j, ij in enumerate(row):
            fij = image_row[f[j]]
            if ij is not None and fij is not None and f[ij] != fij:
                return False
    return True


def is_subspace_by_loop(f, c):
    """Reference for the subspace law: idempotent, and f(x+y) = f(f(x)+y) =
    f(x+f(y)) wherever defined."""
    if not is_idempotent(f):
        return False
    for i in range(c.size):
        for j in range(c.size):
            ij = c.add[i][j]
            fi_j = c.add[f[i]][j]
            i_fj = c.add[i][f[j]]
            if ij is None:
                continue
            if fi_j is not None and f[ij] != f[fi_j]:
                return False
            if i_fj is not None and f[ij] != f[i_fj]:
                return False
    return True


def field_check_by_scan(c):
    """Reference for field_check: test every endofunction, in product order."""
    n = c.size
    ident = tuple(range(n))
    subspaces_ok = True
    homs_ok = True
    for m in itertools.product(range(n), repeat=n):
        distinct = len(set(m))
        if distinct <= 1:
            continue
        if subspaces_ok and m != ident and is_subspace_by_loop(m, c):
            subspaces_ok = False
        if homs_ok and distinct != n and respects_by_loop(c, c, m):
            homs_ok = False
        if not subspaces_ok and not homs_ok:
            break
    return subspaces_ok, homs_ok


def test_field_check_verdicts():
    z7 = zn_carrier(7)
    l2 = extract_carrier(bool_seq_truncated(2), _bool_probes(), cap=16)
    assert l2.size == 7 and l2.closed
    rng = random.Random(7)
    z7_shuffled, l2_shuffled = (
        reordered(c, rng.sample(range(7), 7)) for c in (z7, l2)
    )
    fields = [bool_carrier(), zn_carrier(2), zn_carrier(3), zn_carrier(5),
              z7, z7_shuffled]
    non_fields = [zn_carrier(4), zn_carrier(6), saturation_carrier(3),
                  saturation_carrier(7), l2, l2_shuffled]
    for c in fields:
        assert field_check(c) == (True, True)
    for c in non_fields:
        assert field_check(c) == (False, False)


def test_field_check_past_seven_elements():
    for p in (11, 13, 17, 19, 23):
        assert field_check(zn_carrier(p)) == (True, True)
    for c in (zn_carrier(8), zn_carrier(9), zn_carrier(12), saturation_carrier(8),
              saturation_carrier(16)):
        assert field_check(c) == (False, False)


def test_map_searches_past_the_work_bound_are_refused(monkeypatch):
    z11 = zn_carrier(11)
    assert field_check(z11) == (True, True)
    monkeypatch.setattr(spacelab, "SEARCH_WORK_CAP", 100)
    searches = (lambda: field_check(z11), lambda: list(homomorphisms(z11, z11)),
                lambda: iso_check(z11, reordered(z11, [0, *range(10, 0, -1)])))
    for search in searches:
        with pytest.raises(TooManyEndos):
            search()
    assert classify(z11, [identity_endo(z11), zero_endo(z11)]).field is None


def test_subspace_search_reads_every_candidate():
    # an open table: sums past 2 are undefined.  A map from which nothing
    # new follows is read once, so `_settle` counts, for each known image,
    # f[f[i]] = f[i] and two candidates per y, also those with an
    # undefined sum or with neither side known
    open3 = carrier_from_function(range(3), lambda x, y: x + y, 0)
    assert open3.add == ((0, 1, 2), (1, 2, None), (2, None, None))
    equations = spacelab._subspace_equations(open3.add)
    for f in ([None, 1, None], [None, 2, 2], [0, 1, 2]):
        known = sum(v is not None for v in f)
        assert spacelab._settle(list(f), equations) == (True, known * (1 + 2 * 3)), f


@st.composite
def small_tables(draw):
    """Arbitrary operation tables on 1 to 5 elements: rarely associative,
    and open (with None entries) about half the time."""
    n = draw(st.integers(1, 5))
    entry = st.integers(0, n - 1)
    if draw(st.booleans()):
        entry = st.none() | entry
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    add = draw(st.lists(row, min_size=n, max_size=n).map(tuple))
    return CarrierTable(
        elements=tuple((word(str(i)),) for i in range(n)),
        neutral=0,
        add=add,
    )


@seed(7)
@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_field_check_matches_scan(c):
    assert field_check(c) == field_check_by_scan(c)


@seed(7)
@settings(max_examples=100, deadline=None)
@given(small_tables().filter(lambda c: c.size <= 4))
def test_settled_complete_map_satisfies_the_law(c):
    # one statement of each law decides a single map and lists the maps
    endos = enumerate_endos(c)
    for f in endos:
        assert is_homomorphism(f, c) == respects_by_loop(c, c, f)
        assert is_subspace(f, c) == is_subspace_by_loop(f, c)
    assert list(homomorphisms(c, c)) == [f for f in endos if respects_by_loop(c, c, f)]


def maps_by_scan(a, b):
    """Reference for Hom(a, b): every map from a's elements to b's, in
    lexicographic order, that respects the sum."""
    return [f for f in itertools.product(range(b.size), repeat=a.size)
            if respects_by_loop(a, b, f)]


@seed(7)
@settings(max_examples=100, deadline=None)
@given(st.tuples(small_tables(), small_tables()).filter(lambda cs: cs[0].size != cs[1].size))
def test_hom_between_tables_of_different_sizes_matches_scan(cs):
    c1, c2 = cs
    assert list(homomorphisms(c1, c2)) == maps_by_scan(c1, c2)


def test_hom_between_cyclic_groups():
    # Hom(Z_m, Z_n) is x -> k x for each k with m k = 0 mod n: gcd(m, n) maps
    for m, n in itertools.product(range(1, 13), repeat=2):
        homs = list(homomorphisms(zn_carrier(m), zn_carrier(n)))
        assert len(homs) == math.gcd(m, n)
        assert homs == sorted(tuple(k * x % n for x in range(m)) for k in range(n) if m * k % n == 0)


def test_hom_between_saturations():
    # row q lists |Hom(sat_q, sat_r)| for r = 1..6; the truncation x ->
    # min(x, r - 1) is an arrow when r <= q, and from sat1, whose one
    # element goes to 0; else 1 + (q - 1) is q - 1 in sat_q but not in sat_r
    counts = [[1, 2, 2, 2, 2, 2], [1, 3, 3, 3, 3, 3], [1, 3, 4, 4, 5, 5],
              [1, 3, 4, 5, 5, 6], [1, 3, 4, 5, 6, 6], [1, 3, 4, 5, 6, 7]]
    for q, r in itertools.product(range(1, 7), repeat=2):
        a, b = saturation_carrier(q), saturation_carrier(r)
        homs = list(homomorphisms(a, b))
        assert homs == maps_by_scan(a, b) and len(homs) == counts[q - 1][r - 1]
        assert (tuple(min(x, r - 1) for x in range(q)) in homs) == (r <= q or q == 1)
    # semigroup maps: Z4 -> sat4 also sends everything to the absorbing 3
    sat4, z4 = saturation_carrier(4), zn_carrier(4)
    assert list(homomorphisms(sat4, z4)) == [(0, 0, 0, 0)]
    assert list(homomorphisms(z4, sat4)) == [(0, 0, 0, 0), (3, 3, 3, 3)]


def test_hom_between_the_boolean_sequence_spaces():
    # bool, L1, L2, L3: |Hom| between every two, checked against the scan
    # wherever there are at most 10^5 maps
    carriers = [bool_carrier()] + [
        extract_carrier(bool_seq_truncated(n), _bool_probes(), cap=64) for n in (1, 2, 3)]
    counts = [[3, 5, 9, 17], [3, 7, 21, 73], [3, 7, 41, 153], [3, 7, 41, 205]]
    homs = {}
    for (i, a), (j, b) in itertools.product(enumerate(carriers), repeat=2):
        homs[i, j] = list(homomorphisms(a, b))
        assert len(homs[i, j]) == counts[i][j]
        if b.size ** a.size <= 10 ** 5:
            assert homs[i, j] == maps_by_scan(a, b)

    def arrow(i, j, image):
        return tuple(carriers[j].index_of(image(x)) for x in carriers[i].elements)

    # the truncations L3 -> L2 -> L1 are arrows; the inclusions are not,
    # since in L1 T + F is T, the sum cut to length 1, and in L2 it is T F
    for i in (2, 3):
        assert arrow(i, i - 1, lambda x: x[:i - 1]) in homs[i, i - 1]
        assert arrow(i - 1, i, lambda x: x) not in homs[i - 1, i]
    # L1 -> bool sends every non-empty element to (:), bool -> L1 sends (:) to T
    assert arrow(1, 0, lambda x: (COLON,) if x else ()) in homs[1, 0]
    assert arrow(0, 1, lambda x: T_ELEM if x else ()) in homs[0, 1]


def test_hom_between_sets_spaces_includes_the_inclusion():
    p2 = extract_carrier(product_chain(parse("sort"), parse("once"), parse("is a b")),
                         ProbeSet(((), (word("a"),), (word("b"),), parse("a b"))), cap=16)
    p3 = extract_carrier(sets_space(), SETS_PROBES, cap=16)
    homs = list(homomorphisms(p2, p3))
    assert len(homs) == 125 and homs == maps_by_scan(p2, p3)
    assert tuple(p3.index_of(x) for x in p2.elements) in homs


def fill_by_entry(c, endos):
    """Reference for classify's tables: one compose/oplus per entry."""
    pos = {e: i for i, e in enumerate(endos)}
    product = [[pos.get(compose(f, g)) for g in endos] for f in endos]
    sums = [[pos.get(oplus(f, g, c)) for g in endos] for f in endos]
    return product, sums


def rows_of(rep):
    """A report's tables read row by row, each row as a list."""
    return [list(row) for row in rep.product_table], [list(row) for row in rep.sum_table]


@seed(7)
@settings(max_examples=40, deadline=None)
@given(small_tables().filter(lambda c: c.size <= 4), st.randoms(use_true_random=False))
def test_classify_fills_tables_as_by_entry(c, rng):
    full = enumerate_endos(c)
    kept = {identity_endo(c), zero_endo(c)}
    sub = [f for f in rng.sample(full, rng.randint(0, len(full))) if f not in kept]
    for f in kept:
        sub.insert(rng.randint(0, len(sub)), f)
    for endos in (full, sub):
        rep = classify(c, endos)
        want = fill_by_entry(c, endos)
        # a row read first, by index from either end or in a slice, is the
        # row that a later read in order finds
        i = rng.randrange(len(endos))
        assert list(rep.sum_table[i - len(endos)]) == want[1][i]
        assert [list(row) for row in rep.product_table[i:]] == want[0][i:]
        assert rows_of(rep) == want


def open_maps(size, rng):
    """An open carrier, in which a sum of `size` or more is undefined, and
    maps of small images with their sums and composites listed, so that both
    tables hold hits and misses."""
    c = carrier_from_function(range(size), lambda x, y: x + y, 0)
    small = [tuple(rng.randrange(4) for _ in range(size)) for _ in range(12)]
    listed = set(small) | {identity_endo(c), zero_endo(c)}
    listed |= {oplus(f, g, c) for f in small for g in small}
    listed |= {compose(f, g) for f in small for g in small}
    listed.add(constant_endo(c, size - 1))  # its sum with itself is undefined everywhere
    return c, sorted(listed)


def test_classify_fills_tables_past_one_word():
    # past 8 elements an endo's packed key spans two 8-byte words, and past
    # 16 three
    l3 = extract_carrier(bool_seq_truncated(3), _bool_probes(), cap=64)
    homs = list(homomorphisms(l3, l3))
    assert (l3.size, len(homs)) == (15, 205)
    rng = random.Random(11)
    for c, maps in ((l3, homs), open_maps(10, rng), open_maps(17, rng)):
        product, sums = rows_of(classify(c, maps))
        assert (product, sums) == fill_by_entry(c, maps)
        cells = [v for row in product + sums for v in row]
        assert None in cells and any(v is not None for v in cells)


def test_classify_reads_matrices_on_the_homomorphisms_of_z2_cubed():
    # End(Z2^3) is M3(F2): a homomorphism f is the matrix whose columns are
    # the images of the basis 1, 2, 4, and the flags classify reads off the
    # 512 homomorphisms are checked against the 512 matrices themselves
    c = carrier_from_function(range(8), operator.xor, 0)
    homs = list(homomorphisms(c, c))
    rep = classify(c, homs)

    def apply(m, v):
        out = 0
        for k, column in enumerate(m):
            if v >> k & 1:
                out ^= column
        return out

    def times(m, n):
        return tuple(apply(m, column) for column in n)

    matrices = list(itertools.product(range(8), repeat=3))
    invertible = {m for m in matrices if len({apply(m, v) for v in range(8)}) == 8}
    idempotent = {m for m in matrices if times(m, m) == m}
    central = {m for m in matrices if all(times(m, u) == times(u, m) for u in invertible)}
    assert (len(matrices), len(invertible), len(idempotent), len(central)) == (512, 168, 58, 2)
    assert sorted((f[1], f[2], f[4]) for f in homs) == matrices
    for f, flags in zip(homs, rep.flags):
        m = (f[1], f[2], f[4])
        assert f == tuple(apply(m, v) for v in range(8))
        assert (flags.homomorphism, flags.unit, flags.idempotent, flags.central) == (
            True, m in invertible, m in idempotent, m in central)
    counts = [sum(getattr(flags, name) for flags in rep.flags) for name in ("unit", "idempotent", "central")]
    assert counts == [168, 58, 2]


def test_classify_refuses_past_255_elements():
    c = zn_carrier(256)
    with pytest.raises(CarrierOverflow):
        classify(c, [identity_endo(c), zero_endo(c)])


def test_field_check_matches_scan_in_every_element_order():
    sat4 = saturation_carrier(4)
    for order in itertools.permutations(range(4)):
        c = reordered(sat4, order)
        assert field_check(c) == field_check_by_scan(c) == (False, False)


def test_subspace_example():
    c = zn_carrier(4)
    assert is_subspace((0, 1, 0, 1), c)  # reduction mod 2
    assert not is_subspace((0, 2, 0, 2), c)  # a hom, but not idempotent-compatible
    assert is_subspace(identity_endo(c), c)


def test_induced_endo():
    c = bounded_n_carrier()
    for (p, q), src in REM_PROGRAMS.items():
        assert induced_endo(c, parse(src)) == tuple(rem_value(p, q, n) for n in range(17)), src
    for k in range(5):
        program = product(parse("first 16"), parse("ap const" + " a" * k))
        assert induced_endo(c, program) == tuple(min(k * n, 16) for n in range(17)), k
    # a^9 goes to a^18, which is not an element
    with pytest.raises(ValueError, match="not an element"):
        induced_endo(c, parse("ap const a a"))
    # a doubles until the budget runs out
    with pytest.raises(ValueError, match="exhausts the budget"):
        induced_endo(c, parse("while {B B}"))


def test_iso_check():
    b = bool_carrier()
    z2 = zn_carrier(2)
    assert iso_check(b, z2) is None  # or is not cancellative, Z2 is
    assert iso_check(z2, zn_carrier(3)) is None
    assert iso_check(zn_carrier(3), zn_carrier(3)) == (0, 1, 2)
    z4 = zn_carrier(4)
    z4_shuffled = reordered(z4, [2, 0, 3, 1])
    for c1, c2 in ((z4, z4_shuffled), (z4_shuffled, z4)):
        p = iso_check(c1, c2)
        assert sorted(p) == [0, 1, 2, 3] and p[c1.neutral] == c2.neutral
        assert respects_by_loop(c1, c2, p)
    z2z2 = carrier_from_function(range(4), operator.xor, 0)
    assert iso_check(z4, z2z2) is None  # same size, not isomorphic
    z9 = zn_carrier(9)
    assert iso_check(z9, z9) == tuple(range(9))
    z9_shuffled = reordered(z9, [4, 7, 0, 2, 8, 1, 6, 3, 5])
    p = iso_check(z9, z9_shuffled)
    assert sorted(p) == list(range(9)) and respects_by_loop(z9, z9_shuffled, p)


def test_isomorphisms_keep_undefined_sums_undefined():
    # o's 1 + 2 is undefined and Z3's is not.  A homomorphism may send it
    # anywhere, as an undefined sum states nothing; an isomorphism may not
    o, z3 = carrier_from_function(range(3), lambda x, y: x + y, 0), zn_carrier(3)
    assert (0, 1, 2) in list(homomorphisms(o, z3)) and (0, 1, 2) in list(homomorphisms(z3, o))
    assert iso_check(o, z3) is None and iso_check(z3, o) is None
    assert iso_check(o, o) == (0, 1, 2)


def isos_by_scan(c1, c2):
    """Reference for isomorphisms: every bijection, in lexicographic order,
    that sends the neutral to the neutral and respects the sum."""
    if c1.size != c2.size:
        return []
    return [p for p in itertools.permutations(range(c1.size))
            if p[c1.neutral] == c2.neutral and respects_by_loop(c1, c2, p)]


def test_iso_check_matches_scan():
    l1 = extract_carrier(bool_seq_truncated(1), _bool_probes(), cap=8)
    l2 = extract_carrier(bool_seq_truncated(2), _bool_probes(), cap=16)
    catalogue = [zn_carrier(n) for n in range(2, 9)] + [
        saturation_carrier(q) for q in range(2, 9)] + [
        carrier_from_function(range(4), operator.xor, 0),
        carrier_from_function(range(8), operator.xor, 0),
        bool_carrier(), l1, l2,
    ]
    rng = random.Random(20)
    catalogue += [reordered(c, rng.sample(range(c.size), c.size)) for c in catalogue]
    for c1, c2 in itertools.product(catalogue, repeat=2):
        if c1.size == c2.size:
            isos = isos_by_scan(c1, c2)
            assert iso_check(c1, c2) == (isos[0] if isos else None)
            assert list(isomorphisms(c1, c2)) == isos
        else:
            assert iso_check(c1, c2) is None


def test_render_table_and_report():
    c = bool_carrier()
    rep = classify(c, enumerate_endos(c))
    txt = render_table(rep, "product")
    assert "f.g" in txt and txt.count("\n") == 5
    tsv = render_table(rep, "sum", fmt="tsv")
    assert "\t" in tsv
    full = render_report(rep)
    assert "endomorphisms: 4" in full
    assert "field" in full
    # a misspelt table is refused, not printed as the sum table
    for which in ("prod", "Sum", ""):
        with pytest.raises(ValueError, match=f"^which must be 'product' or 'sum', not '{which}'$"):
            render_table(rep, which)
    # so is a misspelt format, not printed as text
    for fmt in ("TSV", "tsvv", ""):
        match = f"^fmt must be 'text' or 'tsv', not '{fmt}'$"
        with pytest.raises(ValueError, match=match):
            render_table(rep, "product", fmt=fmt)
        with pytest.raises(ValueError, match=match):
            render_report(rep, fmt)


def test_render_table_prints_the_size_line_past_the_cap(monkeypatch):
    # render_table owns the cap: past it, it prints one size line and reads
    # no name, and render_report prints that line as each table
    c = bool_carrier()
    rep = classify(c, enumerate_endos(c))
    monkeypatch.setattr(spacelab, "TABLE_PRINT_CAP", 3)
    text = [f"{which} table: 4 x 4, not shown past 3 endos" for which in ("product", "sum")]
    tsv = [f"{which} table\t4 x 4" for which in ("product", "sum")]
    assert render_report(rep).split("\n")[-3:] == [text[0], "", text[1]]
    assert render_report(rep, "tsv").split("\n")[-2:] == tsv
    monkeypatch.setattr(spacelab, "_names", lambda report: pytest.fail("a name was computed"))
    for names in (None, ["f1", "f2", "f3", "f4"]):
        assert [render_table(rep, which, names) for which in ("product", "sum")] == text
        assert [render_table(rep, which, names, "tsv") for which in ("product", "sum")] == tsv


def render_table_by_cell(report, which="product", names=None, fmt="text"):
    """Reference for render_table: padding one cell at a time.  Every column
    but the first is as wide as the widest name (at least one character),
    and the first as that or the corner."""
    table = report.product_table if which == "product" else report.sum_table
    corner = "f.g" if which == "product" else "f+g"
    if names is None:
        names = ["".join(report.carrier.label(v) for v in f) for f in report.endos]
    order = range(len(report.endos))
    cells = [[corner] + [names[i] for i in order]]
    for i in order:
        cells.append(
            [names[i]]
            + [names[table[i][j]] if table[i][j] is not None else "?" for j in order]
        )
    if fmt == "tsv":
        return "\n".join("\t".join(r) for r in cells)
    widest = max([1] + [len(name) for name in names])
    widths = [max(widest, len(corner))] + [widest] * len(order)
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in cells]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def test_render_table_matches_by_cell():
    open3 = carrier_from_function(range(3), lambda x, y: x + y, 0)
    l3 = extract_carrier(bool_seq_truncated(3), _bool_probes(), cap=64)
    rng = random.Random(5)
    # keys of one word, and of two: L3's elements render as data of unequal
    # widths, open10's as one digit each
    lists = [(c, enumerate_endos(c)) for c in (zn_carrier(4), saturation_carrier(4), open3)]
    lists += [(l3, list(homomorphisms(l3, l3))), open_maps(10, rng)]
    for c, endos in lists:
        rep = classify(c, endos)
        # rows read by index before rendering change nothing that is printed
        for i in rng.sample(range(len(endos)), 3):
            assert rep.product_table[i] and rep.sum_table[i]
        # names of unequal widths, the widest one last
        numbers = [str(i) for i in range(len(endos) - 1)] + ["widest"]
        for which, names, fmt in itertools.product(
            ("product", "sum"), (None, numbers), ("text", "tsv")
        ):
            args = (rep, which, names, fmt)
            same = render_table(*args) == render_table_by_cell(*args)
            assert same, (c.size, which, names is None, fmt)  # not a diff of the text
    assert "?" in render_table(classify(open3, enumerate_endos(open3)), "sum")


REPORT_PINS = {
    # carriers whose endo names differ in width, and whose every column holds
    # the widest name; Z5's 3125 endos, past TABLE_PRINT_CAP, print each
    # table as one size line; Z8 over two endos has no field verdict, as its
    # unit search passes SEARCH_WORK_CAP: sha256 of the report and a
    # newline, text then TSV
    "L1": ("4138baad9544ff2b19fd7d469104386764e6430248e9f3bfbf767d7b36a87d16",
           "044b0786cd9284fcc8911b9e68908b17062c09e25fb31eef7acef8ea84f88db7"),
    "min a a a": ("29b470f9b1dba8f563e06ed9e1d0060ed1c98948f2a218a37484cfeb4399f388",
                  "1a9d09850657ad6992eb39e0a094731f51576e874136f67d8f981833aa1ed9da"),
    "Z5": ("8de625c7c0f7bdf5c2e64ec31336c544f3080a97876a078f7c41f2a471a13694",
           "705ba3a1cae4a1397a88b96221c48a303e44a2f93e72b54f133baefca904d21e"),
    "Z8": ("8a9b0c6071e99e11652a0ef7f22ec18e3842ed032b5fe6f482463d59f8e54c69",
           "dbc3ae28d9d5c55c35f64df7b8b5e5997e7bd5fa48037d01e494452c816a24ef"),
}


@pytest.mark.parametrize("name", REPORT_PINS)
def test_unequal_width_reports_are_pinned(monkeypatch, name):
    if name == "L1":
        c = extract_carrier(bool_seq_truncated(1), _bool_probes(), cap=8)
    elif name == "Z5":
        c = zn_carrier(5)
    elif name == "Z8":
        monkeypatch.setattr(spacelab, "SEARCH_WORK_CAP", 10)
        c = zn_carrier(8)
    else:
        c = extract_carrier(parse(name), ProbeSet(((), (word("a"),))))
    rep = classify(c, [identity_endo(c), zero_endo(c)] if name == "Z8" else enumerate_endos(c))
    assert (rep.field is None) == (name == "Z8")
    digests = tuple(hashlib.sha256((render_report(rep, fmt) + "\n").encode()).hexdigest()
                    for fmt in ("text", "tsv"))
    assert digests == REPORT_PINS[name]


def test_classify_z5_keeps_no_grid():
    # 3125 endos: the flags and the key index are all that classify computes
    c = zn_carrier(5)
    endos = enumerate_endos(c)
    tracemalloc.start()
    try:
        rep = classify(c, endos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    assert (len(rep.units()), len(rep.constants()), rep.field) == (120, 5, (True, True))


def test_render_report_tsv_without_field_verdict(monkeypatch):
    monkeypatch.setattr(spacelab, "SEARCH_WORK_CAP", 10)
    c = zn_carrier(8)
    rep = classify(c, [identity_endo(c), zero_endo(c)])
    assert rep.field is None
    rows = render_report(rep, fmt="tsv").split("\n")
    assert "field\tNone" in rows
    assert "field (subspace criterion, unit criterion): None" in render_report(rep)
