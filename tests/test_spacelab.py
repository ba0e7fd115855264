import itertools
import operator
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from coda.algebra import ProbeSet, default_probes
from coda.encoding import word
from coda.engine import Budget, Engine
from coda.lang import parse
from coda.organic import _bool_probes, bool_seq_truncated, sets_space
from coda.prelude import prelude
from coda import spacelab
from coda.spacelab import (
    CarrierOverflow,
    CarrierTable,
    EndoFlags,
    NotAHomomorphism,
    TooManyEndos,
    carrier_from_function,
    check_carrier_monoid,
    classify,
    compose,
    constant_endo,
    enumerate_endos,
    extract_carrier,
    field_check,
    homomorphisms,
    identity_endo,
    inverse_of,
    is_cancellative,
    is_commutative,
    is_homomorphism,
    is_idempotent,
    is_subspace,
    iso_check,
    isomorphisms,
    oplus,
    quotient_of_hom,
    render_report,
    render_table,
    saturation_carrier,
    verify_semialgebra,
    zn_carrier,
    zero_endo,
)
from coda.terms import COLON, CapExceeded, Coda, data_key

from conftest import SAFE_WORDS, random_data


def bool_carrier():
    return extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=4)


def test_bool_carrier():
    c = bool_carrier()
    assert c.size == 2
    assert c.closed
    assert c.label(c.neutral) == "()"
    assert check_carrier_monoid(c)
    # the sum is logical or
    assert c.add == ((0, 1), (1, 1))


def test_zn_carrier_monoid():
    for n in (2, 3, 4, 6):
        c = zn_carrier(n)
        assert check_carrier_monoid(c)
        assert is_commutative(c)
        assert is_cancellative(c)


def test_saturation_carrier():
    c = saturation_carrier(3)
    assert c.add[2][2] == 2
    assert not is_cancellative(c)


def test_open_carrier_from_function():
    c = carrier_from_function(range(4), lambda x, y: x + y, 0)
    assert not c.closed
    assert c.add[3][3] is None


def test_closed_is_no_undefined_sum():
    # a sum that exhausts the probes' budget: `a a` needs 4 steps to double
    exhausting = ProbeSet(((), (word("a"),)), Budget(max_steps=4, max_nodes=1_000))
    doubling = extract_carrier(parse("ap {B B}"), exhausting)
    assert doubling.size == 3  # under the cap, so no sum was left out for it
    carriers = [
        bool_carrier(),
        extract_carrier(parse("pass"), default_probes(), cap=1),  # sums past the cap
        doubling,
        zn_carrier(3),
        carrier_from_function(range(4), lambda x, y: x + y, 0),
        carrier_from_function(range(2), lambda x, y: None, 0),
    ]
    assert [c.closed for c in carriers] == [True, False, False, True, False, False]
    for c in carriers:
        assert c.closed == all(None not in row for row in c.add)


def test_carrier_cap_bounds_only_the_elements_sums_add():
    # the neutral's and the probes' normal forms are kept past the cap
    first2 = extract_carrier(parse("first 2"), default_probes(), cap=5)
    assert first2.size == 91 and first2.closed
    b = extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=1, on_overflow="raise")
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


def test_extracted_table_matches_fresh_engines():
    # the table is read from the sums the closure computed with a shared
    # memo; recompute every entry with its own engine
    sets_probes = ProbeSet(((), (word("a"),), (word("b"),), (word("c"),), parse("a b c")))
    cases = (
        (parse("bool"), ProbeSet(((), (COLON,))), 4),
        (sets_space(), sets_probes, 16),
        (bool_seq_truncated(1), _bool_probes(), 8),
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


def extract_by_fresh_engines(space, probes, cap, on_overflow):
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
                            if on_overflow == "raise":
                                raise CarrierOverflow(f"more than {cap} carrier elements")
                            continue
                        seen[s] = None
                        new.append(s)
        frontier = new
    elements = tuple(sorted(seen, key=data_key))
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(tuple(index.get(sums[x, y]) for y in elements) for x in elements)
    return CarrierTable(elements=elements, neutral=index[neutral_elem], add=table)


def _extraction(space, probes, cap, on_overflow):
    try:
        return extract_carrier(space, probes, cap=cap, on_overflow=on_overflow)
    except CarrierOverflow as exc:
        return str(exc)


def _reference_extraction(space, probes, cap, on_overflow):
    try:
        return extract_by_fresh_engines(space, probes, cap, on_overflow)
    except CarrierOverflow as exc:
        return str(exc)


SPACE_WORDS = SAFE_WORDS + ("def", "f", "sort", "once", "is", "last")


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8), st.sampled_from(["open", "raise"]),
       st.sampled_from([Budget(max_steps=n) for n in range(1, 13)] + [Budget()]))
def test_extraction_on_one_engine_matches_fresh_engines(rng, cap, on_overflow, budget):
    space = random_data(rng, 2, words=SPACE_WORDS)
    probes = ProbeSet(tuple(random_data(rng, 2, words=SPACE_WORDS)
                            for _ in range(rng.randrange(1, 5))) + (parse("(def f : a) (f : b)"),), budget)
    assert (_extraction(space, probes, cap, on_overflow)
            == _reference_extraction(space, probes, cap, on_overflow))


@pytest.mark.parametrize("src", ["pass", "sort", "once", "not", "rev"])
def test_extraction_past_the_first_frontier_matches_fresh_engines(src):
    # sums of the probes' sums are found in later frontiers, from pairs the
    # first one does not repeat; `not` lists its neutral second
    probes = ProbeSet(((), (word("a"),), (word("b"),)))
    for cap in (3, 5, 8, 20):
        for on_overflow in ("open", "raise"):
            assert (_extraction(parse(src), probes, cap, on_overflow)
                    == _reference_extraction(parse(src), probes, cap, on_overflow))


@pytest.mark.parametrize("space, probes, cap, size, calls", [
    (parse("first 2"), default_probes(), 64, 91, 8373),
    (bool_seq_truncated(3), _bool_probes(), 64, 15, 233),
], ids=["first 2", "L3"])
def test_each_ordered_sum_is_normalised_once(monkeypatch, space, probes, cap, size, calls):
    # the neutral, each probe, and each ordered pair of elements, once
    seen = []
    normalize = spacelab._normalize
    monkeypatch.setattr(spacelab, "_normalize", lambda *args: seen.append(args) or normalize(*args))
    c = extract_carrier(space, probes, cap=cap)
    assert c.size == size and c.closed
    assert len(seen) == 1 + len(probes.probes) + size ** 2 == calls


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
    searches = (lambda: field_check(z11), lambda: list(homomorphisms(z11)),
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
    assert list(homomorphisms(c)) == [f for f in endos if respects_by_loop(c, c, f)]


def fill_by_entry(c, endos):
    """Reference for classify's tables: one compose/oplus per entry."""
    pos = {e: i for i, e in enumerate(endos)}
    product = [[pos.get(compose(f, g)) for g in endos] for f in endos]
    sums = [[pos.get(oplus(f, g, c)) for g in endos] for f in endos]
    return product, sums


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
        assert (rep.product_table, rep.sum_table) == fill_by_entry(c, endos)


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


def test_quotient_of_hom():
    c = zn_carrier(4)
    doubling = (0, 2, 0, 2)
    q = quotient_of_hom(doubling, c)
    assert q == (0, 1, 0, 1)
    with pytest.raises(NotAHomomorphism):
        quotient_of_hom((1, 1, 1, 1), c)


def test_verify_semialgebra():
    c = zn_carrier(5)
    mapping = {k: tuple((k * i) % 5 for i in range(5)) for k in range(5)}
    units = [e for e in enumerate_endos(c)
             if is_homomorphism(e, c) and len(set(e)) == 5]
    assert verify_semialgebra(c, mapping, units=units).holds
    bad = dict(mapping)
    bad[7] = mapping[2]
    assert verify_semialgebra(c, bad).refuted


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


def render_table_by_cell(report, which="product", names=None, fmt="text"):
    """Reference for render_table: widths and padding one cell at a time."""
    table = report.product_table if which == "product" else report.sum_table
    corner = "f.g" if which == "product" else "f+g"
    if names is None:
        names = [report.endo_name(i) for i in range(len(report.endos))]
    order = range(len(report.endos))
    cells = [[corner] + [names[i] for i in order]]
    for i in order:
        cells.append(
            [names[i]]
            + [names[table[i][j]] if table[i][j] is not None else "?" for j in order]
        )
    if fmt == "tsv":
        return "\n".join("\t".join(r) for r in cells)
    widths = [max(len(r[k]) for r in cells) for k in range(len(cells[0]))]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in cells]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def test_render_table_matches_by_cell():
    open3 = carrier_from_function(range(3), lambda x, y: x + y, 0)
    for c in (zn_carrier(4), saturation_carrier(4), open3):
        endos = enumerate_endos(c)
        rep = classify(c, endos)
        # names of unequal widths, the widest one last
        numbers = [str(i) for i in range(len(endos) - 1)] + ["widest"]
        for which, names, fmt in itertools.product(
            ("product", "sum"), (None, numbers), ("text", "tsv")
        ):
            args = (rep, which, names, fmt)
            same = render_table(*args) == render_table_by_cell(*args)
            assert same, (which, names is None, fmt)  # not a diff of the text
    assert "?" in render_table(classify(open3, enumerate_endos(open3)), "sum")


def test_render_report_tsv_without_field_verdict(monkeypatch):
    monkeypatch.setattr(spacelab, "SEARCH_WORK_CAP", 10)
    c = zn_carrier(8)
    rep = classify(c, [identity_endo(c), zero_endo(c)])
    assert rep.field is None
    rows = render_report(rep, fmt="tsv").split("\n")
    assert "field\tNone" in rows
    assert "field (subspace criterion, unit criterion): None" in render_report(rep)
