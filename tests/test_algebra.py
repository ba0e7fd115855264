import pytest

from coda.algebra import (
    ProbeSet,
    apply_to,
    check_associative,
    check_distributive,
    check_idempotent,
    check_left_distributivity,
    check_right_distributivity,
    default_probes,
    product,
    product_chain,
    small_probes,
    sum_data,
)
from coda.encoding import word
from coda.engine import evaluate
from coda.lang import parse, render
from coda.prelude import prelude
from coda.terms import COLON

from conftest import random_data


def ev(d):
    return evaluate(tuple(d), prelude()).result


def test_product_composes():
    p = product(parse("not"), parse("bool"))
    assert ev(apply_to(p, parse("x"))) == ()
    assert ev(apply_to(p, ())) == parse("(:)")


def test_sum_concatenates():
    s = sum_data(parse("pass"), parse("pass"))
    assert render(ev(apply_to(s, parse("a")))) == "a a"


def test_product_chain_nests_rightward():
    chain = product_chain(parse("first"), parse("rev"), parse("pass"))
    assert render(ev(apply_to(chain, parse("a b c")))) == "c"
    with pytest.raises(ValueError):
        product_chain()


def test_probe_set_requires_probes():
    with pytest.raises(ValueError):
        ProbeSet(())


def test_default_probes_include_alphabet():
    ps = default_probes(("a", "b"))
    assert parse("a") in ps.probes and parse("b") in ps.probes
    assert () in ps.probes
    assert len(ps.probes) == 91 + 2


def test_default_probes_share_colon():
    # every empty coda in the probes is the one COLON, not a fresh (:)
    def codas(d):
        for c in d:
            yield c
            yield from codas(c.left)
            yield from codas(c.right)

    empties = [c for p in default_probes().probes for c in codas(p) if not c.left and not c.right]
    assert empties and all(c is COLON for c in empties)


def test_idempotent_and_associative_hold_for_bool():
    ps = small_probes(("a",))
    d = parse("bool")
    assert check_idempotent(d, ps).holds
    assert check_associative(d, ps).holds
    # spaces need not be distributive: bool((:)(:)) is one (:), not two
    assert check_distributive(d, ps).refuted
    assert check_distributive(parse("pass"), ps).holds


def test_not_is_refuted_with_witness():
    ps = small_probes()
    v = check_associative(parse("not"), ps)
    assert v.refuted
    assert v.witness is not None
    assert v.witness.still_violates()


def test_right_distributivity_random(rng):
    ps = ProbeSet((parse(""), parse("(:)"), parse("a")))
    for _ in range(25):
        a, b, c = (random_data(rng, 1) for _ in range(3))
        v = check_right_distributivity(a, b, c, ps)
        assert not v.refuted, str(v)


def test_left_distributivity_counterexample():
    ps = ProbeSet((parse(""), parse("(:)")))
    v = check_left_distributivity(parse("pass"), parse("pass"), parse("bool"), ps)
    assert v.refuted
    assert v.witness.still_violates()


def test_verdict_str_mentions_witness():
    ps = small_probes()
    v = check_associative(parse("not"), ps)
    assert "witness" in str(v)


def test_printed_witness_parses_back():
    # the word `x y` must not print as the two words `x` and `y`
    v = check_idempotent(parse("rev"), ProbeSet(((word("x y"), word("b")),)))
    assert v.refuted
    lhs, rhs = str(v).split("; witness lhs=")[1].split(" rhs=")
    assert parse(lhs) == v.witness.lhs
    assert parse(rhs) == v.witness.rhs
