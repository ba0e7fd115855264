import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from coda import algebra
from coda.algebra import (
    ALGEBRAIC,
    ASSOCIATIVE,
    DISTRIBUTIVE,
    HOLDS,
    IDEMPOTENT,
    LEFT_DISTRIBUTIVITY,
    REFUTED,
    RIGHT_DISTRIBUTIVITY,
    UNDECIDED,
    ProbeSet,
    Verdict,
    Witness,
    apply_to,
    check,
    check_algebraic,
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
from coda.engine import Budget, Context, Engine, TriBool, evaluate
from coda.lang import parse, render
from coda.prelude import builtin, prelude
from coda.terms import COLON, Coda

from conftest import SAFE_WORDS, random_data, shallow_recursion_error


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
    # a repeated word adds no probe, so it neither repeats cases nor
    # inflates the count of cases checked
    repeated = default_probes(("a", "b", "a", "b", "b"))
    assert repeated.probes == ps.probes
    assert check_idempotent(parse("sort"), repeated).checked == 93


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


# str(verdict) for each law, recorded before the laws became rows of one
# table: status, case count and printed witness, in the order cases run.
# `remove a` is refuted by associativity's second comparison first.
GOLDEN = """\
pass | idempotent: holds_on_probes (5 cases)
pass | associative: holds_on_probes (50 cases)
pass | algebraic: refuted (9 cases); witness lhs=(pass:(:) a) rhs=(pass:a (:))
pass | distributive: holds_on_probes (25 cases)
null | idempotent: holds_on_probes (5 cases)
null | associative: holds_on_probes (50 cases)
null | algebraic: holds_on_probes (25 cases)
null | distributive: holds_on_probes (25 cases)
bool | idempotent: holds_on_probes (5 cases)
bool | associative: holds_on_probes (50 cases)
bool | algebraic: holds_on_probes (25 cases)
bool | distributive: refuted (7 cases); witness lhs=(bool:(:) (:)) rhs=(bool:(:)) (bool:(:))
not | idempotent: refuted (1 cases); witness lhs=(prod (:not) (:not):) rhs=(not:)
not | associative: refuted (1 cases); witness lhs=(not:) rhs=(not:(not:))
not | algebraic: holds_on_probes (25 cases)
not | distributive: refuted (1 cases); witness lhs=(not:) rhs=(not:) (not:)
sort | idempotent: holds_on_probes (5 cases)
sort | associative: holds_on_probes (50 cases)
sort | algebraic: holds_on_probes (25 cases)
sort | distributive: refuted (17 cases); witness lhs=(sort:a (:)) rhs=(sort:a) (sort:(:))
once | idempotent: holds_on_probes (5 cases)
once | associative: holds_on_probes (50 cases)
once | algebraic: refuted (9 cases); witness lhs=(once:(:) a) rhs=(once:a (:))
once | distributive: refuted (7 cases); witness lhs=(once:(:) (:)) rhs=(once:(:)) (once:(:))
rev | idempotent: holds_on_probes (5 cases)
rev | associative: holds_on_probes (50 cases)
rev | algebraic: refuted (9 cases); witness lhs=(rev:(:) a) rhs=(rev:a (:))
rev | distributive: refuted (9 cases); witness lhs=(rev:(:) a) rhs=(rev:(:)) (rev:a)
is a b | idempotent: holds_on_probes (5 cases)
is a b | associative: holds_on_probes (50 cases)
is a b | algebraic: refuted (20 cases); witness lhs=(is a b:a b) rhs=(is a b:b a)
is a b | distributive: holds_on_probes (25 cases)
first 2 | idempotent: holds_on_probes (5 cases)
first 2 | associative: holds_on_probes (50 cases)
first 2 | algebraic: refuted (9 cases); witness lhs=(first 2:(:) a) rhs=(first 2:a (:))
first 2 | distributive: refuted (8 cases); witness lhs=(first 2:(:) (:) (:)) rhs=(first 2:(:)) (first 2:(:) (:))
min | idempotent: holds_on_probes (5 cases)
min | associative: holds_on_probes (50 cases)
min | algebraic: holds_on_probes (25 cases)
min | distributive: refuted (7 cases); witness lhs=(min:(:) (:)) rhs=(min:(:)) (min:(:))
remove a | idempotent: holds_on_probes (5 cases)
remove a | associative: refuted (18 cases); witness lhs=(remove a:(:) a) rhs=(remove a:(:) (remove a:a))
remove a | algebraic: refuted (9 cases); witness lhs=(remove a:(:) a) rhs=(remove a:a (:))
remove a | distributive: refuted (9 cases); witness lhs=(remove a:(:) a) rhs=(remove a:(:)) (remove a:a)
pass, pass, bool | right-distributivity: holds_on_probes (3 cases)
pass, pass, bool | left-distributivity: refuted (2 cases); witness lhs=(prod (:bool) (:sum (:pass) (:pass)):(:)) rhs=(sum (:prod (:bool) (:pass)) (:prod (:bool) (:pass)):(:))
bool, not, sort | right-distributivity: holds_on_probes (3 cases)
bool, not, sort | left-distributivity: holds_on_probes (3 cases)
rev, once, pass | right-distributivity: holds_on_probes (3 cases)
rev, once, pass | left-distributivity: holds_on_probes (3 cases)
"""


def test_golden_verdicts():
    unary = (check_idempotent, check_associative, check_algebraic, check_distributive)
    ps = small_probes(("a", "b"))
    got = [f"{src} | {check(parse(src), ps)}"
           for src in ("pass", "null", "bool", "not", "sort", "once", "rev",
                       "is a b", "first 2", "min", "remove a")
           for check in unary]
    ps3 = ProbeSet((parse(""), parse("(:)"), parse("a")))
    got += [f"{', '.join(abc)} | {check(*map(parse, abc), ps3)}"
            for abc in (("pass", "pass", "bool"), ("bool", "not", "sort"), ("rev", "once", "pass"))
            for check in (check_right_distributivity, check_left_distributivity)]
    assert got == GOLDEN.splitlines()


def test_every_probe_pair_is_judged():
    ps = ProbeSet(tuple((word(f"w{i}"),) for i in range(150)))
    v = check_distributive(parse("null"), ps)
    assert v.holds and v.checked == 150 * 150


def check_by_fresh_engines(law, operands, probes, ctx):
    """`check` with a fresh engine for each comparison: the reference for
    the budget windows of one engine, which builds both sides of every case
    up front."""
    undecided, checked = False, 0
    for used in itertools.product(probes.probes, repeat=law.arity):
        for lhs, rhs in built_cases(law, operands, used):
            eng = Engine(ctx, probes.budget)
            t = eng.tri_equal(lhs, rhs)
            checked += 1
            if eng.exhausted or t is TriBool.UNDECIDED:
                undecided = True
            elif t is TriBool.NEVER:
                return Verdict(REFUTED, law.name, checked, Witness(used, lhs, rhs))
    return Verdict(UNDECIDED if undecided else HOLDS, law.name, checked)


def built_cases(law, operands, used):
    """The (lhs, rhs) pairs of the cases on the probes `used`, both sides
    built."""
    left, rights = law.cases(*operands)
    lhs = left(*used)
    return [(lhs, right(*used)) for right in rights]


# probes that bind a word, then use it: a def that leaked from one case
# into the next would leave the next case's def stuck and its use rewritten
DEFINING = [parse(src) for src in ("(def f : a) (f : b)", "(f : b) (def f : rev)", "def f : a b")]
LAW_WORDS = SAFE_WORDS + ("def", "f", "sort", "once", "is")
BUDGETS = [Budget(max_steps=n) for n in range(1, 13)] + [Budget()]


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([IDEMPOTENT, ASSOCIATIVE, ALGEBRAIC, DISTRIBUTIVE,
                        RIGHT_DISTRIBUTIVITY, LEFT_DISTRIBUTIVITY]),
       st.lists(st.sampled_from(DEFINING), max_size=2),
       st.sampled_from(BUDGETS))
def test_one_engine_per_verdict_matches_fresh_engines(rng, law, defining, budget):
    operands = [random_data(rng, 2, words=LAW_WORDS) for _ in range(3 if "distributivity" in law.name else 1)]
    probes = ProbeSet(tuple(random_data(rng, 2, words=LAW_WORDS) for _ in range(rng.randrange(1, 4)))
                      + tuple(defining), budget)
    got = check(law, operands, probes, prelude())
    want = check_by_fresh_engines(law, operands, probes, prelude())
    assert (got.status, got.checked, got.witness) == (want.status, want.checked, want.witness)
    # a verdict hides most of a case; its normal forms and charges do not
    assert case_outcomes(law, operands, probes, False) == case_outcomes(law, operands, probes, True)


def case_outcomes(law, operands, probes, fresh):
    """Each case's normal forms, verdict, exhaustion and charges, judged in
    a fresh engine or in a fresh window of one engine."""
    eng = Engine(prelude(), probes.budget)
    out = []
    for used in itertools.product(probes.probes, repeat=law.arity):
        for lhs, rhs in built_cases(law, operands, used):
            if fresh:
                eng = Engine(prelude(), probes.budget)
            eng.begin()
            steps, nodes = eng.steps, eng.nodes
            a, b = eng.eval_data(lhs), eng.eval_data(rhs)
            out.append((a, b, eng.tri_compare(a, b), eng.exhausted, eng.steps - steps, eng.nodes - nodes))
    return out


# spaces whose head definition normalises B before its branch runs, so
# that `check` reads their associativity cases' right sides through the
# images of the probes; `(= a : a)` resolves its head first and is judged
# as any other, and `=` and `atoms` leave a coda stuck on a probe they fix
STRICT_SPACES = [parse(src) for src in (
    "sort", "once", "first 2", "is a b", "bool", "rev", "while remove a", "(= a : a)", "=", "atoms", "last 2")]
# fixed probes, probes whose image is another listed probe (`b a` is `a b`
# under sort, `a a b` is `a b` under once, `(:) a` is `a` under is a b,
# `(:) (:)` is `(:)` under bool), probes that fire a def, `=` probes (a
# residue, a match, and a match that only the evaluation of B reaches) and
# a stuck non-atom
ASSOCIATIVITY_PROBES = [parse(src) for src in (
    "", "(:)", "a", "b", "a b", "b a", "(:) (:)", "(:a)", "a a b", "(:) a",
    "(f : a)", "(def f : a) (f : b)", "def f : a b", "(f : b) (def f : rev)",
    "(= a : b)", "(= a : a)", "= a : a", "a (= b : (pass : b))", "(def : a)")]
ASSOCIATIVITY_BUDGETS = ([Budget(max_steps=n) for n in range(1, 25)]
                         + [Budget(max_steps=40, max_nodes=n) for n in range(1, 16)] + [Budget()])


def assert_matches_fresh_engines(law, space, probes, budget):
    ps = ProbeSet(tuple(probes), budget)
    got = check(law, (space,), ps, prelude())
    want = check_by_fresh_engines(law, (space,), ps, prelude())
    assert (got.status, got.checked, got.witness) == (want.status, want.checked, want.witness)


@seed(20261019)
@settings(max_examples=150, deadline=None)
# a branch that leaves its coda stuck on a probe it fixes; right sides
# whose steps or nodes end on the window's limit; a def that the left side
# fires and the right side then cannot rebind; an image tuple, read for
# (sort : b a z) as (sort : a b z), whose left side fires a def; one, read
# for (= : (= a:a) (:)) as (= : (:)), whose left side is stuck; an image
# whose nodes take the read's sum onto the node limit; and a second case
# that cannot be read, whose left side, known from the first, is charged
# again before its right side
@example(parse("="), [parse(""), parse("b")], Budget())
@example(parse("first 2"), [parse(""), parse("(f : a)")], Budget(max_steps=3))
@example(parse("first 2"), [parse("(f : a)")], Budget(max_steps=40, max_nodes=3))
@example(parse("last 2"), [parse("b a"), parse("(f : b) (def f : rev)")], Budget())
@example(parse("sort"), [parse("a b"), parse("b a"), parse("(f : b) (def f : rev)")], Budget(max_steps=10))
@example(parse("="), [parse(""), parse("(= a : a)"), parse("(:)")], Budget(max_steps=2))
@example(parse("rev"), [parse("(= a : b)")], Budget(max_steps=40, max_nodes=5))
@example(parse("rev"), [parse("(:) a"), parse("")], Budget(max_steps=40, max_nodes=6))
# tuples whose first case is undecided and whose second refutes, in a
# space not strict in B and in one that is
@example(parse("{B B}"), [parse("(:) a"), parse("a a"), parse("(= a:b)")], Budget(max_steps=4, max_nodes=17))
@example(parse("sort"), [parse("(f:b) (def f:rev)"), parse("(= a:b)")], Budget(max_steps=40, max_nodes=11))
@given(st.sampled_from(STRICT_SPACES),
       st.lists(st.sampled_from(ASSOCIATIVITY_PROBES), min_size=1, max_size=5, unique=True),
       st.sampled_from(ASSOCIATIVITY_BUDGETS))
def test_associativity_of_strict_spaces_matches_fresh_engines(space, probes, budget):
    assert_matches_fresh_engines(ASSOCIATIVE, space, probes, budget)


@seed(20261020)
@settings(max_examples=150, deadline=None)
# mirrored cases whose summed charges end exactly on the step limit (the
# diagonal (first 2 : (f:a) (f:a)) reads itself) or on the node limit, an
# off-diagonal one whose right side, evaluated, still ends unexhausted on
# the limit, and images whose charges take the sum onto either limit
@example(ALGEBRAIC, parse("first 2"), [parse("(f : a)")], Budget(max_steps=2))
@example(ALGEBRAIC, parse("first 2"), [parse(""), parse("(f : a)")], Budget(max_steps=40, max_nodes=4))
@example(ALGEBRAIC, parse("sort"), [parse(""), parse("(:)")], Budget(max_steps=2))
@example(DISTRIBUTIVE, parse("first 2"), [parse("(def : a)")], Budget(max_steps=3))
@example(DISTRIBUTIVE, parse("last 2"), [parse("(def : a)"), parse("(f : a)"), parse("(= a : a)")],
         Budget(max_steps=40, max_nodes=4))
@given(st.sampled_from([ALGEBRAIC, DISTRIBUTIVE]),
       st.sampled_from(STRICT_SPACES + [parse("pass")]),
       st.lists(st.sampled_from(ASSOCIATIVITY_PROBES), min_size=1, max_size=5, unique=True),
       st.sampled_from(ASSOCIATIVITY_BUDGETS))
def test_commutativity_and_distributivity_match_fresh_engines(law, space, probes, budget):
    assert_matches_fresh_engines(law, space, probes, budget)


def test_undecided_case_then_refuting_case_count_both():
    # tuple 7's first case, case 13, ends exhausted; its second refutes
    probes = ProbeSet((parse("(:) a"), parse("a a"), parse("(= a:b)")), Budget(max_steps=4, max_nodes=17))
    outcomes = case_outcomes(ASSOCIATIVE, (parse("{B B}"),), probes, True)
    assert outcomes[12][3] and not outcomes[13][3] and outcomes[13][2] is TriBool.NEVER
    v = check_associative(parse("{B B}"), probes)
    assert v.refuted and v.checked == 14
    assert render(v.witness.lhs) == "({B B}:(= a:b) (:) a)"
    assert render(v.witness.rhs) == "({B B}:(= a:b) ({B B}:(:) a))"


# each verdict's status, cases and its engine's final meters on the default
# probes with the alphabet a, b, zq (P = 94), under the default budget; a
# ternary row's operands are separated by ", "
VERDICT_WORK = [
    (check_associative, "sort", HOLDS, 17672, 8930, 32886),
    (check_associative, "is a b", HOLDS, 17672, 8930, 378),
    (check_associative, "first 2", HOLDS, 17672, 8930, 17820),
    (check_associative, "pass", HOLDS, 17672, 53016, 148520),
    (check_associative, "rev", REFUTED, 24, 27, 32),
    (check_algebraic, "sort", HOLDS, 8836, 8836, 32712),
    (check_distributive, "is a b", HOLDS, 8836, 8930, 378),
    (check_idempotent, "bool", HOLDS, 94, 376, 373),
    (check_distributive, "pass", HOLDS, 8836, 8930, 32886),
    (check_algebraic, "is a b", REFUTED, 8647, 8830, 370),
    (check_algebraic, "not", HOLDS, 8836, 8836, 1),
    (check_distributive, "sort", REFUTED, 190, 286, 621),
    (check_associative, "{B B}", REFUTED, 4, 16, 18),
    (check_idempotent, "rev", REFUTED, 12, 48, 51),
    (check_right_distributivity, "pass, bool, sort", HOLDS, 94, 1222, 1728),
]


def recorded_engines(monkeypatch):
    """The list that each engine `algebra` makes from now on is added to."""
    made = []

    class Recorded(Engine):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(algebra, "Engine", Recorded)
    return made


@pytest.mark.parametrize("verdict, space, status, checked, steps, nodes", VERDICT_WORK)
def test_each_verdict_does_the_same_work(monkeypatch, verdict, space, status, checked, steps, nodes):
    # the engine's final meters pin what the verdict evaluated and charged:
    # reads, and a left side handed on within its tuple, must not move them
    made = recorded_engines(monkeypatch)
    v = verdict(*map(parse, space.split(", ")), default_probes(("a", "b", "zq")))
    [eng] = made
    assert (v.status, v.checked, eng.steps, eng.nodes) == (status, checked, steps, nodes)


@pytest.mark.parametrize("extra, budget, status, checked, steps, nodes", [
    ((), Budget(), HOLDS, 8, 49, 51),
    ((), Budget(max_steps=3), UNDECIDED, 8, 29, 24),
    (("a",), Budget(), HOLDS, 18, 72, 80),
])
def test_image_that_charges_again_is_not_read(monkeypatch, extra, budget, status, checked, steps, nodes):
    # (sort : (def (pass:pass) : y)) is the probe itself, but its stuck
    # def's computed name costs a step each time it is evaluated, so the
    # image is not read as that probe: the cases it would decide are
    # evaluated, as the engine's final meters show
    probes = ProbeSet(((), parse("(def (pass:pass) : y)")) + tuple(map(parse, extra)), budget)
    want = check_by_fresh_engines(ASSOCIATIVE, (parse("sort"),), probes, prelude())
    made = recorded_engines(monkeypatch)
    v = check_associative(parse("sort"), probes)
    [eng] = made
    assert (v.status, v.checked, eng.steps, eng.nodes) == (status, checked, steps, nodes)
    assert (v.status, v.checked, v.witness) == (want.status, want.checked, want.witness)


def counting(name):
    """A copy of the prelude whose `name` counts its applications, and the
    one-element list that holds the count."""
    count = [0]
    defn = builtin(name)

    def apply(eng, a, b):
        count[0] += 1
        return defn.apply(eng, a, b)

    return Context({**prelude().defs, defn.trigger: replace(defn, apply=apply)}), count


def test_strict_space_evaluates_each_left_side_once():
    # `first` normalises B, and every default probe is its own normal form
    # and that of (first 2 : x): each pair of cases needs at most its left
    # side, and each probe's (first 2 : x) once
    probes = default_probes()
    p = len(probes.probes)
    ctx, applied = counting("first")
    assert check_associative(parse("first 2"), probes, ctx).holds
    assert applied[0] <= p * p + p  # 25,149 when both sides of every case ran
    # `is a b` maps most probes to (), another probe: (is a b : (is a b:x) y)
    # is read from the left side of ((), y)
    ctx, applied = counting("is")
    assert check_associative(parse("is a b"), probes, ctx).holds
    assert applied[0] <= p * p + p  # 24,962 when only fixed probes were read
    # the case (y, x) is (x, y) with its sides swapped, so it is decided
    # once (x, y) agreed: only (x, y) with x before y evaluates both sides,
    # (x, x) its left side, and (y, x) nothing
    ctx, applied = counting("sort")
    assert check_algebraic(parse("sort"), probes, ctx).holds
    assert applied[0] <= p * p  # 12,795 when every case evaluated both sides
    # `pass` is not strict: every case evaluates both sides, 3P² + P in all:
    # each tuple's left side once, each right side's outer `pass` once, and
    # each probe's nested (pass : x) once, from the memo after that; the
    # memo holds only those P nested codas, so it is never cleared (25,149
    # when it filed every side too, and was cleared six times at MEMO_CAP)
    ctx, applied = counting("pass")
    assert check_associative(parse("pass"), probes, ctx).holds
    assert applied[0] == 3 * p * p + p == 24_934


def coda_constructions(monkeypatch, verdict):
    """The verdict `verdict()` gives, and the codas built while it is judged."""
    count = [0]
    init = Coda.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    with monkeypatch.context() as m:
        m.setattr(Coda, "__init__", counted)
        v = verdict()
    return v, count[0]


def test_cases_build_only_the_sides_they_use(monkeypatch):
    # a right side is built only when the table cannot read it; every
    # associativity case of `is a b` is read, so each tuple builds its
    # shared left side and each probe its image (d : x) once
    probes = default_probes()
    p = len(probes.probes)
    v, built = coda_constructions(monkeypatch, lambda: check_associative(parse("is a b"), probes))
    assert v.holds and built <= p * p + 2 * p  # 3P² + 2P + 1 when every right side was built
    # the case (y, x) that its mirror decides builds neither side, and the
    # diagonal (x, x) only its left side
    v, built = coda_constructions(monkeypatch, lambda: check_algebraic(parse("sort"), probes))
    assert v.holds and built <= p * p + p  # 2P² + 1 when both sides of every case were built
    # `pass` is not strict: every case evaluates both sides, and the two
    # cases of a tuple share their left side
    v, built = coda_constructions(monkeypatch, lambda: check_associative(parse("pass"), probes))
    assert v.holds and built == 3 * p * p + p + 1


def test_witness_built_at_refutation_is_the_evaluated_case():
    # the right side of the refuting case is built again for its witness:
    # the same data that was evaluated, here the equation whose left side
    # binds f before the right side's (def f : rev) can
    v = check_associative(parse("last 2"), ProbeSet((parse("b a"), parse("(f:b) (def f:rev)"))))
    assert v.refuted and v.checked == 3
    assert v.witness.probes == (parse("b a"), parse("(f:b) (def f:rev)"))
    assert render(v.witness.lhs) == "(last 2:b a (f:b) (def f:rev))"
    assert render(v.witness.rhs) == "(last 2:(last 2:b a) (f:b) (def f:rev))"
    assert v.witness.still_violates()


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 3: while's loop recurses once per iteration")
def test_a_loop_that_never_settles_is_undecided():
    with shallow_recursion_error():
        verdict = check_idempotent(parse("while {(B:B)}"), default_probes(("a", "b")))
    assert verdict.status == UNDECIDED
