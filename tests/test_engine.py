import pytest

from coda.algebra import apply_to, small_probes
from coda.encoding import word
from coda.engine import (
    Budget,
    Engine,
    TriBool,
    add_definition,
    classify_atom,
    equal,
    evaluate,
    step,
)
from coda.lang import parse, render
from coda.prelude import prelude
from coda.terms import COLON, Coda

from conftest import SAFE_WORDS, random_data

# builtins that decide by comparing or ordering, which the budget test
# adds to the safe words
DECIDING_WORDS = ("is", "isnt", "=", "sort", "min", "once")


def ev(src, ctx=None, budget=Budget()):
    return render(evaluate(parse(src), ctx or prelude()).result)


def test_structural_atoms_are_fixed():
    assert ev("(:)") == "(:)"
    assert ev("(: a b)") == "(:a b)"


def test_basic_builtins():
    assert ev("pass : a b") == "a b"
    assert ev("null : a b") == "()"
    assert ev("const x : a") == "x"
    assert ev("left x : a") == "x"
    assert ev("right x : a") == "a"


def test_nested_evaluation():
    assert ev("pass : (pass : a) b") == "a b"
    assert ev("(pass pass : a) : b") == "(a:b)"


def test_undefined_heads_are_inert():
    assert ev("zzz : a") == "(zzz:a)"
    # components still normalize by congruence
    assert ev("zzz (pass:x) : (null:y)") == "(zzz x:)"


def test_equality_peeling():
    assert ev("(a=a)") == "()"
    assert ev("(a=b)") == "(= a:b)"
    assert ev("(a b=a c)") == "(= a b:a c)"


def test_tri_equal():
    ctx = prelude()
    assert equal(parse("a"), parse("a"), ctx) is TriBool.ALWAYS
    assert equal(parse("a"), parse("b"), ctx) is TriBool.NEVER
    # undefined-headed codas are permanent atoms, so this is decided
    assert equal(parse("a"), parse("(zzz:)"), ctx) is TriBool.NEVER
    # a budget-exhausted comparison stays open
    assert equal(parse("a"), parse("while {B B} : x"), ctx,
                 Budget(max_steps=20)) is TriBool.UNDECIDED
    assert equal(parse("x a"), parse("x b"), ctx) is TriBool.NEVER
    assert equal(parse("a"), parse(""), ctx) is TriBool.NEVER
    assert equal(parse(""), parse(""), ctx) is TriBool.ALWAYS


def test_budget_exhaustion_is_reported():
    out = evaluate(parse("while {B B} : x"), prelude(), Budget(max_steps=10))
    assert not out.normalized


def test_steps_never_pass_the_budget(rng):
    # a rewrite whose guards spent the budget is not taken, so a builtin
    # that decides from an exhausted guard cannot charge one step more
    out = evaluate(parse("if (null:x) : b"), prelude(), Budget(max_steps=1))
    assert (render(out.result), out.normalized, out.steps_used) == ("(if (null:x):b)", False, 1)
    for words in (SAFE_WORDS, SAFE_WORDS + DECIDING_WORDS):
        for _ in range(5000):
            d = random_data(rng, 3, words=words)
            for steps in range(1, 9):
                assert evaluate(d, prelude(), Budget(max_steps=steps)).steps_used <= steps


@pytest.mark.parametrize("src, steps, normalized, used", [
    # the budget runs out on the step before the word `a` comes back
    ("pass : a", 1, False, 1),
    ("pass : a", 2, True, 1),
    ("ap {B B} : a b", 1, False, 1),
    ("ap {B B} : a b", 2, False, 2),
    ("ap {B B} : a b", 3, False, 3),
    # `normalized` depends on whether an atom follows the step that hits
    # the limit: only an atom after it notes the exhaustion
    ("a (null:x)", 1, True, 1),
    ("(null:x) a", 1, False, 1),
    ("a (null:x) b", 1, False, 1),
])
def test_exhaustion_at_an_atom(src, steps, normalized, used):
    out = evaluate(parse(src), prelude(), Budget(max_steps=steps))
    assert (out.normalized, out.steps_used) == (normalized, used)


@pytest.mark.parametrize("src, steps", [
    ("pass : pass : pass : a", 1),  # eval_coda's entry
    ("(null:x) a", 1),  # eval_data's trailing atom
    ("ap {B B} : a b", 1),
    ("if (null:x) : b", 1),  # _rewrite, after the guard spent the budget
    ("while {(B:B)} : a", 20),  # the while builtin's loop
])
def test_only_spent_decides_exhaustion(monkeypatch, src, steps):
    answers = []
    spent = Engine.spent

    def recorded(self):
        answers.append(spent(self))
        return answers[-1]

    monkeypatch.setattr(Engine, "spent", recorded)
    eng = Engine(prelude(), Budget(max_steps=steps))
    eng.eval_data(parse(src))
    assert eng.exhausted and True in answers


@pytest.mark.parametrize("src, result", [
    ("first 2 : (= nif X:(last (:):(:)) (:(:) nif))", "(= nif X:(last (:):(:)) (:(:) nif))"),
    ("sort : (= nif X:(last (:):(:)) (:(:) nif)) a", "(= nif X:(last (:):(:)) (:(:) nif)) a"),
    ("rev : (ar:nif ((left (:):((:) (:) (:):(:) (:) (:)) (:)):word-marker last bit-marker))",
     "(ar:nif ((left (:):((:) (:) (:):(:) (:) (:)) (:)):word-marker last bit-marker))"),
])
def test_walking_a_normal_form_again_charges(src, result):
    # the builtin's operand is normal after its first step, but the stuck
    # `=` or `ar` coda in the result re-runs its guard when the result is
    # walked: 3 steps, where skipping that walk would charge 2
    out = evaluate(parse(src), prelude())
    assert (render(out.result), out.normalized, out.steps_used) == (result, True, 3)


def test_atoms_bypass_the_memo():
    eng = Engine(prelude())
    assert render(eng.eval_data(parse("a (:b) (pass : c (d:e))"))) == "a (:b) c (d:e)"
    assert {key for key, *_ in eng._memo.values()} == {parse("pass : c (d:e)")[0], parse("d:e")[0]}


def test_no_runtime_errors_on_junk():
    # deeply nested nonsense evaluates without raising
    src = "((((((:a):b):c):d):e):f)"
    out = evaluate(parse(src), prelude())
    assert out.normalized


def test_step_is_one_pass():
    d = parse("(pass : (pass : a))")
    once = step(d, prelude())
    assert render(once) == "(pass:a)"
    assert render(step(once, prelude())) == "a"
    # a language-atom head rewrites by its source, once
    assert render(step(parse("({B B} : (pass:a)) b"), prelude())) == "(pass:a) (pass:a) b"


def test_is_atom_and_is_invariant():
    eng = Engine(prelude())
    cases = {
        "(:)": (True, True),
        "a": (True, True),
        "(n:a)": (True, True),
        "(n:(pass:a))": (True, False),
        "(zzz:a)": (True, False),
        "(pass:a)": (False, False),
        "({B B}:a)": (False, False),
    }
    for src, want in cases.items():
        c = parse(src)[0]
        assert (eng.is_atom(c), eng.is_invariant(c)) == want, src


def test_add_definition_and_monotonicity():
    ctx = prelude()
    ctx2 = add_definition(ctx, "twice", parse("ap {B B}"))
    assert ev("twice : x", ctx2) == "x x"
    # rebinding is a no-op
    ctx3 = add_definition(ctx2, "twice", parse("null"))
    assert ev("twice : a b", ctx3) == ev("twice : a b", ctx2)
    # old results are unchanged by the new definition
    for src in ("pass : a b", "(a=b)", "bool : x"):
        assert ev(src, ctx) == ev(src, ctx2)


def test_def_builtin_defines_within_evaluation():
    assert ev("(def first2 : {first 2 : B}) (first2 : a b c d)") == "a b"


def test_classify_atom():
    ctx = prelude()
    assert classify_atom(COLON, ctx) == "invariant_atom"
    assert classify_atom(parse("(pass:a)")[0], ctx) == "reducible"
    assert classify_atom(parse("({B B}:a)")[0], ctx) == "reducible"
    assert classify_atom(parse("(zzz:a)")[0], ctx) == "invariant_atom"
    assert classify_atom(Coda((word("b"),), (word("x"),)), ctx) == "invariant_atom"
    assert classify_atom(parse("(b:(pass:x))")[0], ctx) == "defined_fixed_point"
    assert classify_atom(parse("(b:({B}:x))")[0], ctx) == "defined_fixed_point"


def test_classify_atom_resolves_the_head_under_one_budget():
    # the head takes two steps to resolve, and a third is left for the rewrite
    c = parse("((pass:(pass:pass)):x)")[0]
    assert classify_atom(c, prelude(), Budget(max_steps=1)) == "undecided"
    assert classify_atom(c, prelude(), Budget(max_steps=3)) == "reducible"


def test_classify_atom_of_a_deep_chain():
    c = parse("(n:" * 10_000 + ")" * 10_000)[0]
    assert classify_atom(c, prelude()) == "invariant_atom"


def test_is_invariant_reads_a_shared_coda_once(monkeypatch):
    # each level holds the one below twice, so a walk that unfolds the
    # sharing dispatches 2^d times
    calls = 0
    dispatch = Engine.dispatch

    def counted(eng, c):
        nonlocal calls
        calls += 1
        return dispatch(eng, c)

    monkeypatch.setattr(Engine, "dispatch", counted)
    d, c = 16, COLON
    for _ in range(d):
        c = Coda((word("n"), c), (c,))
    assert classify_atom(c, prelude()) == "invariant_atom"
    assert calls <= 2 * d


def test_determinism():
    src = "sort : (pass:b) (null:c) a"
    assert ev(src) == ev(src)


class _Unmemoised(Engine):
    """The engine with a memo that never holds an entry: the oracle."""

    _memo = property(lambda self: {}, lambda self, value: None)


def _run(eng, form):
    return eng.eval_data(form), eng.exhausted, eng.steps, eng.nodes


# the spaces of the search workload's known-space verdicts
SEARCH_SPACES = ("bool", "sort", "once", "pass", "is a b", "first 2",
                 "sort once (is a b c)", "rev", "not")


@pytest.mark.parametrize("src", SEARCH_SPACES)
def test_shared_memo_is_exact(src):
    # the associativity forms of one verdict, evaluated in turn in the
    # budget windows of one engine, under budgets that run out before, at
    # and after the point a memo hit would reach
    space = parse(src)
    probes = small_probes(("a", "b")).probes
    forms = []
    for x in probes:
        for y in probes:
            forms.append(apply_to(space, x + y))
            forms.append(apply_to(space, apply_to(space, x) + y))
            forms.append(apply_to(space, x + apply_to(space, y)))
    ctx = prelude()
    for steps in range(1, 61):
        budget = Budget(max_steps=steps)
        shared = Engine(ctx, budget)
        for form in forms:
            expect = _run(_Unmemoised(ctx, budget), form)
            assert _windowed(shared, form) == expect
            assert _run(Engine(ctx, budget), form) == expect


def _windowed(eng, form):
    """`_run` in a fresh window of `eng`, with the meters read from the
    window's start."""
    eng.begin()
    steps, nodes = eng.steps, eng.nodes
    result, exhausted, _, _ = _run(eng, form)
    return result, exhausted, eng.steps - steps, eng.nodes - nodes


def test_memo_hit_respects_the_remaining_budget():
    # the memo is filled under a budget with room to spare, then read in
    # windows of budgets that run out before, at and after its entries' cost
    form = parse("sort : (rev : b a) (rev : c)")
    ctx = prelude()
    cost = evaluate(form, ctx).steps_used
    shared = Engine(ctx, Budget(max_steps=cost + 1))
    shared.eval_data(form)
    for steps in (cost - 1, cost, cost + 1):
        for d in (form, parse("pass : x") + form):
            budget = shared.budget = Budget(max_steps=steps)
            expect = _run(_Unmemoised(ctx, budget), d)
            assert _windowed(shared, d) == expect
    eng = Engine(ctx)
    eng.eval_data(form)
    budget = shared.budget = Budget(max_nodes=eng.nodes)
    assert _windowed(shared, form) == _run(_Unmemoised(ctx, budget), form)


def test_def_inside_an_evaluation_bypasses_the_memo():
    # the inert (f:x) normalized before the def must not answer after it
    assert ev("(f : x) (def f : g) (f : x)") == "(f:x) (g:x)"
    ctx = prelude()
    eng = Engine(ctx)
    eng.eval_data(parse("f : x"))
    eng.begin()
    assert render(eng.eval_data(parse("(def f : g) (f : x)"))) == "(g:x)"
    # an evaluation in which a def fires is not stored: a hit would skip
    # the def, and the engine would go on in the old context
    defines = "pass : (def h : g) (h : x)"
    eng.begin()
    eng.eval_data(parse(defines))
    eng.begin()
    assert render(eng.eval_data(parse(f"({defines}) (h : y)"))) == "(g:x) (g:y)"


def test_budget_bounds_time():
    out = evaluate(parse("while {(B:B)} : a"), prelude(), Budget(max_steps=200))
    assert not out.normalized
    assert out.steps_used == 200


def test_deep_pass_chain():
    assert render(evaluate(parse("pass:" * 400 + "a"), prelude()).result) == "a"
