import pytest

from coda.algebra import ProbeSet, apply_to, check_associative, small_probes
from coda.encoding import word
from coda.engine import (
    Budget,
    Definition,
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

from conftest import SAFE_WORDS, random_data, shallow_recursion_error
from test_algebra import counting
from test_prelude import MARKED, MEMBERS

# builtins that decide by comparing or ordering, and the guards that pass B
# on, which the budget test adds to the safe words
DECIDING_WORDS = ("is", "isnt", "=", "sort", "min", "once", "if", "nif")


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
    # the fronts (def:) and (def:b) are no atoms, so the backs decide
    assert equal(parse("(def:) a"), parse("(def:b) b"), ctx) is TriBool.NEVER
    assert equal(parse("a"), parse(""), ctx) is TriBool.NEVER
    assert equal(parse(""), parse(""), ctx) is TriBool.ALWAYS


def test_tri_compare_of_one_coda_each(rng):
    # the rule prelude's is/isnt decide each coda by: the same coda is
    # ALWAYS, two atoms are NEVER, anything else is UNDECIDED; the rule and
    # the comparison each in a fresh engine, as a residue check can bind a word
    words = SAFE_WORDS + DECIDING_WORDS + ("zzz", "def")
    codas = [c for d in MEMBERS for c in d]
    codas += [c for _ in range(40) for c in random_data(rng, 2, words=words)]
    seen = set()
    for x in codas:
        for c in codas:
            eng = Engine(prelude())
            if x == c:
                want = TriBool.ALWAYS
            elif eng.is_atom(x) and eng.is_atom(c):
                want = TriBool.NEVER
            else:
                want = TriBool.UNDECIDED
            assert Engine(prelude()).tri_compare((x,), (c,)) is want, render((x, c))
            seen.add(want)
    assert len(seen) == 3


def test_emptiness_is_equality_with_the_empty_sequence(rng):
    eng = Engine(prelude())
    for _ in range(2000):
        d = evaluate(random_data(rng, 3, words=SAFE_WORDS + DECIDING_WORDS), prelude()).result
        assert eng.emptiness(d) is eng.tri_compare((), d)


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
            full = evaluate(d, prelude(), Budget(max_steps=100))
            for steps in range(1, 9):
                out = evaluate(d, prelude(), Budget(max_steps=steps))
                assert out.steps_used <= steps
                # a run that reports a normal form did all the work there was
                if out.normalized:
                    assert (out.result, out.steps_used) == (full.result, full.steps_used)


@pytest.mark.parametrize("src, steps, normalized, used", [
    # exhaustion is only work the budget refused: an atom needs none, so
    # meeting one past the limit keeps the evaluation normalized, while a
    # coda met there is refused, as finding out whether it needs a step is
    # itself work
    ("pass : a", 1, True, 1),
    ("pass : a", 2, True, 1),
    ("ap {B B} : a b", 1, False, 1),
    ("ap {B B} : a b", 2, False, 2),
    ("ap {B B} : a b", 3, True, 3),
    ("a (null:x)", 1, True, 1),
    ("(null:x) a", 1, True, 1),
    ("a (null:x) b", 1, True, 1),
    ("(null:x) (zzz:a)", 1, False, 1),
])
def test_exhaustion_at_an_atom(src, steps, normalized, used):
    out = evaluate(parse(src), prelude(), Budget(max_steps=steps))
    assert (out.normalized, out.steps_used) == (normalized, used)


@pytest.mark.parametrize("src, steps", [
    ("pass : pass : pass : a", 1),  # eval_coda's entry
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
    # the atoms are never looked up, the coda handed in is met once and is
    # not stored, and only the coda nested in its evaluation is
    eng = Engine(prelude())
    assert render(eng.eval_data(parse("a (:b) (pass : c (d:e))"))) == "a (:b) c (d:e)"
    assert {key for key, *_ in eng._memo.values()} == {parse("d:e")[0]}


def test_only_nested_codas_are_memoised():
    ctx, applied = counting("rev")
    eng = Engine(ctx)
    for _ in range(2):
        eng.begin()
        assert render(eng.eval_data(parse("rev : a b"))) == "b a"
    assert applied[0] == 2  # handed in twice, rewritten twice
    for _ in range(2):
        eng.begin()
        assert render(eng.eval_data(parse("pass : (rev : a b)"))) == "b a"
    assert applied[0] == 3  # nested twice, rewritten once


class _Raised(Exception):
    pass


def test_begin_resets_the_nesting():
    # a branch that raises leaves the nesting count where the raise found
    # it; the next window starts again from a coda handed in
    applied = [0]

    def apply(eng, a, b):
        applied[0] += 1
        if a:
            raise _Raised
        return b

    eng = Engine(prelude().bind(Definition(name="zzz", trigger=word("zzz"), apply=apply)))
    with pytest.raises(_Raised):
        eng.eval_data(parse("pass : (zzz x : a)"))
    applied[0] = 0
    eng.begin()
    assert render(eng.eval_data(parse("pass : (zzz : b) (zzz : b)"))) == "b b"
    assert applied[0] == 1  # the repeated nested coda is read from the memo
    eng.begin()
    assert render(eng.eval_data(parse("zzz : c"))) == "c"
    assert parse("zzz : c")[0] not in {key for key, *_ in eng._memo.values()}


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
    # one rule: is_invariant holds when atom_or_eq decides c and every coda
    # inside it an atom, so an inert coda headed by a word or a marker coda
    # is invariant alone and inside a fixed point alike
    eng = Engine(prelude())
    cases = {
        "(:)": (True, True),
        "a": (True, True),
        "(n:a)": (True, True),
        "(n:(pass:a))": (True, False),
        "(zzz:a)": (True, True),
        "(n:(zzz:a))": (True, True),
        "((n:a) x:y)": (True, True),
        "(n:((n:a) x:y))": (True, True),
        "(b:(foo x:y))": (True, True),
        # a mismatch residue is an atom only by the check atom_or_eq leaves
        "(= a:b)": (True, False),
        "(pass:a)": (False, False),
        "({B B}:a)": (False, False),
    }
    for src, want in cases.items():
        c = parse(src)[0]
        assert (eng.is_atom(c), eng.is_invariant(c)) == want, src


def test_is_invariant_and_classify_atom_read_atom_or_eq(rng):
    # on every coda of random normal forms, at any depth: is_invariant is
    # atom_or_eq's rule asked of each coda inside, and an invariant atom is
    # an atom
    eng = Engine(prelude())
    words = SAFE_WORDS + DECIDING_WORDS + ("n", "zzz")

    def codas(d):
        for c in d:
            yield c
            yield from codas(c.left + c.right)

    seen = {True: 0, False: 0}
    for _ in range(300):
        d = evaluate(random_data(rng, 3, words=words), prelude(), Budget(2000, 50_000)).result
        for c in codas(d):
            want = all(eng.atom_or_eq(x) is True for x in codas((c,)))
            assert eng.is_invariant(c) is want, render((c,))
            assert classify_atom(c, prelude()) != "invariant_atom" or eng.is_atom(c), render((c,))
            seen[want] += 1
    assert seen[True] and seen[False]


def test_add_definition_and_monotonicity():
    ctx = prelude()
    ctx2 = add_definition(ctx, "twice", parse("ap {B B}"))
    assert ev("twice : x", ctx2) == "x x"
    # a word atom names a definition as its text does; any other coda cannot
    assert ev("thrice : x", add_definition(ctx, word("thrice"), parse("ap {B B B}"))) == "x x x"
    with pytest.raises(ValueError, match="^definition name must be a word atom$"):
        add_definition(ctx, parse("(a:b)")[0], parse("null"))
    # rebinding is a no-op
    ctx3 = add_definition(ctx2, "twice", parse("null"))
    assert ev("twice : a b", ctx3) == ev("twice : a b", ctx2)
    # old results are unchanged by the new definition
    for src in ("pass : a b", "(a=b)", "bool : x"):
        assert ev(src, ctx) == ev(src, ctx2)


def test_def_builtin_defines_within_evaluation():
    assert ev("(def first2 : {first 2 : B}) (first2 : a b c d)") == "a b"


def test_a_definition_without_a_branch_is_a_fixed_point():
    # a name and a trigger only: the codas it heads are atoms
    ctx = prelude().bind(Definition(name="zz", trigger=word("zz")))
    out = evaluate(parse("zz a : b"), ctx)
    assert (render(out.result), out.normalized) == ("(zz a:b)", True)
    assert classify_atom(out.result[0], ctx) == "invariant_atom"


def test_classify_atom():
    ctx = MARKED
    assert classify_atom(COLON, ctx) == "invariant_atom"
    # evaluation changes each of these, also when only a component or the
    # head is rewritten
    for src in ("(pass:a)", "({B B}:a)", "((pass:a):x)", "(zzz:(pass:a))"):
        assert classify_atom(parse(src)[0], ctx) == "reducible", src
    assert classify_atom(Coda((word("b"),), (word("x"),)), ctx) == "invariant_atom"
    # is_invariant's one rule: an inert coda is an invariant atom alone and
    # inside a fixed point alike
    for src in ("(zzz:a)", "(n:(zzz:a))", "((n:a) x:y)", "(n:((n:a) x:y))", "(b:(foo x:y))"):
        assert classify_atom(parse(src)[0], ctx) == "invariant_atom", src
    # an atom by is_atom that evaluation leaves as it is, though it holds a
    # coda that is not one: a fixed point's coda, (:X), and a mismatch
    # residue, its own fixed point
    for src in ("(n:(pass:a))", "(b:(pass:x))", "(b:({B}:x))", "(:(pass:a))", "(= a:b)"):
        assert classify_atom(parse(src)[0], ctx) == "defined_fixed_point", src
    # in the prelude, which binds no n, evaluation normalises the inert coda's
    # components
    assert classify_atom(parse("(n:(pass:a))")[0], prelude()) == "reducible"
    # def with no name is out of its builtin's domain
    assert classify_atom(parse("(def:)")[0], ctx) == "undecided"


def test_classify_atom_reads_evaluation_under_one_budget():
    # the first step already rewrites the head; with no step, nothing is
    # known
    c = parse("((pass:(pass:pass)):x)")[0]
    got = [classify_atom(c, prelude(), Budget(max_steps=k)) for k in range(4)]
    assert got == ["undecided", "reducible", "reducible", "reducible"]


def test_classify_atom_of_a_deep_chain():
    # decided statically, with no evaluation to recurse
    for w in ("n", "zzz"):
        c = parse(f"({w}:" * 10_000 + ")" * 10_000)[0]
        assert classify_atom(c, prelude()) == "invariant_atom", w


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 3: evaluation recurses once per level of a pass: chain")
def test_a_deep_pass_chain_evaluates():
    # 2,000 levels, well past the limit wherever the caller's stack starts:
    # 498 levels pass at top level, and fewer one helper deeper
    with shallow_recursion_error():
        out = evaluate(parse("pass:" * 2000 + "a"), prelude())
    assert (render(out.result), out.normalized) == ("a", True)


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 3: classify_atom evaluates the coda, which recurses")
def test_classify_atom_of_a_deep_reducible_chain():
    # the innermost (pass:a) is rewritten, at 100 levels and at 600 alike
    for depth in (100, 600):
        c = parse("(zzz:" * depth + "(pass:a)" + ")" * depth)[0]
        with shallow_recursion_error():
            assert classify_atom(c, prelude()) == "reducible", depth


def test_classify_atom_reads_evaluation(rng):
    # an invariant coda is its own normal form at no charge, no coda of a
    # normal form is reducible, and reducible is exactly "evaluation under
    # the budget changes it"
    ctx = prelude()
    eng = Engine(ctx)
    words = SAFE_WORDS + DECIDING_WORDS + ("n", "zzz", "b", "while", "ap", "def")
    budget = Budget(2000, 50_000)

    def codas(d):
        for c in d:
            yield c
            yield from codas(c.left + c.right)

    invariant = changed = 0
    for _ in range(2000):
        d = random_data(rng, 3, words=words)
        out = evaluate(d, ctx, budget)
        for c in codas(d + out.result):
            if eng.is_invariant(c):
                got = evaluate((c,), ctx, budget)
                assert (got.result, got.normalized, got.steps_used) == ((c,), True, 0), render((c,))
                invariant += 1
        if out.normalized:
            for c in out.result:
                assert classify_atom(c, ctx, budget) != "reducible", render((c,))
        for c in d:
            small = Budget(max_steps=rng.randrange(6))
            moved = evaluate((c,), ctx, small).result != (c,)
            assert (classify_atom(c, ctx, small) == "reducible") is moved, render((c,))
            changed += moved
    assert invariant and changed


def test_is_invariant_reads_a_shared_coda_once(monkeypatch):
    # each level, headed by MARKED's fixed point n, holds the one below
    # twice, so a walk that unfolds the sharing dispatches 2^d times
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
    assert classify_atom(c, MARKED) == "invariant_atom"
    assert calls <= 2 * d


@pytest.mark.parametrize("src, want", [
    ("(:a)", True),
    ("(zzz:a)", True),
    ("((n:a) x:y)", True),
    ("((pass:f) x:y)", False),
    ("((= a:b) x:y)", "(= a:b)"),
])
def test_atom_or_eq_reads_c_or_its_head(monkeypatch, src, want):
    # the definition of c decides, or that of its head when c has none:
    # two dispatches at most, and none for (:X)
    calls = 0
    dispatch = Engine.dispatch

    def counted(eng, c):
        nonlocal calls
        calls += 1
        return dispatch(eng, c)

    monkeypatch.setattr(Engine, "dispatch", counted)
    found = Engine(prelude()).atom_or_eq(parse(src)[0])
    want = parse(want)[0] if isinstance(want, str) else want
    assert type(found) is type(want) and found == want
    assert calls <= (0 if src == "(:a)" else 2)


def test_an_answer_is_relative_to_the_context_it_was_decided_in():
    # rule 1: the = coda is decided NEVER while zzz is unbound, and stays as
    # its own fixed point; the def after it binds zzz, so the normal form is
    # normal in the context the evaluation started in, and the outcome's
    # context rewrites it
    out = evaluate(parse("(= (zzz:a) : (zzz:b)) (def zzz : const c) (zzz:a) (zzz:b)"), prelude())
    assert (render(out.result), out.normalized) == ("(= (zzz:a):(zzz:b)) c c", True)
    again = evaluate(out.result, out.context)
    assert (render(again.result), again.normalized) == ("c c", True)
    again = evaluate(out.result, prelude())
    assert (again.result, again.normalized) == (out.result, True)


def test_a_comparison_runs_its_right_side_where_its_left_side_ended():
    # rule 2: the right side runs with f bound by the left side's def, so
    # the sides compare NEVER in either order, though each alone normalizes
    # to a b; a law verdict and its witness compare the same way
    lhs = parse("last 2 : b a (f:b) (def f:rev)")
    rhs = parse("last 2 : (last 2 : b a) (f:b) (def f:rev)")
    assert [render(evaluate(d, prelude()).result) for d in (lhs, rhs)] == ["a b", "a b"]
    assert equal(lhs, rhs, prelude()) is TriBool.NEVER
    assert equal(rhs, lhs, prelude()) is TriBool.NEVER
    verdict = check_associative(parse("last 2"), ProbeSet((parse("b a"), parse("(f:b) (def f:rev)"))))
    assert (verdict.refuted, verdict.checked) == (True, 3)
    assert (verdict.witness.lhs, verdict.witness.rhs) == (lhs, rhs)
    assert verdict.witness.still_violates()


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
    # windows of budgets that run out before, at and after the point its
    # nested entry's cost reaches; the entry is hit exactly when that cost
    # fits strictly inside what the window has left when it is met
    inner = "sort : (rev : b a) (rev : c)"
    form = parse(f"pass : ({inner})")
    ctx, applied = counting("sort")
    entry = evaluate(parse(inner), ctx).steps_used
    cost = evaluate(form, ctx).steps_used
    shared = Engine(ctx, Budget(max_steps=cost + 1))
    shared.eval_data(form)
    hits = 0
    for steps in (cost - 1, cost, cost + 1, cost + 2):
        # one `pass` step, or two, is charged before the entry is met
        for before, d in ((1, form), (2, parse("pass : x") + form)):
            budget = shared.budget = Budget(max_steps=steps)
            expect = _run(_Unmemoised(ctx, budget), d)
            applied[0] = 0
            assert _windowed(shared, d) == expect
            hit = before + entry < steps
            assert (applied[0] == 0) == hit
            hits += hit
    assert hits == 3
    eng = Engine(ctx)
    eng.eval_data(form)
    budget = shared.budget = Budget(max_nodes=eng.nodes)
    assert _windowed(shared, form) == _run(_Unmemoised(ctx, budget), form)


def test_def_inside_an_evaluation_bypasses_the_memo():
    # the inert (f:x) normalized before the def must not answer after it
    assert ev("(f : x) (def f : g) (f : x)") == "(f:x) (g:x)"
    ctx = prelude()
    eng = Engine(ctx)
    eng.eval_data(parse("pass : (f : x)"))
    eng.begin()
    assert render(eng.eval_data(parse("pass : (def f : g) (f : x)"))) == "(g:x)"
    # an evaluation in which a def fires is not stored: a hit would skip
    # the def, and the engine would go on in the old context
    defines = "pass : (def h : g) (h : x)"
    eng.begin()
    eng.eval_data(parse(f"pass : ({defines})"))
    eng.begin()
    assert render(eng.eval_data(parse(f"pass : ({defines}) (h : y)"))) == "(g:x) (g:y)"


def test_budget_bounds_time():
    out = evaluate(parse("while {(B:B)} : a"), prelude(), Budget(max_steps=200))
    assert not out.normalized
    assert out.steps_used == 200


def test_deep_pass_chain():
    assert render(evaluate(parse("pass:" * 400 + "a"), prelude()).result) == "a"
