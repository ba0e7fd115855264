import random
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings, strategies as st

from coda.encoding import word
from coda.engine import Budget, Context, Definition, Engine, TriBool, evaluate
from coda.lang import parse, render
from coda.prelude import _BRANCHES, _FIXED_POINTS, UnknownBuiltin, builtin, prelude
from coda.terms import COLON, Coda

from conftest import SAFE_WORDS, random_data


# the prelude with three fixed points of the test's own: codas headed by n,
# q or b are atoms, with their triggers visible to domain, has and hasnt
MARKED = Context({**prelude().defs, **{word(m): Definition(name=m, trigger=word(m)) for m in "nqb"}})


def ev(src, ctx=None):
    return render(evaluate(parse(src), ctx or prelude()).result)


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        builtin("no-such-thing")


def test_each_builtin_is_the_preludes_own_definition():
    names = [*_FIXED_POINTS, *_BRANCHES]
    for name in names:
        d = builtin(name)
        assert d.name == name and builtin(name) is prelude().defs[d.trigger]
    assert set(prelude().defs) == {builtin(name).trigger for name in names}


def test_the_prelude_binds_only_builtins_and_atom_makers():
    atom_makers = ["bit-marker", "byte-marker", "word-marker", "{}"]
    assert prelude().names() == sorted([*_BRANCHES, *atom_makers])


def test_markers_are_fixed_points():
    assert ev("(n : pass : a)", MARKED) == "(n:(pass:a))"
    assert ev("(b : x)", MARKED) == "(b:x)"
    assert ev("(q a : a)", MARKED) == "(q a:a)"
    # an atom maker's coda is one too; an unbound head leaves its coda inert,
    # so its components are normalised
    assert ev("((:) : pass : a)") == "((:):(pass:a))"
    assert ev("(n : pass : a)") == "(n:a)"


def test_put_get():
    assert ev("put n : a b") == "(n:a b)"
    # put normalizes its contents before wrapping
    assert ev("put n : (pass : a)") == "(n:a)"
    assert ev("get n : (n:a) (m:b) (n:c)") == "a c"
    assert ev("get0 n : (n:a) (n:b)") == "a"
    assert ev("get0 n : (m:a)") == "()"


def test_bool_and_not():
    assert ev("bool : ") == "()"
    assert ev("bool : a b") == "(:)"
    assert ev("not : ") == "(:)"
    assert ev("not : a") == "()"
    # an undefined-headed coda is an atom, so this is decided nonempty
    assert ev("bool : (zzz:)") == "(:)"


def test_atoms():
    assert ev("atoms : a (x:y)") == "(:) (:)"
    # (def:) is no atom, so the coda stays put
    assert ev("atoms : (def:)") == "(atoms:(def:))"


def test_if_nif():
    assert ev("if : a b") == "a b"
    assert ev("if (:) : a b") == "()"
    assert ev("nif (:) : a b") == "a b"
    assert ev("nif : a b") == "()"


def test_while():
    assert ev("while remove a : a a a b") == "b"
    assert ev("while pass : x") == "x"


def test_guards_declare_their_operands():
    # a guard's operand is normalised in Engine._rewrite, by declaration
    # alone, so the branch and emptiness only read normal forms
    declared = {name: _BRANCHES[name][1] for name in ("bool", "not", "if", "nif", "=", "while")}
    assert declared == {"bool": "B", "not": "B", "if": "A", "nif": "A", "=": "AB", "while": "B"}
    eng = Engine(prelude())
    assert eng.emptiness(parse("pass : a")) is TriBool.UNDECIDED
    assert eng.steps == 0


def test_prod_and_sum():
    assert ev("prod (:not) (:bool) : a") == "()"
    assert ev("sum (:pass) (:null) : a b") == "a b"
    assert ev("sum : a") == "()"


def test_domain_has_hasnt():
    # marker codas survive evaluation, so their triggers are visible
    assert ev("domain : (n:x) (q a:y) (zzz:w)", MARKED) == "n q"
    assert ev("has n : (n:x) (b:y)", MARKED) == "(n:x)"
    assert ev("hasnt n : (n:x) (b:y)", MARKED) == "(b:y)"
    # the prelude binds neither n nor q, and an atom maker's trigger is visible
    assert ev("domain : (n:x) (q a:y) (zzz:w)") == "()"
    assert ev("domain : ((:):x) (zzz:w)") == "(:)"


def test_ap_aq_ar():
    assert ev("ap const x : a b") == "x x"
    assert ev("aq zzz a b : c") == "(zzz a:c) (zzz b:c)"
    assert ev("aq x : y") == ev("aq x y :") == "()"
    assert ev("ar zzz a b : c") == "(zzz a:c) (zzz b:c)"
    assert ev("ap {B B} : 1 2") == "1 1 2 2"


def test_first_last_counts():
    assert ev("first : a b c") == "a"
    assert ev("first 2 : a b c") == "a b"
    assert ev("last : a b c") == "c"
    assert ev("last 2 : a b c") == "b c"
    assert ev("last 9 : a b") == "a b"


def test_a_count_is_a_decimal_word_of_any_length():
    # no input raises: a digit that is not decimal counts 1, a decimal word
    # of any script counts its value, and a count past every length saturates
    assert ev("first ² : a b c") == "a"
    assert ev("last ① : a b") == "b"
    assert ev("first ٣ : a b c d") == "a b c"
    assert ev(f"last {'9' * 5000} : a b") == "a b"
    assert ev(f"first {'0' * 30}2 : a b c") == "a b"


def test_is_isnt_filters():
    assert ev("is a : a b a c") == "a a"
    assert ev("isnt a : a b a c") == "b c"
    assert ev("is a b : c a b") == "a b"


def is_by_pairs(keep_equal):
    """Reference for is/isnt: compare each member of A with each coda of B.
    `replace` keeps the builtin's `strict`, so A and B arrive normalised."""

    def branch(eng, a, b):
        out = []
        for c in b:
            verdicts = [eng.tri_compare((x,), (c,)) for x in a]
            if any(v is TriBool.ALWAYS for v in verdicts):
                equal = True
            elif all(v is TriBool.NEVER for v in verdicts):
                equal = False
            else:
                return None
            if equal is keep_equal:
                out.append(c)
        return tuple(out)

    return branch


BY_PAIRS = Context({**prelude().defs, **{
    word(name): replace(builtin(name), apply=is_by_pairs(keep))
    for name, keep in (("is", True), ("isnt", False))}})

# words, (:), inert codas, reducible (pass:...) codas, `=` residues (atoms
# or not, and as heads), a stuck non-atom, and residues whose check binds a
# word that a later coda uses (rule 1 of engine's docstring)
MEMBERS = [parse(src) for src in (
    "a", "b", "c", ":", "(zzz:a)", "(a:b)", "(:a)", "(pass:a)", "(pass:)", "(pass:a b)",
    "(= a : b)", "(= a : a)", "(= (pass:a) : b)", "(= (def : a) : b)", "((= a : b) x : y)",
    "(def : a)", "(is a : a b)",
    "(= (def f : c) : b)", "(f:a)", "(= (f:a) : c)", "(= (pass:a) (pass:b) : a)",
)]
members = st.lists(st.sampled_from(MEMBERS), max_size=4).map(lambda ds: sum(ds, ()))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(members, members)
def test_is_isnt_match_the_pairwise_reference(a, b):
    # the pairwise loop charges a residue check once per pair, the rule
    # once per coda: never more steps, the same result wherever the loop
    # normalizes, and wherever the rule normalizes the loop's result under
    # the default budget
    for name in ("is", "isnt"):
        d = (Coda((word(name),) + a, b),)
        full = render(evaluate(d, BY_PAIRS).result)
        for budget in [Budget(max_steps=n) for n in range(1, 13)] + [Budget()]:
            got, want = (evaluate(d, ctx, budget) for ctx in (prelude(), BY_PAIRS))
            assert got.steps_used <= want.steps_used
            if want.normalized:
                assert got.normalized and render(got.result) == render(want.result)
            if got.normalized:
                assert render(got.result) == full


def residues(lo, hi):
    return " ".join(f"(= (zzz:w{i}) : (zzz:w{i}) a)" for i in range(lo, hi))


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("name", ["is", "isnt"])
def test_is_isnt_work_is_bounded_by_width_and_steps(monkeypatch, name, n):
    # each residue is an atom only by is_atom's residue check, which charges
    # nothing here; B holds half of A's residues and n/2 others, so both the
    # member and the non-member cases are decided
    calls = 0

    def counted(f):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return f(*args)
        return wrapper

    for method in ("tri_compare", "is_atom"):
        monkeypatch.setattr(Engine, method, counted(getattr(Engine, method)))
    src = f"{name} {residues(0, n)} : {residues(n // 2, n + n // 2)}"
    out = evaluate(parse(src), prelude(), Budget(max_steps=10))
    assert out.normalized and len(out.result) == n // 2
    assert calls <= 20 * (n + out.steps_used)


def test_once_dedupes():
    assert ev("once : a b a c b") == "a b c"
    assert ev("once a : a b a") == "b"


def once_by_list(eng, a, b):
    """Reference for once: a first-occurrence scan of a list."""
    seen = list(a)
    out = []
    for c in b:
        if c not in seen:
            seen.append(c)
            out.append(c)
    return tuple(out)


ONCE_BY_LIST = Context({**prelude().defs,
                        word("once"): replace(builtin("once"), apply=once_by_list)})

# equal but distinct codas: a word built twice, (:) beside a fresh Coda(),
# a structural coda built twice; and reducible codas that spend steps
ONCE_MEMBERS = [
    (word("a"),), (Coda(word("a").left, word("a").right),), (word("b"),),
    (COLON,), (Coda(),), (Coda((COLON,), ()),), (Coda((Coda(),), ()),),
    parse("(pass:a)"), parse("(pass:)"), parse("(x:y)"),
]
once_members = st.lists(st.sampled_from(ONCE_MEMBERS), max_size=6).map(lambda ds: sum(ds, ()))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(once_members, once_members)
def test_once_matches_the_list_reference(a, b):
    d = (Coda((word("once"),) + a, a + b),)  # B repeats the members of A
    for budget in [Budget(max_steps=n) for n in range(1, 13)] + [Budget()]:
        got, want = (evaluate(d, ctx, budget) for ctx in (prelude(), ONCE_BY_LIST))
        assert ((render(got.result), got.normalized, got.steps_used)
                == (render(want.result), want.normalized, want.steps_used))


@pytest.mark.parametrize("name", ["sort", "min"])
def test_sort_of_a_shared_coda_is_not_unfolded(name):
    # each {(B:B)} doubles the tree of its input in one memoised step, and
    # the steps charged count the tree, so the budget must admit 2^40 + 1
    src = f"bool : {name} : " + "{(B:B)} : " * 40 + "a"
    out = evaluate(parse(src), prelude(), Budget(max_steps=2**41, max_nodes=2**41))
    assert (render(out.result), out.normalized, out.steps_used) == ("(:)", True, 2**40 + 1)


def test_rev_remove_sort_min():
    assert ev("rev : a b c") == "c b a"
    assert ev("remove a b : a b c") == "c"
    assert ev("remove a : b a") == "b a"
    assert ev("sort : c a b") == "a b c"
    assert ev("sort : (x:y) b a") == "(x:y) a b"
    assert ev("min : b a c") == "a"
    assert ev("min : ") == "()"
    assert ev("min a a : a a a") == "a a"
    # non-words first in canonical order, then words by their text
    assert (ev("sort : b (x:y) a (:) b {q} (zzz:) a c (x:y)")
            == "(:) (x:y) (x:y) {q} (zzz:) a a b b c")
    assert ev("sort : bb b ab a b") == "a ab b b bb"
    assert ev("sort : (n:a) (zz:) (n:) (:a) (:)") == "(:) (:a) (n:) (n:a) (zz:)"
    assert ev("min : c b a b") == "a"
    assert ev("min : b (x:y) a (:) b (zzz:)") == "(:)"
    assert ev("min : b {q} (zzz:) (x:y) b") == "(x:y)"


def test_def_word():
    assert ev("(def dup : ap {B B}) (dup : p q)") == "p p q q"
    # a name that normalises to no word stays put and binds nothing
    out = evaluate(parse("(def (pass:(:)) : x)"), prelude())
    assert render(out.result) == "(def (pass:(:)):x)" and out.context.names() == prelude().names()



# One program per builtin, with a reducible (pass:x) in every operand, so
# that each pin shows which operands the builtin normalises and in what
# order.  Each entry: the program, a step budget that runs out inside the
# operands (nothing to run out in for null), and (render(result),
# normalized, steps_used) under the default budget and under that one, in
# MARKED, whose fixed points the pins of domain, has and hasnt read.
PINS = {
    "pass": ("pass (pass:x) : (pass:a) (pass:b)", 2,
        ("a b", True, 3), ("a (pass:b)", False, 2)),
    "null": ("null (pass:x) : (pass:a)", 1,
        ("()", True, 1), ("()", True, 1)),
    "left": ("left (pass:a) (pass:b) : (pass:x)", 2,
        ("a b", True, 3), ("a (pass:b)", False, 2)),
    "right": ("right (pass:x) : (pass:a) (pass:b)", 2,
        ("a b", True, 3), ("a (pass:b)", False, 2)),
    "const": ("const (pass:a) (pass:b) : (pass:x)", 2,
        ("a b", True, 3), ("a (pass:b)", False, 2)),
    "put": ("put (pass:a) : (pass:b) c", 2,
        ("(a:b c)", True, 3), ("(put (pass:a):(pass:b) c)", False, 2)),
    "get": ("get (pass:a) : (a:x) (b:y) (pass:(a:z))", 2,
        ("x z", True, 3), ("(get (pass:a):(a:x) (b:y) (pass:(a:z)))", False, 2)),
    "get0": ("get0 (pass:a) : (pass:(a:x)) (a:y)", 2,
        ("x", True, 3), ("(get0 (pass:a):(pass:(a:x)) (a:y))", False, 2)),
    "atoms": ("atoms (pass:x) : (pass:a) (pass:b) c", 2,
        ("(:) (:) (:)", True, 3), ("(atoms (pass:x):(pass:a) (pass:b) c)", False, 2)),
    "bool": ("bool (pass:x) : (pass:a) (pass:b)", 2,
        ("(:)", True, 3), ("(bool (pass:x):(pass:a) (pass:b))", False, 2)),
    "not": ("not (pass:x) : (pass:) (pass:)", 2,
        ("(:)", True, 3), ("(not (pass:x):(pass:) (pass:))", False, 2)),
    "=": ("= (pass:a) : (pass:a)", 2,
        ("()", True, 3), ("(= (pass:a):(pass:a))", False, 2)),
    "def": ("(def f (pass:x) : pass) (f (pass:y) : (pass:a) b)", 2,
        ("a b", True, 4), ("(pass (pass:y):(pass:a) b)", False, 2)),
    "if": ("if (pass:a) : (pass:b) c", 1,
        ("()", True, 2), ("(if (pass:a):(pass:b) c)", False, 1)),
    "nif": ("nif (pass:(pass:)) : (pass:b) c", 1,
        ("()", True, 3), ("(nif (pass:(pass:)):(pass:b) c)", False, 1)),
    "while": ("while (pass:remove) a : (pass:a) a a b", 2,
        ("b", True, 14), ("(while (pass:remove) a:(pass:a) a a b)", False, 2)),
    "prod": ("prod (pass:(x:rev)) (y:pass) : (pass:a) b", 2,
        ("b a", True, 5), ("(rev:(pass:(pass:a) b))", False, 2)),
    "sum": ("sum (pass:(x:rev)) (y:pass) : (pass:a) b", 2,
        ("b a a b", True, 6), ("(rev:(pass:a) b) (pass:(pass:a) b)", False, 2)),
    "domain": ("domain (pass:x) : (pass:(q:a)) (pass:(n:b)) c", 2,
        ("q n ((:):(:))", True, 3), ("(domain (pass:x):(pass:(q:a)) (pass:(n:b)) c)", False, 2)),
    "ap": ("ap (pass:x) : (pass:a) (pass:b)", 2,
        ("(x:a) (x:b)", True, 5), ("(ap (pass:x):(pass:a) (pass:b))", False, 2)),
    "aq": ("aq (pass:put) (pass:a) b : (pass:c)", 2,
        ("(a:c) (b:c)", True, 7), ("(aq (pass:put) (pass:a) b:(pass:c))", False, 2)),
    "ar": ("ar (pass:put) a : (pass:b) (pass:c)", 2,
        ("(a:b) (a:c)", True, 6), ("(ar (pass:put) a:(pass:b) (pass:c))", False, 2)),
    "first": ("first (pass:2) : (pass:a) b c", 2,
        ("a b", True, 3), ("(first (pass:2):(pass:a) b c)", False, 2)),
    "last": ("last (pass:2) : (pass:a) b c", 2,
        ("b c", True, 3), ("(last (pass:2):(pass:a) b c)", False, 2)),
    "has": ("has (pass:q) : (q:a) (n:b) (pass:(q:c))", 2,
        ("(q:a) (q:c)", True, 3), ("(has (pass:q):(q:a) (n:b) (pass:(q:c)))", False, 2)),
    "hasnt": ("hasnt (pass:q) : (q:a) (n:b) (pass:(q:c))", 2,
        ("(n:b)", True, 3), ("(hasnt (pass:q):(q:a) (n:b) (pass:(q:c)))", False, 2)),
    "is": ("is (pass:a) b : a (pass:b) c", 2,
        ("a b", True, 3), ("(is (pass:a) b:a (pass:b) c)", False, 2)),
    "isnt": ("isnt (pass:a) b : a (pass:b) c", 2,
        ("c", True, 3), ("(isnt (pass:a) b:a (pass:b) c)", False, 2)),
    "once": ("once (pass:a) : a (pass:b) b c", 2,
        ("b c", True, 3), ("(once (pass:a):a (pass:b) b c)", False, 2)),
    "rev": ("rev (pass:x) : (pass:a) (pass:b) c", 2,
        ("c b a", True, 3), ("(rev (pass:x):(pass:a) (pass:b) c)", False, 2)),
    "remove": ("remove (pass:a) b : a (pass:b) c", 2,
        ("c", True, 3), ("(remove (pass:a) b:a (pass:b) c)", False, 2)),
    "sort": ("sort (pass:x) : (pass:c) (pass:b) a", 2,
        ("a b c", True, 3), ("(sort (pass:x):(pass:c) (pass:b) a)", False, 2)),
    "min": ("min (pass:) : (pass:c) b a", 2,
        ("a", True, 3), ("(min (pass:):(pass:c) b a)", False, 2)),
}


def test_every_builtin_is_pinned():
    assert set(PINS) == set(_BRANCHES)


@pytest.mark.parametrize("name", sorted(PINS))
def test_builtin_pins(name):
    src, steps, default, tight = PINS[name]
    for budget, want in ((Budget(), default), (Budget(max_steps=steps), tight)):
        out = evaluate(parse(src), MARKED, budget)
        assert (render(out.result), out.normalized, out.steps_used) == want


# Builtins that other builtins derive: each program, applied to A : B, is
# the builtin (ROADMAP item 29).  min's program takes no A.
DERIVATIONS = {
    "last": "{rev : first A : rev : B}",
    "nif": "{if (not : A) : B}",
    "not": "{if B : (:)}",
    "bool": "{nif B : (:)}",
    "min": "{first 1 : sort : B}",
}
WORDS_AND_COUNTS = SAFE_WORDS + ("0", "2")  # so that first and last take counts


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
def test_derived_builtins_match_their_programs(name):
    # under an ample budget the same result and verdict; under a tight one,
    # wherever the program normalizes the builtin does too, to the same
    # result.  Steps are not compared: the program takes more.
    program = parse(DERIVATIONS[name])[0]
    rng = random.Random(20261020)
    for _ in range(600):
        a = () if name == "min" else random_data(rng, 2, 3, words=WORDS_AND_COUNTS)
        b = random_data(rng, 2, 3, words=WORDS_AND_COUNTS)
        got, want = ((Coda((head,) + a, b),) for head in (word(name), program))
        g, w = (evaluate(d, prelude(), Budget(2000, 50000)) for d in (got, want))
        assert (render(g.result), g.normalized) == (render(w.result), w.normalized)
        for k in range(1, 13):
            g, w = (evaluate(d, prelude(), Budget(max_steps=k)) for d in (got, want))
            if w.normalized:
                assert g.normalized and render(g.result) == render(w.result)
