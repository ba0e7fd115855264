import pytest
from hypothesis import given, seed, settings, strategies as st

from coda.encoding import (
    WORD_LANG, WORD_MARKER, atom_text, bits, decode_bytes, is_lang_atom,
    lang_atom, lang_source, word, word_text,
)
from coda.engine import Engine, evaluate, step
from coda.lang import _compile, _scan, eval_lang_atom, parse, render
from coda.prelude import prelude
from coda.terms import COLON, Coda


def ev(src):
    return render(evaluate(parse(src), prelude()).result)


def test_words_and_whitespace():
    assert parse("a b") == (word("a"), word("b"))
    assert parse("  a\t b \n") == (word("a"), word("b"))
    assert parse("") == ()


def test_colon_binds_right_and_lowest():
    d = parse("a:b:c")
    assert d == (Coda((word("a"),), (Coda((word("b"),), (word("c"),)),)),)
    d = parse("a:b c")
    assert d == (Coda((word("a"),), (word("b"), word("c"))),)


def test_groups_and_literal_colon():
    assert parse("(:)") == (COLON,)
    assert parse("()") == ()
    assert parse("(a:b) c") == (Coda((word("a"),), (word("b"),)), word("c"))


def test_equality_sugar():
    assert parse("(x=y)") == (Coda((word("="), word("x")), (word("y"),)),)
    # a leading = with nothing before it is just a word
    assert parse("=") == (word("="),)


def test_lang_atoms_carry_source():
    d = parse("{first 2 : B}")
    assert len(d) == 1 and is_lang_atom(d[0])
    assert lang_source(d[0]) == "first 2 : B"
    # braces are opaque to the outer grammar
    assert parse("{a:b} c") == (parse("{a:b}")[0], word("c"))


def test_unbalanced_input_heals():
    assert parse("(a b") == parse("(a b)")
    assert parse("{a b") == parse("{a b}")
    assert parse(")x") == (word(")x"),)


def test_render_basics():
    assert render(()) == "()"
    assert render((COLON,)) == "(:)"
    assert render((Coda((COLON,), ()),)) == "((:):)"
    assert render((COLON, COLON)) == "(:) (:)"


def test_render_roundtrip_examples():
    for src in ("a b", "(a:b)", "{x : B}", "(:)", "((:):)"):
        assert render(parse(src)) == src or parse(render(parse(src))) == parse(src)


def expand(src, a, b):
    """The template `src` expanded for components `a` and `b`."""
    return eval_lang_atom(_compile(src)[1], a, b)


def applied(src, a, b):
    """The one-step rewrite of ({src} a : b) in the prelude."""
    return step((Coda((lang_atom(src), *a), b),), prelude())


def test_template_substitution():
    a, b = (word("x"),), (word("y"), word("z"))
    assert expand("A B", a, b) == a + b
    assert expand("B B", (), b) == b + b
    assert expand("first 2 : B", (), b) == (
        Coda((word("first"), word("2")), b),
    )


def test_constant_template_for_unbound_head():
    # {a} names nothing, so it ignores its components entirely
    assert ev("{a} : (:)") == "a"
    assert ev("ap {a} : x y") == "a a"


def test_bound_head_template_applies():
    # {pass} expands to the pass transformation on the original components
    assert ev("{pass} x : y") == "y"
    assert ev("{pass} : x y") == "x y"
    assert ev("ap {pass} : x y") == "x y"
    # `=A` mentions A, so the source is a template, not a borderline case;
    # `pass =A` would read back as (= pass : A), so `=A` prints structurally
    assert parse(ev("{pass (=A)} x : y")) == (word("pass"), word("=A"))


def shape(d):
    """`d` as nested tuples: words as their text, language atoms as
    `{source}`, other codas as (left, right)."""
    out = []
    for c in d:
        text = word_text(c)
        if text is not None:
            out.append(text)
        elif is_lang_atom(c):
            out.append("{" + lang_source(c) + "}")
        else:
            out.append((shape(c.left), shape(c.right)))
    return tuple(out)


# (source, shape(parse(source)), shape(applied(source, (x,), (y, z)))):
# unbalanced and unmatched brackets, `=` sugar and its blank-left cases,
# brackets of one kind inside the other in both modes, and Unicode
# whitespace (\x0c, \xa0) that only leads a word when it starts one
CORPUS = [
    ("(a b", ("a", "b"), ("a", "b")),
    ("{a b", ("{a b}",), ((("{a b}", "x"), ("y", "z")),)),
    ("((a", ("a",), ("a",)),
    ("{{a}", ("{{a}}",), ((("{{a}}", "x"), ("y", "z")),)),
    ("a)b", ("a)b",), ("a)b",)),
    ("a}b c", ("a}b", "c"), ("a}b", "c")),
    ("(a}b)", ("a}b",), ("a}b",)),
    ("a) (b", ("a)", "b"), ("a)", "b")),
    ("x=y", ((("=", "x"), ("y",)),), ((("=", "x"), ("y",)),)),
    ("=x", ("=x",), ("=x",)),
    (" =x=y", ("=x=y",), ("=x=y",)),
    ("a=b=c", ((("=", "a"), ((("=", "b"), ("c",)),)),), ((("=", "a"), ((("=", "b"), ("c",)),)),)),
    ("a= =b", ((("=", "a"), ("=b",)),), ((("=", "a"), ("=b",)),)),
    ("a:b=c:d", ((("a",), ((((("=", "b"), ("c",)),), ("d",)),)),), ((("a",), ((((("=", "b"), ("c",)),), ("d",)),)),)),
    ("(x=y) z", ((("=", "x"), ("y",)), "z"), ((("=", "x"), ("y",)), "z")),
    ("() = x", ((("=",), ("x",)),), ((("=",), ("x",)),)),
    ("({a:b} c)", ("{a:b}", "c"), ((("{a:b}", "c", "x"), ("y", "z")),)),
    ("{(a:b) c}", ("{(a:b) c}",), ((("{(a:b) c}", "x"), ("y", "z")),)),
    ("({)} x", ("{)}", "x"), ((("{)}", "x", "x"), ("y", "z")),)),
    ("{(} x)", ("{(}", "x)"), ((("{(}", "x)", "x"), ("y", "z")),)),
    ("{(} B", ("{(}", "B"), ("y", "z")),
    ("{(B} A)", ("{(B}", "A)"), ("y", "z", "A)")),
    ("(a {b) c}", ("a", "{b) c}"), ("a", "{b) c}")),
    ("\x0ca b", ("a", "b"), ("a", "b")),
    ("a\x0cb", ("a\x0cb",), ("a\x0cb",)),
    ("\xa0A", ("A",), ("x",)),
    ("A\xa0", ("A\xa0",), ("A\xa0",)),
    ("a\x0c=b", ((("=", "a\x0c"), ("b",)),), ((("=", "a\x0c"), ("b",)),)),
    ("\x0c=A", ("=A",), ("=A",)),
    ("{pass (=A)}", ("{pass (=A)}",), ("pass", "=A")),
    ("{=A}", ("{=A}",), ("=A",)),
    ("{a}", ("{a}",), ((("{a}", "x"), ("y", "z")),)),
    ("{pass}", ("{pass}",), ((("{pass}", "x"), ("y", "z")),)),
    ("{pass (=A)} x : y", ((("{pass (=A)}", "x"), ("y",)),), ((("pass", "=A", "x"), ("y",)),)),
    ("A B", ("A", "B"), ("x", "y", "z")),
    ("first 2 : B", ((("first", "2"), ("B",)),), ((("first", "2"), ("y", "z")),)),
    ("{B B}", ("{B B}",), ("y", "z", "y", "z")),
    ("pass:A", ((("pass",), ("A",)),), ((("pass",), ("x",)),)),
    ("((A)) : {B}", ((("A",), ("{B}",)),), ((("x",), ("y", "z")),)),
    ("(A=B)", ((("=", "A"), ("B",)),), ((("=", "x"), ("y", "z")),)),
    ("", (), ()),
    (":", (((), ()),), (((), ()),)),
    ("=", ("=",), ((("=", "x"), ("y", "z")),)),
    ("a:(b", ((("a",), ("b",)),), ((("a",), ("b",)),)),
    ("x = \x0c= y", ((("=", "x"), ("=", "y")),), ((("=", "x"), ("=", "y")),)),
]


@pytest.mark.parametrize("src, parsed, expanded", CORPUS)
def test_corpus(src, parsed, expanded):
    x, y, z = word("x"), word("y"), word("z")
    assert shape(parse(src)) == parsed
    assert shape(applied(src, (x,), (y, z))) == expanded


def test_deep_input_needs_no_recursion():
    n = 10 ** 5
    assert parse("(" * n + "w" + ")" * n) == (word("w"),)
    # walked in a loop: comparing deep codas would recurse
    d = parse("pass:" * n + "a")
    for _ in range(n):
        assert len(d) == 1 and d[0].left == (word("pass"),)
        d = d[0].right
    assert d == (word("a"),)
    deep = "{" * 10 ** 4 + "B" + "}" * 10 ** 4
    assert expand(deep, (word("x"),), (word("y"),)) == (word("y"),)
    # a hole at every level of a template 10^5 deep
    x, y = word("x"), word("y")
    d = expand("(A:" * n + "B" + ")" * n, (x,), (y,))
    for _ in range(n):
        assert len(d) == 1 and d[0].left == (x,)
        d = d[0].right
    assert d == (y,)
    n = 10 ** 4
    assert render(parse("pass:" * n + "a")) == "(pass:" * n + "a" + ")" * n


# every character; lone surrogates (category Cs) are also drawn on their
# own, as they are 2048 of 1.1M code points
any_char = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
# word and source text, with the characters the parser treats specially
# drawn often
any_text = st.text(any_char | st.sampled_from("=(){}: \t\r\n\x0c\xa0AB"), max_size=12)


def expand_by_scan(src, a, b, engine):
    """A language atom's application, scanning the source each time: the
    oracle for the compiled splice plan."""
    d, template = _scan(src, a, b)
    if template:
        return d
    d = _scan(src, None, None)[0] if "{" in src else d
    if d and engine.dispatch(Coda(d, b)) is not None:
        return (Coda(d + a, b),)
    return d


# components: (:), which a source spells as `:`, words and a coda, and ()
components = st.lists(st.sampled_from(
    [COLON, word("p"), word("A"), word("pass"), Coda((word("q"),), (COLON,))]), max_size=3).map(tuple)


@seed(20261018)
@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(list("AB=(){}: ") + ["  ", "a", "pass", "AB", "=A", "A=B"]),
                max_size=16).map("".join), components, components)
def test_splice_plan_matches_the_scan(src, a, b):
    engine = Engine(prelude())
    assert applied(src, a, b) == expand_by_scan(src, a, b, engine)
    # a second application reuses the plan, with other components
    assert applied(src, b, a) == expand_by_scan(src, b, a, engine)


@settings(deadline=None)
@given(st.text(any_char, max_size=60))
def test_parser_is_total(src):
    d = parse(src)
    assert parse(render(d)) == d


@given(st.recursive(
    st.just(()),
    lambda inner: st.lists(st.builds(Coda, inner, inner) | st.builds(word, any_text)
                           | st.builds(lang_atom, any_text), max_size=3).map(tuple),
    max_leaves=10,
))
def test_structural_render_roundtrip(d):
    assert parse(render(d)) == d


def carried_text_matches_the_decoder(t):
    """The atoms `word(t)` and `lang_atom(t)` carry their text; equal codas
    built otherwise decode theirs.  Both read as `decode_bytes` does and
    render alike."""
    text = decode_bytes(bits(t))
    assert text in (t, None)
    put = evaluate(parse("put ((:):(:)) : " + render(bits(t))), prelude()).result
    assert put == (word(t),) and not hasattr(put[0], "_text")
    for marker in (WORD_MARKER, WORD_LANG):
        lang = marker is WORD_LANG
        built = lang_atom(t) if lang else word(t)
        plain = Coda((marker,), bits(t))
        assert hasattr(built, "_text") and not hasattr(plain, "_text") and built == plain
        for c in (built, plain) if lang else (built, plain, put[0]):
            assert word_text(c) == (None if lang else text)
            assert lang_source(c) == (text if lang else None)
            assert atom_text(c) == (text, lang)
            assert (word_text(c) is not None) == (not lang and text is not None)
            assert is_lang_atom(c) == lang
            assert render((c,)) == render((built,))
            assert parse(render((c,))) == (c,)


@settings(deadline=None)
@given(any_text)
def test_carried_text_matches_the_decoder(t):
    carried_text_matches_the_decoder(t)


@pytest.mark.parametrize("t", ["", "=x", " x", "a b", "{", "é", "\udcff", "ab"])
def test_carried_text_matches_the_decoder_on(t):
    carried_text_matches_the_decoder(t)


@pytest.mark.parametrize("d", [
    (word("{}"),),
    (lang_atom("\udcff"),),
    (word("x y"),),
    (word("a\tb"), word("c\rd"), word("e\nf")),
    (word("a:b"),),
    (word("pass"), word("=A")),
    (word("=a"), word("b=c"), Coda((word("d=e"),), ())),
    (lang_atom("a}"),),
    (lang_atom("}{"),),
    (word(""), word("\xa0a"), word("a\xa0")),
])
def test_render_reads_back(d):
    assert parse(render(d)) == d
