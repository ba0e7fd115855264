"""The internal `{}` language: total parser and faithful source renderer.

Every string is a valid expression, so parsing never fails.  The grammar:
an expression is whitespace-separated terms; the colon is the
lowest-precedence operator and binds from the right, so `a:b:c` is
`(a:(b:c))` and `a:b c` is `(a:(b c))`.  A term is a word, a parenthesized
group (a coda when the group contains a top-level colon), or `{...}` which
builds a language atom carrying its source verbatim.  `(x=y)` is sugar for
`(= x : y)`.  Unbalanced `(` or `{` are healed by implicit closure at end
of input; unmatched closers are ordinary word characters.  Parsing and
template expansion are one left-to-right pass with a stack of open groups.
A template is scanned once per source, into a splice plan that lists the
codas holding an `A` or `B`; each application fills those in and reuses
every other part of the expansion as it is.  Nothing here recurses, so
nesting depth is bounded by memory alone.
`render` is the package's one printer, and `parse(render(d)) == d` for
every data `d`: an atom whose text would read back as something else
prints structurally.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby
from typing import Iterator, List, Optional, Tuple

from .encoding import _TEXT_CAP, atom_text, lang_atom, word
from .terms import Coda, Data

# a token: a bracket, colon or `=`, a whitespace run, or a run of the rest
_TOKEN = re.compile(r"[(){}:=]|[ \t\r\n]+|[^(){}:= \t\r\n]+")


def parse(src: str) -> Data:
    """Parse source text into data.  Total: accepts any string."""
    return _scan(src, None, None)[0]


def _fold(segments: List[Data], eqs: List[Data], terms: list) -> Data:
    """A group's data: the last segment's `=` chain over its terms, under
    the earlier colon segments, both nested to the right."""
    d = tuple(terms)
    for left in reversed(eqs):
        d = (Coda((word("="),) + left, d),)
    for seg in reversed(segments):
        d = (Coda(seg, d),)
    return d


def _emit(out: list, text: str, a: Optional[Data], b: Optional[Data]) -> bool:
    """Append the word `text`, less leading whitespace, or in a template splice
    `a`/`b` for `A`/`B`.  True when it, or a piece of it split at `=`, is one."""
    text = text.lstrip()
    if a is not None and text in ("A", "B"):
        out.extend(a if text == "A" else b)
        return True
    if text:
        out.append(word(text))
    return a is not None and "=" in text and any(
        p.lstrip() in ("A", "B") for p in text.split("="))


def _scan(src: str, a: Optional[Data], b: Optional[Data]) -> Tuple[Data, bool]:
    """The one pass.  With `a` None it parses plain source, where `{...}` is
    captured raw as a language atom; otherwise it expands a template, where
    braces group like parens and `A`/`B` splice in `a`/`b`.  Also returns
    whether the source has a top-level colon or mentions `A` or `B`."""
    # the open group: its opener, the data of its colon segments so far, the
    # left sides of the current segment's `=` chain, the current terms, and
    # whether an `=` after blank text made the rest of the segment words
    opener, segments, eqs, out, eq_words = "", [], [], [], False
    stack: list = []   # the enclosing groups, saved as the tuple above
    blank = True       # only whitespace since the segment began or `=` split it
    braces = raw = 0   # open template brace groups; depth of a raw atom read
    text = ""          # the word, or the raw atom source, being read
    mentions = False
    for tok in _TOKEN.findall(src):
        if raw:
            raw += (tok == "{") - (tok == "}")
            if not raw:
                out.append(lang_atom(text))
            text = text + tok if raw else ""
            continue
        ch = tok[0]
        if (ch not in "(){}:= \t\r\n" or (ch == "=" and (blank or eq_words))
                or (ch == ")" and opener != "(") or (ch == "}" and not braces)):
            text += tok  # a word character
            eq_words = eq_words or ch == "="
            blank = blank and tok.isspace()
            continue
        if text:
            mentions = _emit(out, text, a, b) or mentions
            text = ""
        if ch == ":":
            segments.append(_fold([], eqs, out))
            eqs, out, blank, eq_words = [], [], True, False
        elif ch == "=":
            eqs.append(tuple(out))
            out, blank = [], True
        elif ch == "{" and a is None:
            raw, blank = 1, False
        elif ch in "({":
            stack.append((opener, segments, eqs, out, eq_words))
            opener, segments, eqs, out, blank, eq_words = ch, [], [], [], True, False
            braces += ch == "{"
        elif ch in ")}":
            # `)` closes the paren group on top, `}` up to the nearest brace
            while True:
                d, closed = _fold(segments, eqs, out), opener
                opener, segments, eqs, out, eq_words = stack.pop()
                out.extend(d)
                braces -= closed == "{"
                if ch == ")" or closed == "{":
                    break
            blank = False
    if raw:
        out.append(lang_atom(text))
    elif text:
        mentions = _emit(out, text, a, b) or mentions
    while stack:  # heal the groups still open
        d = _fold(segments, eqs, out)
        opener, segments, eqs, out, eq_words = stack.pop()
        out.extend(d)
    return _fold(segments, eqs, out), bool(segments) or mentions


# stand-ins for `A` and `B` while a template compiles, told apart from the
# codas of the source by identity alone, since a source can spell any data
_A, _B = Coda(), Coda()


@lru_cache(maxsize=_TEXT_CAP)
def _compile(source: str) -> Tuple[bool, tuple]:
    """A language atom's source, scanned once: whether it is a template (see
    `_scan`), and its splice plan `(slots, nodes, top)`.

    `slots` is the fill's table of data: slots 0 and 1 take A and B, each
    hole-free run of codas is kept in a slot as it is, and each coda with a
    hole gets a slot of its own.  `nodes` lists those codas, each after the
    ones inside it, as `(slot, left, right)`, each side a tuple of slots to
    concatenate; `top` is the expansion's tuple of slots."""
    d, template = _scan(source, (_A,), (_B,))
    if not template and "{" in source:
        # nothing was spliced in, so only raw braces can parse differently
        d = _scan(source, None, None)[0]
    # every coda met, by identity: its slot if it holds a hole, else None
    slot_of: dict = {id(_A): 0, id(_B): 1}
    slots: list = [None, None]
    nodes = []

    def parts(seq: Data) -> Tuple[int, ...]:
        """`seq` as slots: its hole codas' own, and one per run between."""
        out: list = []
        for clean, run in groupby(seq, key=lambda x: slot_of[id(x)] is None):
            if clean:
                out.append(len(slots))
                slots.append(tuple(run))
            else:
                out += [slot_of[id(x)] for x in run]
        return tuple(out)

    todo = list(d)  # codas to classify, each after the codas inside it
    while todo:
        c = todo[-1]
        if id(c) in slot_of:
            todo.pop()
            continue
        inner = c.left + c.right
        unseen = [x for x in inner if id(x) not in slot_of]
        if unseen:
            todo += unseen
            continue
        todo.pop()
        if any(slot_of[id(x)] is not None for x in inner):
            slot_of[id(c)] = len(slots)
            slots.append(None)
            nodes.append((slot_of[id(c)], parts(c.left), parts(c.right)))
        else:
            slot_of[id(c)] = None
    top = parts(d)
    return template, (tuple(slots), tuple(nodes), top)


def _fill(plan: tuple, a: Data, b: Data) -> Data:
    """A splice plan's expansion for components `a` and `b`: one pass over
    the codas that hold a hole, children first."""
    slots, nodes, top = plan
    built = list(slots)
    built[0], built[1] = a, b
    for k, left, right in nodes:
        built[k] = (Coda(_join(built, left), _join(built, right)),)
    return _join(built, top)


def _join(built: list, parts: Tuple[int, ...]) -> Data:
    if len(parts) == 1:
        return built[parts[0]]
    out: list = []
    for k in parts:
        out += built[k]
    return tuple(out)


def eval_lang_atom(source: str, a: Data, b: Data, engine=None) -> Data:
    """Apply a language atom: split at the top-level colon, then whitespace;
    `A` and `B` splice in the components, words stand for themselves.  The
    source is compiled once (`_compile`); each application fills in the
    holes and keeps the rest of the expansion as it is.

    A source with neither a top-level colon nor an `A`/`B` reference is a
    borderline case.  When its head word is bound in the engine's context it
    names a transformation and keeps the original components, so that
    ({pass} A : B) rewrites to (pass A : B).  Otherwise the expansion is the
    parsed source itself: ({a} : X) is the constant `a`, which is what makes
    (ap {a}) idempotent.
    """
    a, b = tuple(a), tuple(b)
    template, plan = _compile(source)
    d = _fill(plan, a, b)
    if template or engine is None or not d or engine.dispatch(Coda(d, b)) is None:
        return d
    return (Coda(d + a, b),)


# ---------------------------------------------------------------------------
# Rendering back to source

# a character that ends a word wherever it stands
_BREAK = re.compile(r"[(){}: \t\r\n]")


def _balanced(src: str) -> bool:
    """Whether `{src}` reads back as one language atom holding `src`."""
    depth = 0
    for ch in re.findall("[{}]", src):
        depth += 1 if ch == "{" else -1
        if depth < 0:
            return False
    return not depth


def render(d: Data) -> str:
    """Source text that parses back to `d`.  A word prints as its text and a
    language atom as `{src}` where that text reads back as the atom in its
    place; every other coda prints structurally, as `(left:right)`."""
    return "".join(_pieces(d)) if d else "()"


def _pieces(d: Data) -> Iterator[str]:
    """`render(d)` of a non-empty `d`, left to right, for callers that stop early."""
    # sequences to finish: codas, next index, text after, and whether their
    # first item printed as a word starting with `=`, so that every later
    # `=` in the sequence is a word character
    todo = [(d, 0, "", False)]
    while todo:
        seq, i, after, eq = todo.pop()
        while i < len(seq):
            c = seq[i]
            text, lang = atom_text(c)
            if text is not None and lang:
                text = "{" + text + "}" if _balanced(text) else None
            elif text is not None:
                # `_scan` drops a word's leading whitespace, ends it at a
                # bracket, colon or whitespace run, and splits it at `=`
                eq_ok = eq if i else text[:1] == "="
                if (not text or text != text.lstrip() or _BREAK.search(text)
                        or "=" in text and not eq_ok):
                    text = None
            if i:
                yield " "
            else:
                eq = text is not None and text[0] == "="
            i += 1
            if text is not None:
                yield text
            else:
                yield "("
                todo += [(seq, i, after, eq), (c.right, 0, ")", False)]
                seq, i, after, eq = c.left, 0, ":", False
        yield after
