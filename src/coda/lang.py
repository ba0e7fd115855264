"""The internal `{}` language: total parser and faithful source renderer.

Every string is a valid expression, so parsing never fails.  The grammar:
an expression is whitespace-separated terms; the colon is the
lowest-precedence operator and binds from the right, so `a:b:c` is
`(a:(b:c))` and `a:b c` is `(a:(b c))`.  A term is a word, a parenthesized
group (a coda when the group contains a top-level colon), or `{...}` which
builds a language atom carrying its source verbatim.  `(x=y)` is sugar for
`(= x : y)`.  Unbalanced `(` or `{` are healed by implicit closure at end
of input; unmatched closers are ordinary word characters.  Parsing and
template expansion are one left-to-right pass with a stack of open groups;
nothing here recurses, so nesting depth is bounded by memory alone.
`render` is the package's one printer, and `parse(render(d)) == d` for
every data `d`: an atom whose text would read back as something else
prints structurally.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .encoding import lang_atom, lang_source, word, word_text
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


def eval_lang_atom(source: str, a: Data, b: Data, engine=None) -> Data:
    """Apply a language atom: split at the top-level colon, then whitespace;
    `A` and `B` splice in the components, words stand for themselves.

    A source with neither a top-level colon nor an `A`/`B` reference is a
    borderline case.  When its head word is bound in the engine's context it
    names a transformation and keeps the original components, so that
    ({pass} A : B) rewrites to (pass A : B).  Otherwise the expansion is the
    parsed source itself: ({a} : X) is the constant `a`, which is what makes
    (ap {a}) idempotent.
    """
    a, b = tuple(a), tuple(b)
    d, template = _scan(source, a, b)
    if template:
        return d
    # nothing was spliced in, so only raw braces can parse differently
    d = _scan(source, None, None)[0] if "{" in source else d
    if engine is not None and d and engine.dispatch(Coda(d, b)) is not None:
        return (Coda(d + a, b),)
    return d


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
    if not d:
        return "()"
    out: List[str] = []
    # sequences to finish: codas, next index, text after, and whether their
    # first item printed as a word starting with `=`, so that every later
    # `=` in the sequence is a word character
    todo = [(d, 0, "", False)]
    while todo:
        seq, i, after, eq = todo.pop()
        while i < len(seq):
            c = seq[i]
            text = word_text(c)
            if text is not None:
                # `_scan` drops a word's leading whitespace, ends it at a
                # bracket, colon or whitespace run, and splits it at `=`
                eq_ok = eq if i else text[:1] == "="
                if (not text or text != text.lstrip() or _BREAK.search(text)
                        or "=" in text and not eq_ok):
                    text = None
            else:
                text = lang_source(c)
                text = "{" + text + "}" if text is not None and _balanced(text) else None
            if not i:
                eq = text is not None and text[0] == "="
            out.append(" " if i else "")
            i += 1
            if text is not None:
                out.append(text)
            else:
                out.append("(")
                todo += [(seq, i, after, eq), (c.right, 0, ")", False)]
                seq, i, after, eq = c.left, 0, ":", False
        out.append(after)
    return "".join(out)
