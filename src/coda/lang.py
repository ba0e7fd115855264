"""The internal `{}` language: total parser and source renderer.

Every byte sequence is a valid expression, so parsing never fails.  The
grammar: an expression is whitespace-separated terms; the colon is the
lowest-precedence operator and binds from the right, so `a:b:c` is
`(a:(b:c))` and `a:b c` is `(a:(b c))`.  A term is a word, a parenthesized
group (a coda when the group contains a top-level colon), or `{...}` which
builds a language atom carrying its source verbatim.  `(x=y)` is sugar for
`(= x : y)`.  Unbalanced `(` or `{` are healed by implicit closure at end
of input; unmatched closers are ordinary word characters.
"""

from __future__ import annotations

from typing import Optional

from .encoding import is_lang_atom, lang_atom, lang_source, word, word_text
from .terms import Coda, Data


def _find_top(s: str, target: str) -> Optional[int]:
    """Leftmost occurrence of `target` outside parens and braces."""
    paren = brace = 0
    for i, ch in enumerate(s):
        if ch == "{":
            brace += 1
        elif ch == "}":
            if brace:
                brace -= 1
        elif brace:
            continue
        elif ch == "(":
            paren += 1
        elif ch == ")":
            if paren:
                paren -= 1
        elif ch == target and paren == 0:
            return i
    return None


def _match(s: str, i: int, open_ch: str, close_ch: str, opaque_braces: bool) -> int:
    """Index just past the matching closer for the opener at `i`;
    unbalanced input heals to an implicit closer past end of string."""
    depth = 0
    brace = 0
    j = i
    while j < len(s):
        ch = s[j]
        if opaque_braces and ch == "{" and open_ch != "{":
            brace += 1
        elif opaque_braces and ch == "}" and open_ch != "{":
            if brace:
                brace -= 1
        elif not brace and ch == open_ch:
            depth += 1
        elif not brace and ch == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return len(s) + 1


_DELIMS = " \t\r\n({"


def parse(src: str) -> Data:
    """Parse source text into data.  Total: accepts any string."""
    return _template(src, None, None)


def _terms(s: str, a: Optional[Data], b: Optional[Data]) -> Data:
    """Whitespace-split terms; `a`/`b` non-None enables A/B substitution
    (language-atom evaluation mode)."""
    out: list = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            j = _match(s, i, "(", ")", opaque_braces=True)
            inner = s[i + 1 : j - 1] if j > i + 1 else ""
            out.extend(_template(inner, a, b))
            i = j
        elif ch == "{":
            j = _match(s, i, "{", "}", opaque_braces=False)
            inner = s[i + 1 : j - 1] if j > i + 1 else ""
            if a is None:
                out.append(lang_atom(inner))
            else:
                out.extend(_template(inner, a, b))  # nested braces recurse
            i = j
        else:
            j = i
            while j < n and s[j] not in _DELIMS:
                j += 1
            token = s[i:j]
            if a is not None and token == "A":
                out.extend(a)
            elif a is not None and token == "B":
                out.extend(b)
            else:
                out.append(word(token))
            i = j
    return tuple(out)


def _template(s: str, a: Optional[Data], b: Optional[Data]) -> Data:
    """One recursive descent for source and templates: `a`/`b` None parses
    plain source, non-None substitutes them for `A`/`B`."""
    i = _find_top(s, ":")
    if i is not None:
        return (Coda(_template(s[:i], a, b), _template(s[i + 1 :], a, b)),)
    j = _find_top(s, "=")
    if j is not None and s[:j].strip():
        return (
            Coda((word("="),) + _template(s[:j], a, b), _template(s[j + 1 :], a, b)),
        )
    return _terms(s, a, b)


def _mentions_ab(s: str) -> bool:
    """Does the template reference either component token?"""
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace() or ch in ":=":
            i += 1
        elif ch == "(":
            j = _match(s, i, "(", ")", opaque_braces=True)
            if _mentions_ab(s[i + 1 : j - 1]):
                return True
            i = j
        elif ch == "{":
            j = _match(s, i, "{", "}", opaque_braces=False)
            if _mentions_ab(s[i + 1 : j - 1]):
                return True
            i = j
        else:
            j = i
            while j < n and s[j] not in _DELIMS and s[j] not in ":=":
                j += 1
            if s[i:j] in ("A", "B"):
                return True
            i = j
    return False


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
    if _find_top(source, ":") is None and not _mentions_ab(source):
        d = _template(source, None, None)
        if engine is not None and d and engine.dispatch(Coda(d, b)) is not None:
            return (Coda(d + a, b),)
        return d
    return _template(source, a, b)


# ---------------------------------------------------------------------------
# Rendering back to source

def render(d: Data) -> str:
    """Human-facing source form: words print as text, language atoms as
    `{src}`, everything else structurally."""
    if not d:
        return "()"
    return _render_seq(d)


def _render_seq(d: Data) -> str:
    return " ".join(_render_coda(c) for c in d)


def _render_coda(c: Coda) -> str:
    text = word_text(c)
    if text:
        return text
    if is_lang_atom(c):
        return "{" + (lang_source(c) or "") + "}"
    return "(" + _render_seq(c.left) + ":" + _render_seq(c.right) + ")"
