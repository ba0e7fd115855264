"""The installed base context: marker atoms plus the combinatoric builtins.

Each builtin implements its rewrite branches natively; the branch function
receives the engine (for guard evaluation against the shared budget), the
left-data tail A and the right data B of the coda (name A : B).  Returning
None means no branch is in domain and the coda stays put.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional

from .encoding import (
    BIT_MARKER,
    BYTE_MARKER,
    WORD_MARKER,
    is_word_atom,
    lang_atom,
    word,
    word_text,
)
from .engine import (
    Budget,
    Context,
    Definition,
    Engine,
    TriBool,
    add_definition,
)
from .terms import COLON, Coda, Data, cmp_coda, data_key


class UnknownBuiltin(Exception):
    pass


WORD_EQ = word("=")


def _word_count(ev: Data, default: int = 1) -> int:
    """Numeric argument convention: a single decimal word atom is a count."""
    if len(ev) == 1:
        text = word_text(ev[0])
        if text and text.isdigit():
            return int(text)
    return default


def _domain_of(eng: Engine, c: Coda) -> Data:
    """Trigger atom of a defined coda; () for structural atoms."""
    if c.left and eng.context.lookup(c.left[0]) is not None:
        return (c.left[0],)
    return ()


def _sort_cmp(x: Coda, y: Coda) -> int:
    xt, yt = word_text(x), word_text(y)
    if xt is not None and yt is not None:
        return -1 if xt < yt else (1 if xt > yt else 0)
    if xt is not None:
        return 1  # words sort after non-words
    if yt is not None:
        return -1
    return cmp_coda(x, y)


_sort_key = cmp_to_key(_sort_cmp)


# ---------------------------------------------------------------------------
# Branch functions

def _b_null(eng, a, b):
    return ()


def _b_left(eng, a, b):
    return a


def _b_right(eng, a, b):
    return b


def _b_put(eng, a, b):
    # normalize before wrapping: marker codas are fixed points, so whatever
    # ends up inside would otherwise stay frozen unevaluated
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    return (Coda(ev_a, ev_b),)


def _b_get(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    out: list = []
    for c in ev_b:
        if c.left == ev_a:
            out.extend(c.right)
    return tuple(out)


def _b_get0(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    if ev_b and ev_b[0].left == ev_a:
        return ev_b[0].right
    return ()


def _b_atoms(eng, a, b):
    ev = eng.eval_data(b)
    if eng.exhausted or not all(eng.is_atom(c) for c in ev):
        return None
    return (COLON,) * len(ev)


def _b_bool(eng, a, b):
    e = eng.emptiness(b)
    if e is TriBool.ALWAYS:
        return ()
    if e is TriBool.NEVER:
        return (COLON,)
    return None


def _b_not(eng, a, b):
    e = eng.emptiness(b)
    if e is TriBool.ALWAYS:
        return (COLON,)
    if e is TriBool.NEVER:
        return ()
    return None


def _b_eq(eng, a, b):
    if eng.tri_equal(a, b) is TriBool.ALWAYS:
        return ()
    return None  # a mismatch residue is its own fixed point


def _b_def(eng, a, b):
    if not a:
        return None
    name = word_text(a[0])
    if name is None:
        ev = eng.eval_data((a[0],))
        if len(ev) == 1:
            name = word_text(ev[0])
        if name is None:
            return None
    if eng.context.has_name(name):
        return None  # rebinding: the coda is simply out of domain
    eng.context = add_definition(eng.context, name, b)
    return ()


def _b_if(eng, a, b):
    e = eng.emptiness(a)
    if e is TriBool.ALWAYS:
        return b
    if e is TriBool.NEVER:
        return ()
    return None


def _b_nif(eng, a, b):
    e = eng.emptiness(a)
    if e is TriBool.ALWAYS:
        return ()
    if e is TriBool.NEVER:
        return b
    return None


def _b_while(eng, a, b):
    cur = eng.eval_data(b)
    while True:
        if eng.spent():
            return None
        eng.charge(())
        nxt = eng.eval_data((Coda(a, cur),))
        if eng.exhausted:
            return None
        if nxt == cur:
            return cur
        cur = nxt


def _b_prod(eng, a, b):
    ev_a = eng.eval_data(a)
    if eng.exhausted:
        return None
    cur = b
    for c in reversed(ev_a):
        cur = (Coda(c.right, cur),)
    return cur


def _b_sum(eng, a, b):
    if not a:
        return ()
    ev_a = eng.eval_data(a)
    if eng.exhausted:
        return None
    out: list = []
    for c in ev_a:
        out.append(Coda(c.right, b))
    return tuple(out)


def _b_domain(eng, a, b):
    ev = eng.eval_data(b)
    if eng.exhausted:
        return None
    out: list = []
    for c in ev:
        out.extend(_domain_of(eng, c))
    return tuple(out)


def _b_ap(eng, a, b):
    ev = eng.eval_data(b)
    if eng.exhausted:
        return None
    return tuple(Coda(a, (c,)) for c in ev)


def _b_aq(eng, a, b):
    ev = eng.eval_data(a)
    if eng.exhausted:
        return None
    if len(ev) < 2 or not b:
        return ()
    return tuple(Coda((ev[0], x), b) for x in ev[1:])


def _b_ar(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted or not ev_a:
        return None
    op, rest = ev_a[0], ev_a[1:]
    return tuple(Coda((op, x), (y,)) for x in rest for y in ev_b)


def _b_first(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    return ev_b[: _word_count(ev_a)]


def _b_last(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    n = _word_count(ev_a)
    return ev_b[-n:] if n else ()


def _b_has(eng, a, b):
    return _has_impl(eng, a, b, keep_matching=True)


def _b_hasnt(eng, a, b):
    return _has_impl(eng, a, b, keep_matching=False)


def _has_impl(eng, a, b, keep_matching):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    out: list = []
    for c in ev_b:
        if (_domain_of(eng, c) == ev_a) is keep_matching:
            out.append(c)
    return tuple(out)


def _b_is(eng, a, b):
    return _is_impl(eng, a, b, keep_equal=True)


def _b_isnt(eng, a, b):
    return _is_impl(eng, a, b, keep_equal=False)


def _is_impl(eng, a, b, keep_equal):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    out: list = []
    for c in ev_b:
        verdicts = [eng.tri_compare((x,), (c,)) for x in ev_a]
        if any(v is TriBool.ALWAYS for v in verdicts):
            if keep_equal:
                out.append(c)
        elif all(v is TriBool.NEVER for v in verdicts):
            if not keep_equal:
                out.append(c)
        else:
            return None  # an undecided comparison blocks the whole filter
    return tuple(out)


def _b_once(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    seen = list(ev_a)
    out: list = []
    for c in ev_b:
        if c not in seen:
            seen.append(c)
            out.append(c)
    return tuple(out)


def _b_rev(eng, a, b):
    ev = eng.eval_data(b)
    if eng.exhausted:
        return None
    return tuple(reversed(ev))


def _b_remove(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    if ev_a and ev_b[: len(ev_a)] == ev_a:
        return ev_b[len(ev_a) :]
    return ev_b


def _b_sort(eng, a, b):
    ev = eng.eval_data(b)
    if eng.exhausted:
        return None
    return tuple(sorted(ev, key=_sort_key))


def _b_min(eng, a, b):
    ev_a = eng.eval_data(a)
    ev_b = eng.eval_data(b)
    if eng.exhausted:
        return None
    if ev_a:
        return min(ev_a, ev_b, key=data_key)
    if not ev_b:
        return ()
    return (min(ev_b, key=_sort_key),)


def _b_map(eng, a, b):
    # Glossary expansion; `arg` is never defined in the source material, so
    # this reduces only as far as its aq unfolding
    guard = lang_atom("if ((arg:A):B):(right:B):B")
    return (Coda((word("aq"), guard) + a, b),)


_BRANCHES = {
    "pass": _b_right,
    "null": _b_null,
    "left": _b_left,
    "right": _b_right,
    "const": _b_left,
    "put": _b_put,
    "get": _b_get,
    "get0": _b_get0,
    "atoms": _b_atoms,
    "bool": _b_bool,
    "not": _b_not,
    "=": _b_eq,
    "def": _b_def,
    "if": _b_if,
    "nif": _b_nif,
    "while": _b_while,
    "prod": _b_prod,
    "sum": _b_sum,
    "domain": _b_domain,
    "ap": _b_ap,
    "aq": _b_aq,
    "ar": _b_ar,
    "map": _b_map,
    "first": _b_first,
    "last": _b_last,
    "has": _b_has,
    "hasnt": _b_hasnt,
    "is": _b_is,
    "isnt": _b_isnt,
    "once": _b_once,
    "rev": _b_rev,
    "remove": _b_remove,
    "sort": _b_sort,
    "min": _b_min,
}

# atom makers: their codas are fixed points
_FIXED_POINTS = {
    "bit-marker": BIT_MARKER,
    "byte-marker": BYTE_MARKER,
    "word-marker": WORD_MARKER,
    "{}": word("{}"),
    "q": word("q"),
    "n": word("n"),
    "b": word("b"),
}


def builtin(name: str) -> Definition:
    if name in _BRANCHES:
        return Definition(name=name, trigger=word(name), apply=_BRANCHES[name])
    if name in _FIXED_POINTS:
        return Definition(name=name, trigger=_FIXED_POINTS[name], fixed_point=True)
    raise UnknownBuiltin(name)


def install_prelude(empty: Optional[Context] = None) -> Context:
    defs = dict(empty.defs) if empty is not None else {}
    for name in _FIXED_POINTS:
        d = builtin(name)
        defs[d.trigger] = d
    for name in _BRANCHES:
        d = builtin(name)
        defs[d.trigger] = d
    return Context(defs)


_PRELUDE: Optional[Context] = None


def prelude() -> Context:
    """The shared immutable base context."""
    global _PRELUDE
    if _PRELUDE is None:
        _PRELUDE = install_prelude()
    return _PRELUDE
