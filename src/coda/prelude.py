"""The base context: one table, built at import, of the definitions of the
four atom makers and the combinatoric builtins, which `builtin(name)` reads.

Each builtin implements its rewrite branches natively; the branch function
receives the engine, the left-data tail A and the right data B of the coda
(name A : B).  Returning None means no branch is in domain and the coda
stays put.  A builtin that branches on the normal form of A, B or both says
so once, in `_BRANCHES`; `Engine._rewrite` normalises those operands, under
the shared budget, before the branch sees them.  So a branch is passed the
engine for its decisions on normal forms, and evaluates with it only in
`while`, which applies A once per iteration, and `def`, which normalises a
computed name.
"""

from __future__ import annotations

import functools

from .encoding import (
    BIT_MARKER,
    BYTE_MARKER,
    WORD_MARKER,
    kept_word,
    word_text,
)
from .engine import (
    ALWAYS,
    NEVER,
    Context,
    Definition,
    Engine,
    add_definition,
)
from .terms import COLON, Coda, Data, coda_key, data_key


class UnknownBuiltin(Exception):
    pass


def _word_count(ev: Data) -> int:
    """A single decimal word atom is a count; any other argument counts 1.
    A count of more than 18 digits exceeds every sequence length, so it
    saturates there."""
    if len(ev) == 1:
        text = word_text(ev[0])
        if text and text.isdecimal():
            if len(text) > 18:  # strip leading zeros, of any script
                text = "".join(map(str, map(int, text))).lstrip("0") or "0"
            return int(text) if len(text) <= 18 else 10 ** 18
    return 1


def _domain_of(eng: Engine, c: Coda) -> Data:
    """Trigger atom of a defined coda; () for structural atoms."""
    if c.left and c.left[0] in eng.context.defs:
        return (c.left[0],)
    return ()


def _sort_key(c: Coda):
    text = word_text(c)
    return (0, coda_key(c)) if text is None else (1, text)


def _word_order(d: Data) -> Data:
    """`d` sorted: non-words in canonical order, then words by their text,
    in one stable sort.  A non-word's key is its cached flat `coda_key`, so
    the sort compares in C and does not recurse, however deep the codas."""
    return tuple(sorted(d, key=_sort_key))


# ---------------------------------------------------------------------------
# Branch functions

def _b_null(eng, a, b):
    return ()


def _b_left(eng, a, b):
    return a


def _b_right(eng, a, b):
    return b


def _b_put(eng, a, b):
    # normalized before wrapping: a coda whose head is bound without a branch
    # is a fixed point, so whatever ends up inside would stay unevaluated
    return (Coda(a, b),)


def _b_get(eng, a, b):
    out: list = []
    for c in b:
        if c.left == a:
            out.extend(c.right)
    return tuple(out)


def _b_get0(eng, a, b):
    if b and b[0].left == a:
        return b[0].right
    return ()


def _b_atoms(eng, a, b):
    if not all(eng.is_atom(c) for c in b):
        return None
    return (COLON,) * len(b)


def _b_eq(eng, a, b):
    if eng.tri_compare(a, b) is ALWAYS:
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


def _b_while(eng, a, b):
    cur = b
    while not eng.spent():
        eng.charge(())
        nxt = eng.eval_data((Coda(a, cur),))
        if nxt == cur:
            return cur
        cur = nxt
    return None


def _b_prod(eng, a, b):
    cur = b
    for c in reversed(a):
        cur = (Coda(c.right, cur),)
    return cur


def _b_sum(eng, a, b):
    return tuple(Coda(c.right, b) for c in a)


def _b_domain(eng, a, b):
    out: list = []
    for c in b:
        out.extend(_domain_of(eng, c))
    return tuple(out)


def _b_ap(eng, a, b):
    return tuple(Coda(a, (c,)) for c in b)


def _b_aq(eng, a, b):
    if len(a) < 2 or not b:
        return ()
    return tuple(Coda((a[0], x), b) for x in a[1:])


def _b_ar(eng, a, b):
    if not a:
        return None
    op, rest = a[0], a[1:]
    return tuple(Coda((op, x), (y,)) for x in rest for y in b)


def _b_first(eng, a, b):
    return b[: _word_count(a)]


def _b_last(eng, a, b):
    n = _word_count(a)
    return b[-n:] if n else ()


def _has(keep_matching: bool):
    """has/hasnt: keep the codas of B whose trigger is (or is not) A."""

    def branch(eng, a, b):
        return tuple(c for c in b if (_domain_of(eng, c) == a) is keep_matching)

    return branch


def _switch(operand: str, empty: str, atomic: str):
    """bool/not/if/nif: branch on whether the normal form of `operand` ("A"
    or "B") is empty or atomic; each outcome is "()", "(:)" or "B"."""
    outcomes = {"()": lambda b: (), "(:)": lambda b: (COLON,), "B": lambda b: b}
    on_empty, on_atomic = outcomes[empty], outcomes[atomic]

    def branch(eng, a, b):
        e = eng.emptiness(a if operand == "A" else b)
        if e is ALWAYS:
            return on_empty(b)
        if e is NEVER:
            return on_atomic(b)
        return None

    return branch


def _is(keep_equal: bool):
    """is/isnt: keep the codas of B equal (or unequal) to some atom of A.

    One rule decides each coda c of B, the one `tri_compare((x,), (c,))`
    applies to one coda each: ALWAYS when x == c, NEVER when they differ
    and both are atoms, else UNDECIDED.  So c matches when it is a member
    of A, and does not when A is empty or when c and every member of A are
    atoms; otherwise the whole filter blocks.  A's atomhood is read once,
    in its order and up to its first non-atom, when the first non-member
    needs it, and then each non-member's.  An `=` residue's check may
    charge steps, once per coda asked, so the work is linear in A and B."""

    def branch(eng, a, b):
        members = set(a)
        atomic_a = None
        out: list = []
        for c in b:
            equal = c in members
            if not equal and a:
                if atomic_a is None:
                    atomic_a = all(eng.is_atom(x) for x in a)
                if not (atomic_a and eng.is_atom(c)):
                    return None  # an undecided coda blocks the whole filter
            if equal is keep_equal:
                out.append(c)
        return tuple(out)

    return branch


def _b_once(eng, a, b):
    seen = set(a)
    out: list = []
    for c in b:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(out)


def _b_rev(eng, a, b):
    return tuple(reversed(b))


def _b_remove(eng, a, b):
    if a and b[: len(a)] == a:
        return b[len(a) :]
    return b


def _b_sort(eng, a, b):
    return _word_order(b)


def _b_min(eng, a, b):
    if a:
        return min(a, b, key=data_key)
    return (min(b, key=_sort_key),) if b else ()


# each builtin's branch function, and the operands ("A", "B" or "AB") it
# needs normalised
_BRANCHES = {
    "pass": (_b_right, ""),
    "null": (_b_null, ""),
    "left": (_b_left, ""),
    "right": (_b_right, ""),
    "const": (_b_left, ""),
    "put": (_b_put, "AB"),
    "get": (_b_get, "AB"),
    "get0": (_b_get0, "AB"),
    "atoms": (_b_atoms, "B"),
    "bool": (_switch("B", "()", "(:)"), "B"),
    "not": (_switch("B", "(:)", "()"), "B"),
    "=": (_b_eq, "AB"),
    "def": (_b_def, ""),
    "if": (_switch("A", "B", "()"), "A"),
    "nif": (_switch("A", "()", "B"), "A"),
    "while": (_b_while, "B"),
    "prod": (_b_prod, "A"),
    "sum": (_b_sum, "A"),
    "domain": (_b_domain, "B"),
    "ap": (_b_ap, "B"),
    "aq": (_b_aq, "A"),
    "ar": (_b_ar, "AB"),
    "first": (_b_first, "AB"),
    "last": (_b_last, "AB"),
    "has": (_has(True), "AB"),
    "hasnt": (_has(False), "AB"),
    "is": (_is(True), "AB"),
    "isnt": (_is(False), "AB"),
    "once": (_b_once, "AB"),
    "rev": (_b_rev, "B"),
    "remove": (_b_remove, "AB"),
    "sort": (_b_sort, "B"),
    "min": (_b_min, "AB"),
}

# atom makers: their codas are fixed points
_FIXED_POINTS = {
    "bit-marker": BIT_MARKER,
    "byte-marker": BYTE_MARKER,
    "word-marker": WORD_MARKER,
    "{}": kept_word("{}"),
}


# every builtin's definition, built once: the atom makers, then the rest
_DEFINITIONS = {
    **{name: Definition(name=name, trigger=t) for name, t in _FIXED_POINTS.items()},
    **{name: Definition(name=name, trigger=kept_word(name), apply=apply, strict=strict)
       for name, (apply, strict) in _BRANCHES.items()},
}


def builtin(name: str) -> Definition:
    try:
        return _DEFINITIONS[name]
    except KeyError:
        raise UnknownBuiltin(name) from None


@functools.cache
def prelude() -> Context:
    """The shared immutable base context, over the one table."""
    return Context({d.trigger: d for d in _DEFINITIONS.values()})
