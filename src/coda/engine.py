"""Contexts, definitions and budgeted evaluation.

A context is a partial function from codas to data.  Named definitions
trigger on a word atom heading the left data of a coda: in (name A : B) the
definition receives A (the rest of the left data) and B (the right data).
Marker definitions are fixed points: their codas are atoms.  A language
atom heading a coda is a definition too, built from the atom's own source
(decoded once per atom, then cached): it always applies, and `eval_coda`,
`step` and the decision helpers treat it as any other.

Evaluation strategy: repeated outermost rewriting, left to right.  A coda's
head is evaluated just far enough to resolve dispatch; branch guards may
demand further evaluation of the components through the shared engine (and
its budget).  This is one of the deterministic strategies the rewrite rules
admit; it is documented rather than canonical.

There are no run-time errors: evaluation either normalizes or stops at the
step/node budget, reporting normalized=False.  `charge()` meters each
rewrite step, and `spent()` is the one check of the meters against the
window's limits (only the memo's fit test reads them otherwise).  The
meters move only while `eval_coda` runs, and it checks the budget on entry;
`eval_data` checks it once more after a trailing run of atoms, and
`_rewrite` after a branch.  So evaluation is reported
unnormalized when the limit was reached before some later coda or atom,
not whenever it was reached: under Budget(max_steps=1), `a (null:x)` is
normalized with steps_used 1, while `(null:x) a` and `a (null:x) b` are not.

Normalising is not idempotent in cost: a builtin's result is walked again
in full, also where it holds operands already normalised, and a stuck `=`
or `ar` coda in it re-runs its guard and charges for it again.

Normal-form memo.  The engine remembers each coda it normalized together
with the steps and nodes that evaluation charged.  The
memo is exact: a hit charges the stored steps and nodes, and is taken only
when they fit strictly inside the window's remaining budget, so exhaustion
happens where recomputing would have put it; an entry is stored only when
its evaluation ended unexhausted.  It is read and filled only in the
engine's own context: a window in which a `def` fired neither reads nor
stores.  Results, `normalized` and `steps_used` are the same as without it.
Its scope is one engine, across the windows `begin()` opens for a law
verdict's cases or a carrier extraction's normal forms, each back in the
engine's own context; it is never kept across calls.  An entry is filed
under the coda's `_hash` and holds the coda, which a hit must be or equal
(else it is a miss), so no lookup calls `Coda.__hash__`.  The entries are
cleared when they reach MEMO_CAP.  Atoms bypass the memo: a coda that is
(:X) or headed by a fixed point (a bit, byte or word atom) evaluates to
itself at no charge, so `eval_data` returns it before any lookup or store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from .encoding import _TEXT_CAP, LANG_NAME, is_lang_atom, lang_source, word, word_text
from .lang import eval_lang_atom
from .terms import Coda, Data

BranchFn = Callable[["Engine", Data, Data], Optional[Data]]

# normal forms kept before the memo is cleared
MEMO_CAP = 4096


@dataclass(frozen=True)
class Budget:
    max_steps: int = 100_000
    max_nodes: int = 1_000_000


DEFAULT_BUDGET = Budget()


class TriBool(enum.Enum):
    ALWAYS = "always"
    NEVER = "never"
    UNDECIDED = "undecided"


# a memoised normal form, filed under the coda's hash: the coda, its normal
# form and the steps and nodes its evaluation charged
MemoEntry = Tuple[Coda, Data, int, int]


@dataclass
class EvalOutcome:
    """`context` is the one the evaluation ended in: the given context
    plus every word a `def` in it bound."""

    result: Data
    normalized: bool
    steps_used: int
    context: Context


@dataclass(frozen=True)
class Definition:
    """A context fragment triggered by an invariant atom.

    `apply` implements the branch list natively: it returns the rewritten
    data, or None when no branch is in domain (the coda stays put).
    `strict` names the operands ("A", "B" or "AB", A first) that
    `Engine._rewrite` normalises before `apply` sees them.  Fixed-point
    definitions are atom makers: their codas are atoms and are never
    rewritten or evaluated inside.
    """

    name: str
    trigger: Coda
    apply: Optional[BranchFn] = None
    fixed_point: bool = False
    strict: str = ""


class Context:
    """Immutable map from trigger atoms to definitions."""

    __slots__ = ("defs",)

    def __init__(self, defs: Optional[Dict[Coda, Definition]] = None):
        self.defs: Dict[Coda, Definition] = dict(defs or {})

    def has_name(self, name: str) -> bool:
        return word(name) in self.defs

    def bind(self, definition: Definition) -> "Context":
        new = dict(self.defs)
        new[definition.trigger] = definition
        return Context(new)

    def names(self):
        return sorted(d.name for d in self.defs.values())


class Engine:
    """A context, a budget and the step/node meters, for one evaluation or
    for a run of them (the cases of a law verdict, the normalisations of a
    carrier extraction): `begin()` opens a fresh budget window for each.
    The meters count on across windows; the limits are the meters at the
    window's start plus the budget."""

    def __init__(self, context: Context, budget: Budget = DEFAULT_BUDGET):
        self.budget = budget
        self.steps = 0
        self.nodes = 0
        self.base = context
        self._memo: Dict[int, MemoEntry] = {}
        self.begin()

    def begin(self) -> None:
        """Open a fresh budget window, in the engine's own context `base`:
        what a `def` bound in the last window is gone."""
        self.max_steps = self.steps + self.budget.max_steps
        self.max_nodes = self.nodes + self.budget.max_nodes
        self.exhausted = False
        self.context = self.base

    # -- budget ------------------------------------------------------------

    def spent(self) -> bool:
        """Whether the window's budget is used up; the one place the meters
        meet the limits, which also notes the exhaustion."""
        if self.steps >= self.max_steps or self.nodes >= self.max_nodes:
            self.exhausted = True
        return self.exhausted

    def charge(self, produced: Data) -> None:
        """Meter one rewrite step that produced `produced`."""
        self.steps += 1
        self.nodes += len(produced)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, c: Coda) -> Optional[Definition]:
        """The definition owning coda `c`, or None when `c` is out of every
        definition's domain.  A language-atom head defines itself."""
        if not c.left:
            return None  # structural atom (:X)
        head = c.left[0]
        # no trigger is a language atom: def binds words, markers are fixed
        defn = self.context.defs.get(head)
        if defn is None and is_lang_atom(head):
            return _lang_definition(head)
        return defn

    # -- evaluation --------------------------------------------------------

    def eval_data(self, d: Data) -> Data:
        """The normal form of `d`, coda by coda."""
        out: list = []
        atom = False  # an atom came after the last eval_coda
        defs = self.context.defs
        for c in d:
            if c.left:
                defn = defs.get(c.left[0])
                if defn is None or not defn.fixed_point:
                    out.extend(self.eval_coda(c, defn))
                    defs = self.context.defs  # a def may have replaced the context
                    atom = False
                    continue
            # (:X), or an atom maker's coda such as a word: an atom, which
            # stays out of the memo
            out.append(c)
            atom = True
        # exhaustion is noted as for any coda; the meters only move in
        # eval_coda, which checks on entry, so one check per trailing run of
        # atoms sets `exhausted` where a check per atom would
        if atom:
            self.spent()
        return tuple(out)

    def eval_coda(self, c: Coda, defn: Optional[Definition]) -> Data:
        """The normal form of `c`, a coda with a head, whose head's entry in
        the context is `defn`: from the memo, or by rewriting and storing
        the result.  `eval_data` keeps atoms away from it."""
        if self.spent():
            return (c,)
        memo = self._memo
        # once a def has replaced `base` in this window, the entries no
        # longer apply, and none is stored
        hit = memo.get(c._hash) if self.context is self.base else None
        if hit is not None:
            key, result, steps, nodes = hit
            if ((key is c or key == c) and self.steps + steps < self.max_steps
                    and self.nodes + nodes < self.max_nodes):
                self.steps += steps
                self.nodes += nodes
                return result
        key, steps, nodes = c, self.steps, self.nodes
        while True:
            if defn is None and is_lang_atom(c.left[0]):
                defn = _lang_definition(c.left[0])
            if defn is None:
                head = c.left[0]
                hv = self.eval_data((head,))
                if hv != (head,):
                    c = Coda(hv + c.left[1:], c.right)
                    if self.spent() or not c.left:
                        result = (c,)
                        break
                    defn = self.context.defs.get(c.left[0])
                    continue
                # head is normal and out of domain: the coda is inert;
                # normalize its components (congruence steps only)
                args = c.left[1:]
                tail = self.eval_data(args)
                right = self.eval_data(c.right)
                if tail == args and right == c.right:
                    result = (c,)
                else:
                    result = (Coda((head,) + tail, right),)
                break
            res = self._rewrite(c, defn)
            if res is None:
                result = (c,)  # stuck as-is
                break
            self.charge(res)
            result = self.eval_data(res)
            break
        if not self.exhausted and self.context is self.base:
            if len(memo) >= MEMO_CAP:
                memo.clear()
            memo[key._hash] = (key, result, self.steps - steps, self.nodes - nodes)
        return result

    def _rewrite(self, c: Coda, defn: Definition) -> Optional[Data]:
        """`c` rewritten by its definition `defn`, or None when the coda
        stays put: `defn` is a fixed point, no branch is in domain, or the
        operands' normalisation or the branch's guards spent the budget (so
        steps never pass the limit)."""
        if defn.fixed_point:
            return None
        a, b = c.left[1:], c.right
        if "A" in defn.strict:
            a = self.eval_data(a)
        if "B" in defn.strict:
            b = self.eval_data(b)
        res = defn.apply(self, a, b)
        return None if res is not None and self.spent() else res

    # -- decision helpers --------------------------------------------------

    def is_atom(self, c: Coda) -> bool:
        """True when a (normalized) coda is an atom: a fixed point of the
        context, or permanently out of its domain."""
        found = self.atom_or_eq(c)
        if found is True or found is False:
            return found
        # a fully peeled mismatch (= a : b) is its own fixed point
        return self.tri_equal(found.left[1:], found.right) is TriBool.NEVER

    def atom_or_eq(self, c: Coda) -> "bool | Coda":
        """`is_atom(c)` when it is decided without evaluating anything, else
        the `=` coda on c's head chain whose residue check decides it (and
        charges steps).  Spends nothing."""
        while c.left:
            defn = self.dispatch(c)
            if defn is not None:
                if defn.fixed_point:
                    return True
                return c if defn.name == "=" else False
            head = c.left[0]
            # normal head with no definition: inert coda, treated as atomic
            if self.dispatch(head) is None:
                return True
            c = head
        return True

    def is_invariant(self, c: Coda) -> bool:
        """True when `c` and every coda inside it are atoms: (:X), a fixed
        point's coda, or a coda whose head is out of every domain.  One walk,
        which visits each shared coda once."""
        stack, seen = [c], set()
        while stack:
            c = stack.pop()
            if id(c) in seen:
                continue
            seen.add(id(c))
            if c.left:
                defn = self.dispatch(c)
                if defn is None:
                    if self.dispatch(c.left[0]) is not None:
                        return False
                elif not defn.fixed_point:
                    return False
            stack += c.left + c.right
        return True

    def emptiness(self, d: Data) -> TriBool:
        """Does data `d` evaluate to the empty sequence?  ALWAYS if it does,
        NEVER if it is atomic (contains an atom), else UNDECIDED."""
        ev = self.eval_data(d)
        if not ev:
            return TriBool.ALWAYS
        if any(self.is_atom(c) for c in ev):
            return TriBool.NEVER
        return TriBool.UNDECIDED

    def tri_equal(self, a: Data, b: Data) -> TriBool:
        return self.tri_compare(self.eval_data(a), self.eval_data(b))

    def tri_compare(self, a: Data, b: Data) -> TriBool:
        """Three-valued equality of two (normalized) data."""
        if a == b:
            return TriBool.ALWAYS
        # peel structurally identical ends
        lo = 0
        hi_a, hi_b = len(a), len(b)
        while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
            lo += 1
        while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
            hi_a -= 1
            hi_b -= 1
        ra, rb = a[lo:hi_a], b[lo:hi_b]
        if not ra or not rb:
            rest = ra or rb
            if any(self.is_atom(c) for c in rest):
                return TriBool.NEVER  # empty vs atomic
            return TriBool.UNDECIDED
        if self.is_atom(ra[0]) and self.is_atom(rb[0]):
            return TriBool.NEVER  # distinct atoms at the front
        if self.is_atom(ra[-1]) and self.is_atom(rb[-1]):
            return TriBool.NEVER  # distinct atoms at the back
        return TriBool.UNDECIDED


@lru_cache(maxsize=_TEXT_CAP)
def _lang_definition(atom: Coda) -> Definition:
    """A language atom's definition: (atom A : B) rewrites by the atom's
    source, decoded once here, with A and B spliced in."""
    src = lang_source(atom) or ""

    def apply(engine: Engine, a: Data, b: Data) -> Data:
        return eval_lang_atom(src, a, b, engine)

    return Definition(name=LANG_NAME, trigger=atom, apply=apply)


# ---------------------------------------------------------------------------
# Module-level operations

def evaluate(d: Data, ctx: Context, budget: Budget = DEFAULT_BUDGET) -> EvalOutcome:
    eng = Engine(ctx, budget)
    result = eng.eval_data(tuple(d))
    return EvalOutcome(result, not eng.exhausted, eng.steps, eng.context)


def step(d: Data, ctx: Context, budget: Budget = DEFAULT_BUDGET) -> Data:
    """One left-to-right pass: each coda in domain is replaced by its image
    (not further evaluated)."""
    eng = Engine(ctx, budget)
    out: list = []
    for c in d:
        defn = eng.dispatch(c)
        res = None if defn is None else eng._rewrite(c, defn)
        out.extend((c,) if res is None else res)
    return tuple(out)


def equal(a: Data, b: Data, ctx: Context, budget: Budget = DEFAULT_BUDGET) -> TriBool:
    return Engine(ctx, budget).tri_equal(tuple(a), tuple(b))


def classify_atom(c: Coda, ctx: Context, budget: Budget = DEFAULT_BUDGET) -> str:
    """One of invariant_atom, defined_fixed_point, reducible, undecided.
    The head is resolved under the one budget; spending it is undecided."""
    eng = Engine(ctx, budget)
    while True:
        if not c.left:
            return "invariant_atom"
        defn = eng.dispatch(c)
        if defn is not None:
            break
        head = c.left[0]
        hv = eng.eval_data((head,))
        if hv == (head,):
            return "invariant_atom" if not eng.exhausted and eng.is_atom(c) else "undecided"
        if eng.spent():
            return "undecided"
        c = Coda(hv + c.left[1:], c.right)
    if defn.fixed_point:
        return "invariant_atom" if eng.is_invariant(c) else "defined_fixed_point"
    if eng._rewrite(c, defn) is not None:
        return "reducible"
    return "undecided"


def add_definition(ctx: Context, name, body: Data) -> Context:
    """Install (name A:B) -> (body A:B).  A no-op when the name is bound."""
    if isinstance(name, Coda):
        text = word_text(name)
        if text is None:
            raise ValueError("definition name must be a word atom")
        name = text
    if ctx.has_name(name):
        return ctx
    body = tuple(body)

    def apply(engine: Engine, a: Data, b: Data) -> Data:
        return (Coda(body + a, b),)

    return ctx.bind(Definition(name=name, trigger=word(name), apply=apply))
