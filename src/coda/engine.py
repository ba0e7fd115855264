"""Contexts, definitions and budgeted evaluation.

A context is a partial function from codas to data.  Named definitions
trigger on a word atom heading the left data of a coda: in (name A : B) the
definition receives A (the rest of the left data) and B (the right data).
A definition without `apply` is a fixed point: its codas are atoms.  A
language atom heading a coda is a definition too: `_lang_definition`
compiles the atom's source once into a splice plan and keeps it, with the
borderline rule, in one cache.  It always applies, and `eval_coda`, `step`
and the decision helpers treat it as any other.

`Engine.atom_or_eq` is the one static rule for what an atom is: (:X), a
coda whose definition, or whose head's when it has none, is a fixed point
or missing.  `is_atom` adds only the check of an `=` residue, and
`is_invariant` asks `atom_or_eq` of every coda inside.  `classify_atom`
reads a coda's class from these and from its evaluation: a coda that is
not invariant is reducible exactly when evaluating it changes it.

Evaluation strategy: repeated outermost rewriting, left to right.  A coda's
head is evaluated just far enough to resolve dispatch.  A guard's operand is
normalised in `_rewrite`, under the shared budget, when the definition
declares it strict; the decision helpers (`emptiness`, `tri_compare`) then
read that normal form.  This is one of the deterministic strategies the
rewrite rules admit; it is documented rather than canonical.

There are no run-time errors: evaluation either normalizes or stops at the
step/node budget, reporting normalized=False.  `charge()` meters each
rewrite step, and `spent()` is the one check of the meters against the
window's limits (only the memo's fit test reads them otherwise).  An
evaluation is exhausted only when a check refused work: `eval_coda`'s
entry (a coda met past the limit), its head-change check, `_rewrite` after
a branch, and the `while` builtin's loop.  An atom needs no work, so
meeting one past the limit refuses nothing: under Budget(max_steps=1),
`a (null:x)`, `(null:x) a` and `a (null:x) b` are normalized with
steps_used 1, while `(null:x) (zzz:a)` is not, since finding out whether a
coda needs a step is itself work.

Which context an answer is relative to.  Two rules, which the engine
keeps and the law checks rely on:

(1) An ALWAYS or NEVER, and so an atom, is relative to the context at the
moment it is decided.  A `def` later in the same data may bind a word
that was unbound then, so a normal form is normal in the context its
evaluation started in, and `EvalOutcome.context` may rewrite it.
`(= (zzz:a) : (zzz:b)) (def zzz : const c) (zzz:a) (zzz:b)` normalizes
to `(= (zzz:a):(zzz:b)) c c`: the `=` coda was decided NEVER while zzz
was unbound, and stays as its own fixed point.  Evaluated again in the
outcome's context, where zzz is bound, it gives `c c`; in the context
it started in, it gives itself.

(2) A comparison evaluates its right side in the context its left side
ended in.  This is the order `_rewrite` normalises the `=` builtin's
strict `AB` operands in, and `tri_equal` keeps it.  So `last 2 : b a
(f:b) (def f:rev)` and `last 2 : (last 2 : b a) (f:b) (def f:rev)`
compare NEVER in either order, though each alone normalizes to `a b`:
the right side runs with f bound by the left side's `def`.
`algebra.check` follows from this rule when it reads a right side's
value instead of evaluating it: it does so only when the left side fired
no `def`, since only then does the right side start in the engine's own
context, where the value read was found.

Normalising is not idempotent in cost: a builtin's result is walked again
in full, also where it holds operands already normalised, and a stuck `=`
or `ar` coda in it re-runs its guard and charges for it again.

Normal-form memo.  The engine remembers each coda it normalized inside an
evaluation together with the steps and nodes that evaluation charged: a
coda met while another `eval_coda` of the engine runs, such as a rewrite's
operands and result, `while`'s loop, `def`'s computed name and the `=`
residue check.  A coda handed in from outside (a law verdict's sides, a
carrier's (space : x), `evaluate`'s data) is met once, so it neither reads
nor fills the memo.  `depth` counts the nesting, and `begin()` resets it,
so a window opened after a branch raised starts from codas handed in.  The
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
from .lang import _compile, eval_lang_atom
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


# the members, read once: each read through the class calls a descriptor
ALWAYS, NEVER, UNDECIDED = TriBool.ALWAYS, TriBool.NEVER, TriBool.UNDECIDED


# a memoised normal form, filed under the coda's hash: the coda, its normal
# form and the steps and nodes its evaluation charged
MemoEntry = Tuple[Coda, Data, int, int]


@dataclass
class EvalOutcome:
    """`context` is the one the evaluation ended in: the given context
    plus every word a `def` in it bound.  `result` is normal in the given
    context, where each of its ALWAYS and NEVER answers was decided, but
    `context` may rewrite it (rule 1 of the module docstring)."""

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
    `Engine._rewrite` normalises before `apply` sees them.  A definition
    without `apply` is a fixed point, an atom maker: its codas are atoms
    and are never rewritten or evaluated inside.
    """

    name: str
    trigger: Coda
    apply: Optional[BranchFn] = None
    strict: str = ""


class Context:
    """Immutable map from trigger atoms to definitions."""

    __slots__ = ("defs",)

    def __init__(self, defs: Optional[Dict[Coda, Definition]] = None):
        self.defs: Dict[Coda, Definition] = dict(defs or {})

    def has_name(self, name: str) -> bool:
        return word(name) in self.defs

    def bind(self, definition: Definition) -> "Context":
        new = Context(self.defs)
        new.defs[definition.trigger] = definition
        return new

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
        self.depth = 0

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
        # no trigger is a language atom: def binds words, atom makers are fixed
        defn = self.context.defs.get(head)
        if defn is None and is_lang_atom(head):
            return _lang_definition(head)
        return defn

    # -- evaluation --------------------------------------------------------

    def eval_data(self, d: Data) -> Data:
        """The normal form of `d`, coda by coda."""
        out: list = []
        defs = self.context.defs
        for c in d:
            if c.left:
                defn = defs.get(c.left[0])
                if defn is None or defn.apply is not None:
                    out.extend(self.eval_coda(c, defn))
                    defs = self.context.defs  # a def may have replaced the context
                    continue
            # (:X), or an atom maker's coda such as a word: an atom needs no
            # work, so the limit refuses none, and it stays out of the memo
            out.append(c)
        return tuple(out)

    def eval_coda(self, c: Coda, defn: Optional[Definition]) -> Data:
        """The normal form of `c`, a coda with a head, whose head's entry in
        the context is `defn`: by rewriting, and when it is nested in
        another evaluation, from the memo or stored in it.  `eval_data`
        keeps atoms away from it."""
        if self.spent():
            return (c,)
        # a coda handed in is met once; once a def has replaced `base` in
        # this window, the entries no longer apply, and none is stored
        memo = self._memo if self.depth and self.context is self.base else None
        hit = None if memo is None else memo.get(c._hash)
        if hit is not None:
            key, result, steps, nodes = hit
            if ((key is c or key == c) and self.steps + steps < self.max_steps
                    and self.nodes + nodes < self.max_nodes):
                self.steps += steps
                self.nodes += nodes
                return result
        key, steps, nodes = c, self.steps, self.nodes
        self.depth += 1
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
        self.depth -= 1
        if memo is not None and not self.exhausted and self.context is self.base:
            if len(memo) >= MEMO_CAP:
                memo.clear()
            memo[key._hash] = (key, result, self.steps - steps, self.nodes - nodes)
        return result

    def _rewrite(self, c: Coda, defn: Definition) -> Optional[Data]:
        """`c` rewritten by its definition `defn`, or None when the coda
        stays put: `defn` is a fixed point, no branch is in domain, or the
        operands' normalisation or the branch's guards spent the budget (so
        steps never pass the limit)."""
        if defn.apply is None:
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
        context, or out of its domain in the context as it is now (rule 1
        of the module docstring)."""
        found = self.atom_or_eq(c)
        if found is True or found is False:
            return found
        # a fully peeled mismatch (= a : b) is its own fixed point
        return self.tri_equal(found.left[1:], found.right) is NEVER

    def atom_or_eq(self, c: Coda) -> "bool | Coda":
        """`is_atom(c)` when it is decided without evaluating anything, else
        the `=` coda, c or its head, whose residue check decides it (and
        charges steps).  Spends nothing."""
        if not c.left:
            return True  # (:X)
        defn = self.dispatch(c)
        if defn is None:
            c = c.left[0]  # inert when its head has no definition either
            defn = self.dispatch(c)
        if defn is None or defn.apply is None:
            return True
        return c if defn.name == "=" else False

    def is_invariant(self, c: Coda) -> bool:
        """True when `c` and every coda inside it are atoms by `atom_or_eq`'s
        rule, which decides each without evaluating: an `=` residue is not
        one.  One walk, which visits each shared coda once."""
        stack, seen = [c], set()
        while stack:
            c = stack.pop()
            if id(c) not in seen:
                if self.atom_or_eq(c) is not True:
                    return False
                seen.add(id(c))
                stack += c.left + c.right
        return True

    def emptiness(self, d: Data) -> TriBool:
        """Is the normal form `d` the empty sequence?  ALWAYS if it is, NEVER
        if it is atomic (contains an atom), else UNDECIDED.  It evaluates
        nothing: a guard's operand was normalised in `_rewrite`."""
        return self.tri_compare((), d)

    def tri_equal(self, a: Data, b: Data) -> TriBool:
        """Three-valued equality of two data: `a` is normalized first, then
        `b` in the context `a` ended in (rule 2 of the module docstring),
        and each ALWAYS or NEVER is relative to the context as it is then
        (rule 1)."""
        return self.tri_compare(self.eval_data(a), self.eval_data(b))

    def tri_compare(self, a: Data, b: Data) -> TriBool:
        """Three-valued equality of two (normalized) data."""
        if a == b:
            return ALWAYS
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
                return NEVER  # empty vs atomic
            return UNDECIDED
        if self.is_atom(ra[0]) and self.is_atom(rb[0]):
            return NEVER  # distinct atoms at the front
        if self.is_atom(ra[-1]) and self.is_atom(rb[-1]):
            return NEVER  # distinct atoms at the back
        return UNDECIDED


@lru_cache(maxsize=_TEXT_CAP)
def _lang_definition(atom: Coda) -> Definition:
    """A language atom's definition: (atom A : B) rewrites by the atom's
    source, compiled here once into a splice plan, with A and B spliced in.

    A source with neither a top-level colon nor an `A`/`B` reference is a
    borderline case.  When its head word is bound in the engine's context it
    names a transformation and keeps the original components, so that
    ({pass} A : B) rewrites to (pass A : B).  Otherwise the expansion is the
    parsed source itself: ({a} : X) is the constant `a`, which is what makes
    (ap {a}) idempotent."""
    template, plan = _compile(lang_source(atom) or "")

    def apply(engine: Engine, a: Data, b: Data) -> Data:
        d = eval_lang_atom(plan, a, b)
        if template or not d or engine.dispatch(Coda(d, b)) is None:
            return d
        return (Coda(d + a, b),)

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
    An invariant atom is one `is_invariant` accepts, decided without
    evaluating.  Any other coda is reducible exactly when evaluating (c,)
    under the budget changes it; when it does not, it is undecided if that
    spent the budget, else a defined fixed point when `is_atom` holds."""
    eng = Engine(ctx, budget)
    if eng.is_invariant(c):
        return "invariant_atom"
    if eng.eval_data((c,)) != (c,):
        return "reducible"
    if eng.exhausted:
        return "undecided"
    return "defined_fixed_point" if eng.is_atom(c) and not eng.exhausted else "undecided"


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
