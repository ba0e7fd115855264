"""The global semiring of data and budgeted law checking.

Product and sum are data-level constructions:

    (A . B) : X  =  A : B : X          composition
    (A + B) : X  =  (A : X) (B : X)    pointwise concatenation

Both are represented with the prod/sum builtins over structurally wrapped
operands, so the results are ordinary data.

Each law is one `Law` row: a name, an arity (probes per case) and a case
builder that maps a tuple of probes to the (lhs, rhs) pairs that must agree,
each with the coda its right side holds in place of a probe, if any.
The rows are idempotent, associative, algebraic, distributive and right- and
left-distributivity; `check` judges any row on every tuple of probes.  A
"holds" verdict therefore only ever means holds-on-probes; a refutation, on
the other hand, carries a concrete witness that can be re-checked
independently.

Associativity's cases are (d : x y) against (d : (d:x) y) and against
(d : x (d:y)), and most of them are decided from the left side alone.  When
d's head definition normalises B before its branch runs (`Definition.strict`
holds "B"), and a probe x is its own normal form at no charge and the
normal form of (d : x), which fires no def, both sides hand the branch the
same operands: the right side's B normalises to the left side's, in the same
context, at exactly the extra charge of (d : x).  So if the left side fires
the branch, fires no def and is not exhausted, the right side reaches the
same normal form whenever the window can hold both sides: the right side
starts where the left side ended, so twice the left side's steps and nodes
plus those of (d : x) must stay strictly inside the window's limits, and
then no check of the meters on the right side finds them spent.  The case
is then ALWAYS without evaluating the right side.  Each condition is read
off the evaluations it names, so the rule is exact, not a heuristic: every
verdict, case count and witness is the one that evaluating both sides
gives, under any budget.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .encoding import word
from .engine import DEFAULT_BUDGET, Budget, Context, Engine, TriBool, equal
from .lang import render
from .prelude import prelude
from .terms import Coda, Data, SizeBound, enumerate_pure_data

HOLDS = "holds_on_probes"
REFUTED = "refuted"
UNDECIDED = "undecided"

WORD_PROD = word("prod")
WORD_SUM = word("sum")


def _wrap(d: Data) -> Coda:
    """Operand as a structural atom (:d), safe to carry inside prod/sum."""
    return Coda((), tuple(d))


def product(a: Data, b: Data) -> Data:
    """Data satisfying (product(a,b) : X) = (a : (b : X))."""
    return (WORD_PROD, _wrap(a), _wrap(b))


def sum_data(a: Data, b: Data) -> Data:
    """Data satisfying (sum_data(a,b) : X) = (a : X) (b : X)."""
    return (WORD_SUM, _wrap(a), _wrap(b))


def product_chain(*parts: Data) -> Data:
    """Right-nested composition of several operands."""
    if not parts:
        raise ValueError("product_chain needs at least one operand")
    out = tuple(parts[-1])
    for p in reversed(parts[:-1]):
        out = product(p, out)
    return out


def apply_to(d: Data, x: Data) -> Data:
    """The coda (d : x), unevaluated."""
    return (Coda(d, x),)


@dataclass(frozen=True)
class ProbeSet:
    """Finite evidence for universally quantified laws."""

    probes: Tuple[Data, ...]
    budget: Budget = DEFAULT_BUDGET

    def __post_init__(self):
        if not self.probes:
            raise ValueError("probe set must be non-empty")


def default_probes(
    alphabet: Sequence[str] = (),
    bound: SizeBound = SizeBound(2, 2),
    budget: Budget = DEFAULT_BUDGET,
) -> ProbeSet:
    """All pure data within `bound` plus each alphabet word once, as probes."""
    probes: List[Data] = [tuple(d) for d in enumerate_pure_data(bound)]
    for name in dict.fromkeys(alphabet):  # a repeated word adds no probe
        probes.append((word(name),))
    return ProbeSet(tuple(probes), budget)


def small_probes(
    alphabet: Sequence[str] = (), budget: Budget = DEFAULT_BUDGET
) -> ProbeSet:
    """A light probe set for bulk screening (candidate search)."""
    return default_probes(alphabet, SizeBound(2, 1), budget)


@dataclass(frozen=True)
class Witness:
    """A counterexample: two expressions that should agree but never do."""

    probes: Tuple[Data, ...]
    lhs: Data
    rhs: Data

    def still_violates(self, ctx: Optional[Context] = None,
                       budget: Budget = DEFAULT_BUDGET) -> bool:
        return equal(self.lhs, self.rhs, ctx or prelude(), budget) is TriBool.NEVER


@dataclass
class Verdict:
    status: str
    law: str = ""
    checked: int = 0
    witness: Optional[Witness] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    def __str__(self):
        out = f"{self.law or 'law'}: {self.status} ({self.checked} cases)"
        if self.witness is not None:
            out += f"; witness lhs={render(self.witness.lhs)} rhs={render(self.witness.rhs)}"
        return out


@dataclass(frozen=True)
class Law:
    """A law as a row: `cases(*operands)` returns the function that maps one
    tuple of `arity` probes to the cases (lhs, rhs, wrapped): lhs and rhs
    must agree, and `wrapped` is None unless the case is (d : P x Q)
    against (d : P w Q) for one of its probes x, where it is w = (d : x)."""

    name: str
    arity: int
    cases: Callable[..., Callable]


def check(law: Law, operands: Sequence[Data], probes: ProbeSet,
          ctx: Optional[Context] = None) -> Verdict:
    """Judge `law` on every tuple of `law.arity` probes, in product order.
    One engine per verdict, with a budget window per comparison; the first
    comparison that never agrees refutes, and exhaustion counts as undecided.

    A case (d : P x Q) against (d : P w Q) that names w = (d : x), as
    associativity's do, takes the module's rule when d's head definition is
    strict in B and x is its own normal form at no charge and that of w,
    firing no def (`_fixed_cost`, found once per verdict, in its own
    window).  The left side is evaluated in the case's window; if it fires
    d's branch, fires no def, is not exhausted, and twice its charges plus
    those of w stay strictly inside the window's step and node limits, the
    right side would hand the branch the same operands and end at the same
    normal form, so the case is ALWAYS.  Otherwise the right side is
    evaluated after it, in the same window, as `tri_equal` would.  So no
    left side is evaluated twice, which would charge it twice."""
    cases = law.cases(*operands)
    undecided, checked = False, 0
    budget = probes.budget
    eng = Engine(ctx if ctx is not None else prelude(), budget)
    costs: Dict[int, Tuple[Coda, Optional[Tuple[int, int]]]] = {}
    for used in itertools.product(probes.probes, repeat=law.arity):
        for lhs, rhs, w in cases(*used):
            cost = None
            if w is not None:
                # filed under id(w), which the entry keeps alive: no Coda.__hash__ call
                seen = costs.get(id(w))
                if seen is None:
                    seen = costs[id(w)] = (w, _fixed_cost(eng, w))
                cost = seen[1]
            eng.begin()
            checked += 1
            if cost is None:
                t = eng.tri_equal(lhs, rhs)
            else:
                steps, nodes = eng.steps, eng.nodes
                a = eng.eval_data(lhs)
                # a stuck coda is its own normal form: a != lhs means d's branch fired
                if (a != lhs and not eng.exhausted and eng.context is eng.base
                        and 2 * (eng.steps - steps) + cost[0] < budget.max_steps
                        and 2 * (eng.nodes - nodes) + cost[1] < budget.max_nodes):
                    continue  # ALWAYS: the right side would normalise to `a`
                t = eng.tri_compare(a, eng.eval_data(rhs))
            if eng.exhausted or t is TriBool.UNDECIDED:
                undecided = True
            elif t is TriBool.NEVER:
                return Verdict(REFUTED, law.name, checked, Witness(used, lhs, rhs))
    return Verdict(UNDECIDED if undecided else HOLDS, law.name, checked)


def _fixed_cost(eng: Engine, w: Coda) -> Optional[Tuple[int, int]]:
    """The steps and nodes that w = (d : x) charges, when d's head
    definition normalises B before its branch runs, x is its own normal
    form at no charge, and x is the normal form of w, reached unexhausted
    and firing no def; else None.  One window of its own."""
    eng.begin()
    defn = eng.dispatch(w)
    if defn is None or "B" not in defn.strict:
        return None
    x, steps, nodes = w.right, eng.steps, eng.nodes
    if eng.eval_data(x) != x or eng.exhausted or (eng.steps, eng.nodes) != (steps, nodes):
        return None
    if eng.eval_data((w,)) != x or eng.exhausted or eng.context is not eng.base:
        return None
    return eng.steps - steps, eng.nodes - nodes


def _on_each_probe(lhs: Data, rhs: Data) -> Callable:
    """lhs : X versus rhs : X for a single probe X."""
    return lambda x: ((apply_to(lhs, x), apply_to(rhs, x), None),)


def _associative_cases(d: Data) -> Callable:
    at = functools.cache(functools.partial(apply_to, d))  # each (d : x) once per verdict

    def cases(x, y):
        plain, dx, dy = apply_to(d, x + y), at(x), at(y)
        return ((plain, apply_to(d, dx + y), dx[0]),
                (plain, apply_to(d, x + dy), dy[0]))
    return cases


def _distributive_cases(d: Data) -> Callable:
    at = functools.cache(functools.partial(apply_to, d))
    return lambda x, y: ((apply_to(d, x + y), at(x) + at(y), None),)


IDEMPOTENT = Law("idempotent", 1, lambda d: _on_each_probe(product(d, d), d))
ASSOCIATIVE = Law("associative", 2, _associative_cases)
ALGEBRAIC = Law("algebraic", 2, lambda d: lambda x, y: (
    (apply_to(d, x + y), apply_to(d, y + x), None),))
DISTRIBUTIVE = Law("distributive", 2, _distributive_cases)
RIGHT_DISTRIBUTIVITY = Law("right-distributivity", 1, lambda a, b, c: _on_each_probe(
    product(sum_data(a, b), c), sum_data(product(a, c), product(b, c))))
LEFT_DISTRIBUTIVITY = Law("left-distributivity", 1, lambda a, b, c: _on_each_probe(
    product(c, sum_data(a, b)), sum_data(product(c, a), product(c, b))))


def check_right_distributivity(a: Data, b: Data, c: Data, probes: ProbeSet,
                               ctx: Optional[Context] = None) -> Verdict:
    """(A+B).C : X  versus  ((A.C)+(B.C)) : X on every probe."""
    return check(RIGHT_DISTRIBUTIVITY, (a, b, c), probes, ctx)


def check_left_distributivity(a: Data, b: Data, c: Data, probes: ProbeSet,
                              ctx: Optional[Context] = None) -> Verdict:
    """C.(A+B) : X  versus  ((C.A)+(C.B)) : X; not an identity in general."""
    return check(LEFT_DISTRIBUTIVITY, (a, b, c), probes, ctx)


def check_idempotent(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A.A) : X versus A : X."""
    return check(IDEMPOTENT, (d,), probes, ctx)


def check_associative(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A : (A:X) Y) = (A : X (A:Y)) over probe pairs."""
    return check(ASSOCIATIVE, (d,), probes, ctx)


def check_algebraic(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A : Y X) over probe pairs."""
    return check(ALGEBRAIC, (d,), probes, ctx)


def check_distributive(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A:X) (A:Y) over probe pairs."""
    return check(DISTRIBUTIVE, (d,), probes, ctx)
