"""The global semiring of data and budgeted law checking.

Product and sum are data-level constructions:

    (A . B) : X  =  A : B : X          composition
    (A + B) : X  =  (A : X) (B : X)    pointwise concatenation

Both are represented with the prod/sum builtins over structurally wrapped
operands, so the results are ordinary data.

The law checkers (idempotent, associative, algebraic, distributive) quantify
over a finite probe set.  A "holds" verdict therefore only ever means
holds-on-probes; a refutation, on the other hand, carries a concrete witness
that can be re-checked independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .encoding import word
from .engine import DEFAULT_BUDGET, Budget, Context, Engine, TriBool
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
    return (Coda(tuple(d), tuple(x)),)


@dataclass(frozen=True)
class ProbeSet:
    """Finite evidence for universally quantified laws."""

    probes: Tuple[Data, ...]
    budget: Budget = DEFAULT_BUDGET
    max_pairs: int = 20_000

    def __post_init__(self):
        if not self.probes:
            raise ValueError("probe set must be non-empty")

    def pairs(self) -> Iterable[Tuple[Data, Data]]:
        return itertools.islice(
            itertools.product(self.probes, self.probes), self.max_pairs
        )


def default_probes(
    alphabet: Sequence[str] = (),
    bound: SizeBound = SizeBound(2, 2),
    budget: Budget = DEFAULT_BUDGET,
) -> ProbeSet:
    """All pure data within `bound` plus the alphabet words as probes."""
    probes: List[Data] = [tuple(d) for d in enumerate_pure_data(bound)]
    for name in alphabet:
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
        eng = Engine(ctx if ctx is not None else prelude(), budget)
        return eng.tri_equal(self.lhs, self.rhs) is TriBool.NEVER


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
            from .lang import render

            out += f"; witness lhs={render(self.witness.lhs)} rhs={render(self.witness.rhs)}"
        return out


def _ctx(ctx: Optional[Context]) -> Context:
    return ctx if ctx is not None else prelude()


def _judge(law: str, cases, probes: ProbeSet, ctx: Context) -> Verdict:
    """Run (probe-tuple, lhs, rhs) comparisons and fold into a Verdict."""
    undecided = False
    checked = 0
    memo: dict = {}  # normal forms shared by this verdict's cases
    for used, lhs, rhs in cases:
        eng = Engine(ctx, probes.budget, memo)
        t = eng.tri_equal(lhs, rhs)
        checked += 1
        if eng.exhausted or t is TriBool.UNDECIDED:
            undecided = True
            continue
        if t is TriBool.NEVER:
            return Verdict(REFUTED, law, checked, Witness(tuple(used), lhs, rhs))
    if undecided:
        return Verdict(UNDECIDED, law, checked)
    return Verdict(HOLDS, law, checked)


def _judge_each_probe(law: str, lhs: Data, rhs: Data, probes: ProbeSet,
                      ctx: Optional[Context]) -> Verdict:
    """Compare lhs : X with rhs : X for every single probe X."""
    cases = (((x,), apply_to(lhs, x), apply_to(rhs, x)) for x in probes.probes)
    return _judge(law, cases, probes, _ctx(ctx))


def check_right_distributivity(
    a: Data, b: Data, c: Data, probes: ProbeSet, ctx: Optional[Context] = None
) -> Verdict:
    """(A+B).C : X  versus  ((A.C)+(B.C)) : X on every probe."""
    lhs = product(sum_data(a, b), c)
    rhs = sum_data(product(a, c), product(b, c))
    return _judge_each_probe("right-distributivity", lhs, rhs, probes, ctx)


def check_left_distributivity(
    a: Data, b: Data, c: Data, probes: ProbeSet, ctx: Optional[Context] = None
) -> Verdict:
    """C.(A+B) : X  versus  ((C.A)+(C.B)) : X; not an identity in general."""
    lhs = product(c, sum_data(a, b))
    rhs = sum_data(product(c, a), product(c, b))
    return _judge_each_probe("left-distributivity", lhs, rhs, probes, ctx)


def check_idempotent(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A.A) : X versus A : X."""
    return _judge_each_probe("idempotent", product(d, d), d, probes, ctx)


def check_associative(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A : (A:X) Y) = (A : X (A:Y)) over probe pairs."""
    d = tuple(d)

    def cases():
        for x, y in probes.pairs():
            plain = apply_to(d, x + y)
            yield (x, y), plain, apply_to(d, apply_to(d, x) + y)
            yield (x, y), plain, apply_to(d, x + apply_to(d, y))

    return _judge("associative", cases(), probes, _ctx(ctx))


def check_algebraic(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A : Y X) over probe pairs."""
    d = tuple(d)
    cases = (
        ((x, y), apply_to(d, x + y), apply_to(d, y + x)) for x, y in probes.pairs()
    )
    return _judge("algebraic", cases, probes, _ctx(ctx))


def check_distributive(d: Data, probes: ProbeSet, ctx: Optional[Context] = None) -> Verdict:
    """(A : X Y) = (A:X) (A:Y) over probe pairs."""
    d = tuple(d)
    cases = (
        ((x, y), apply_to(d, x + y), apply_to(d, x) + apply_to(d, y))
        for x, y in probes.pairs()
    )
    return _judge("distributive", cases, probes, _ctx(ctx))
