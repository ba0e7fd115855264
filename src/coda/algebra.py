"""The global semiring of data and budgeted law checking.

Product and sum are data-level constructions:

    (A . B) : X  =  A : B : X          composition
    (A + B) : X  =  (A : X) (B : X)    pointwise concatenation

Both are represented with the prod/sum builtins over structurally wrapped
operands, so the results are ordinary data.

Each law is one `Law` row: a name, an arity (probes per case) and the
builders of its cases over a tuple of probes: one for the left side that
the tuple's cases share, and one for each case's right side, with the read
that may find that side's normal form, if any (below).  A side is built
only when it is evaluated or reported in a witness: a right side that a
read decides is never built, and a commutativity case (y, x) that its
mirror decides builds neither side.
The rows are idempotent, associative, algebraic, distributive and right- and
left-distributivity; `check` judges any row on every tuple of probes.  A
"holds" verdict therefore only ever means holds-on-probes; a refutation, on
the other hand, carries a concrete witness that can be re-checked
independently.

Most right sides are read, not evaluated.  `check` keeps a table per
verdict, indexed by probe position: each probe's image x' = N(d : x), and
the left sides of probe tuples that a later case can read, each kept with
its charge when it ended unexhausted in the engine's own context.  There
are three reads:

- associativity, when d's head definition normalises B before its branch
  runs (`Definition.strict` holds "B"): if x' is a probe that is its own
  normal form at no charge, (d : (d:x) y) hands the branch the operands of
  (d : x' y), the left side of the tuple (x', y).  If that left side fired
  d's branch, the right side ends at its normal form, at its charge plus
  that of (d : x).  (d : x (d:y)) reads the left side of (x, y') the same
  way, and the tuple's second case takes its left side from the first.
- commutativity: the case (y, x) is the case (x, y) with its sides
  swapped, so it holds when (x, y) agreed, both sides unexhausted and
  firing no def, strictly inside its window.  The case (x, x) reads its own
  left side.
- distributivity: (d:x) (d:y) normalises to x' y', at the charge of both
  images.

A read decides a case ALWAYS when the case's left side fired no def, is not
exhausted and equals the value read, and its charge plus the charge read
stays strictly inside the window's step and node limits: the right side
would start where the left side ended, so no check of the meters on it
would find them spent, and it would end, unexhausted, at the value read.
Otherwise the right side is evaluated as before.  Each condition is read
off the evaluations it names, so the reads are exact, not heuristics: every
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


# a law's cases on one probe tuple: the left side's builder, and each
# case's right-side builder with its read (`Law`)
Cases = Tuple[Callable, Tuple[Tuple[Callable, Optional[str]], ...]]


@dataclass(frozen=True)
class Law:
    """A law as a row: `cases(*operands)` returns the builders of the cases
    on one tuple of `arity` probes, as (left, rights).  `left(*probes)`
    builds the left side that every case of the tuple shares; `rights`
    pairs each case's right-side builder with the read that names where
    `check` may find that side's normal form instead of evaluating it (one
    of the reads below), or None.  A side is built only when it is
    evaluated or reported in a witness."""

    name: str
    arity: int
    cases: Callable[..., Cases]


# The reads a case can name, for a tuple of two probes (x, y), the law's
# operand d and x' = N(d : x) (module docstring).
IMAGE_LEFT = "x' y"   # (d : (d:x) y): the left side of (x', y), plus (d:x)'s charge
IMAGE_RIGHT = "x y'"  # (d : x (d:y)): the left side of (x, y'), plus (d:y)'s charge
MIRRORED = "y x"      # (d : y x): the case (y, x) is this one with its sides swapped
IMAGES = "x' y'"      # (d:x) (d:y): x' y', at the charge of both images
# the reads when d's head definition is strict in B, and when it is not
STRICT_READS = frozenset((IMAGE_LEFT, IMAGE_RIGHT, MIRRORED, IMAGES))
LAX_READS = frozenset((MIRRORED, IMAGES))

# a normal form with the steps and nodes its evaluation charged
Reached = Tuple[Data, int, int]


def check(law: Law, operands: Sequence[Data], probes: ProbeSet,
          ctx: Optional[Context] = None) -> Verdict:
    """Judge `law` on every tuple of `law.arity` probes, in product order.
    One engine per verdict, with a budget window per comparison; the first
    comparison that never agrees refutes, and exhaustion counts as undecided.

    A case that names a read is judged by the verdict's `_Table`: its left
    side is evaluated, and the case is ALWAYS when the read finds the right
    side's normal form equal to it, the left side fired no def and is not
    exhausted, and its charge plus the charge read stays strictly inside
    the window's step and node limits (module docstring).  Otherwise the
    right side is evaluated after it, in the same window, as `tri_equal`
    would, so no left side is charged twice.  Each probe's image is found
    once, in its own window, before the case window that reads it.  The
    associativity reads need d's head definition to be strict in B; without
    it, the table does no work.

    A side is built only when it is evaluated or reported in a witness: the
    cases of a tuple share one left side, a right side that a read decides
    is never built, and a case (y, x) whose mirror decides it builds
    neither side."""
    left, rights = law.cases(*operands)
    undecided, checked = False, 0
    eng = Engine(ctx if ctx is not None else prelude(), probes.budget)
    table = _Table(eng, operands[0], probes.probes, left)
    for n, used in enumerate(itertools.product(probes.probes, repeat=law.arity)):
        for right, read in rights:
            checked += 1
            t = table.judge(n, used, right, read)
            if t is TriBool.UNDECIDED:
                undecided = True
            elif t is TriBool.NEVER:
                return Verdict(REFUTED, law.name, checked, Witness(used, left(*used), right(*used)))
    return Verdict(UNDECIDED if undecided else HOLDS, law.name, checked)


class _Table:
    """What a verdict's evaluations leave for its later cases to read,
    indexed by probe position; tuples are numbered in product order.  It
    holds each probe's image x' = N(d : x), found once in its own window,
    and, for associativity, the left sides that a later case can read: those
    of the current row and of the rows of probes that are the image of a
    probe in the current row or a later one, each kept when it fired d's
    branch and ended unexhausted in the engine's own context, with its
    charge.  For commutativity it marks each case (y, x) whose mirror
    (x, y) agreed."""

    __slots__ = ("eng", "d", "probes", "size", "left", "reads", "images", "where", "lefts",
                 "row", "readers", "last", "mirrored")

    def __init__(self, eng: Engine, d: Data, probes: Tuple[Data, ...], left: Callable):
        self.eng, self.d, self.probes, self.size, self.left = eng, d, probes, len(probes), left
        defn = eng.dispatch(Coda(d, ()))
        self.reads = STRICT_READS if defn is not None and "B" in defn.strict else LAX_READS
        # per probe: None until found; () when not reached unexhausted in the
        # engine's own context; else x', its charge and, for associativity,
        # the position of x' as a probe that is its own normal form at no
        # charge, or None
        self.images: List[Optional[tuple]] = [None] * self.size
        self.where: Optional[Dict[Data, int]] = None  # each probe's first position, once needed
        # associativity left sides by row and column, and the rows that a
        # later row reads, each with the last row that reads it
        self.lefts: Dict[int, Dict[int, Reached]] = {0: {}}
        self.row, self.readers = 0, None
        # the last tuple whose left side was built, that side, and what it
        # reached if it was evaluated and ended unexhausted in the engine's
        # own context, else None
        self.last: Tuple[Optional[int], Optional[Data], Optional[Reached]] = (None, None, None)
        # the tuples (y, x) whose mirror (x, y) agreed, both sides
        # unexhausted and firing no def, strictly inside its window; sized
        # at the first mirrored case
        self.mirrored = bytearray()

    def judge(self, n: int, used: Tuple[Data, ...], right: Callable, read: Optional[str]) -> TriBool:
        """Compare the left side of tuple n, the probes `used`, with
        `right(*used)` in a fresh window, reading the right side when `read`
        decides it (see `check`); a window that ends exhausted makes the
        case UNDECIDED.  The tuple's left side is built once, and a left
        side that the last case evaluated is not evaluated again unless the
        right side is: a fresh window in the engine's own context takes it
        to the same normal form and charge."""
        eng, size = self.eng, self.size
        if read is MIRRORED:
            if not self.mirrored:
                self.mirrored = bytearray(size * size)
            elif self.mirrored[n]:
                return TriBool.ALWAYS
        at, lhs, here = self.last
        if at != n:
            lhs, here = self.left(*used), None
            self.last = (n, lhs, None)
        if read not in self.reads:
            eng.begin()
            t = eng.tri_equal(lhs, right(*used))
            return TriBool.UNDECIDED if eng.exhausted else t
        images = self.images
        i, j = divmod(n, size)
        if read is IMAGE_LEFT:
            if images[i] is None:
                self._image(i, True)
        elif read is IMAGE_RIGHT:
            if images[j] is None:
                self._image(j, True)
        elif read is IMAGES:
            if images[i] is None:
                self._image(i, False)
            if images[j] is None:
                self._image(j, False)
        known = here is not None
        if not known:
            eng.begin()
            steps, nodes = eng.steps, eng.nodes
            a = eng.eval_data(lhs)
            if eng.exhausted or eng.context is not eng.base:
                t = eng.tri_compare(a, eng.eval_data(right(*used)))
                return TriBool.UNDECIDED if eng.exhausted else t
            here = (a, eng.steps - steps, eng.nodes - nodes)
            self.last = (n, lhs, here)
        a, steps, nodes = here
        if read is IMAGE_LEFT:
            if i != self.row:
                self._next_row(i)
            if a != lhs:  # fired d's branch: a stuck coda is its own normal form
                self.lefts[i][j] = here
            image = images[i]
            row = image and image[3] is not None and self.lefts.get(image[3])
            there = row and row.get(j)
        elif read is IMAGE_RIGHT:
            image = images[j]
            row = image and image[3] is not None and self.lefts.get(i)
            there = row and row.get(image[3])
        elif read is IMAGES:
            x, image = images[i], images[j]
            there = x and image and (x[0] + image[0], x[1], x[2])
        else:
            there, image = here if i == j else None, (None, 0, 0)
        budget = eng.budget
        if (there and there[0] == a and steps + there[1] + image[1] < budget.max_steps
                and nodes + there[2] + image[2] < budget.max_nodes):
            return TriBool.ALWAYS  # the right side would normalise to `a`
        if known:
            eng.begin()
            a = eng.eval_data(lhs)  # charged in this window, before the right side
        b = eng.eval_data(right(*used))
        if (read is MIRRORED and i < j and a == b and not eng.exhausted and eng.context is eng.base
                and eng.steps < eng.max_steps and eng.nodes < eng.max_nodes):
            self.mirrored[j * size + i] = True
        t = eng.tri_compare(a, b)
        return TriBool.UNDECIDED if eng.exhausted else t

    def _image(self, k: int, positional: bool) -> None:
        """Find probe k's image in a window of its own, and, if `positional`,
        whether it is a probe that is its own normal form at no charge, in
        another."""
        eng = self.eng
        eng.begin()
        steps, nodes = eng.steps, eng.nodes
        x = eng.eval_data(apply_to(self.d, self.probes[k]))
        if eng.exhausted or eng.context is not eng.base:
            self.images[k] = ()
            return
        charge, at = (eng.steps - steps, eng.nodes - nodes), None
        if positional:
            if self.where is None:
                self.where = {p: k for k, p in reversed(tuple(enumerate(self.probes)))}
            at = self.where.get(x)
            if at is not None:
                eng.begin()
                steps, nodes = eng.steps, eng.nodes
                if eng.eval_data(x) != x or eng.exhausted or (eng.steps, eng.nodes) != (steps, nodes):
                    at = None
        self.images[k] = (x, *charge, at)

    def _next_row(self, i: int) -> None:
        """Start row i of the associativity tuples, keeping only the rows of
        probes that are the image of a probe in row i or later.  Every image
        is found in the first row, whose second cases read each y'."""
        if self.readers is None:
            self.readers = {im[3]: k for k, im in enumerate(self.images)
                            if im and im[3] is not None and im[3] < k}
        self.lefts = {r: row for r, row in self.lefts.items() if self.readers.get(r, -1) >= i}
        self.lefts[i] = {}
        self.row = i


def _on_each_probe(lhs: Data, rhs: Data) -> Cases:
    """lhs : X versus rhs : X for a single probe X."""
    return functools.partial(apply_to, lhs), ((functools.partial(apply_to, rhs), None),)


def _on_pairs(d: Data) -> Callable:
    """The builder of (d : X Y)."""
    return lambda x, y: apply_to(d, x + y)


def _associative_cases(d: Data) -> Cases:
    at = functools.cache(functools.partial(apply_to, d))  # each (d : x) once per verdict
    return _on_pairs(d), ((lambda x, y: apply_to(d, at(x) + y), IMAGE_LEFT),
                          (lambda x, y: apply_to(d, x + at(y)), IMAGE_RIGHT))


def _distributive_cases(d: Data) -> Cases:
    at = functools.cache(functools.partial(apply_to, d))
    return _on_pairs(d), ((lambda x, y: at(x) + at(y), IMAGES),)


IDEMPOTENT = Law("idempotent", 1, lambda d: _on_each_probe(product(d, d), d))
ASSOCIATIVE = Law("associative", 2, _associative_cases)
ALGEBRAIC = Law("algebraic", 2, lambda d: (
    _on_pairs(d), ((lambda x, y: apply_to(d, y + x), MIRRORED),)))
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
