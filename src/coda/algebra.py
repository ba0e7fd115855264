"""The global semiring of data and budgeted law checking.

Product and sum are data-level constructions:

    (A . B) : X  =  A : B : X          composition
    (A + B) : X  =  (A : X) (B : X)    pointwise concatenation

Both are represented with the prod/sum builtins over structurally wrapped
operands, so the results are ordinary data.

Each law is one `Law` row: a name, an arity (probes per case), the
builders of its cases over a tuple of probes, and the table that judges
them.  The rows are idempotent, associative, algebraic, distributive and
right- and left-distributivity; `check` judges any row on every tuple of
probes.  A "holds" verdict therefore only ever means holds-on-probes; a
refutation, on the other hand, carries a concrete witness that can be
re-checked independently.

A table judges all the cases of a probe tuple in one pass: the tuple's
left side is built and evaluated once, in its first case's window.  A
later case opens a fresh window charged the left side's steps and nodes,
as evaluating it again under the same budget would charge them, and
evaluates it again only when the first window was exhausted or fired a
def (`_Table._again`).  `_Table` evaluates every right side after it.
The other tables read most right sides instead, from other tuples' left
sides and from each probe's image x' = N(d : x), found once in a window
of its own, all kept by probe position.  A side is built only when it is
evaluated or reported in a witness.  The three reads:

- `_Associative`, when d's head definition normalises B before its branch
  runs (`Definition.strict` holds "B"): if x' is a probe that is its own
  normal form at no charge, (d : (d:x) y) hands the branch the operands of
  (d : x' y), the left side of the tuple (x', y); if that side fired d's
  branch, the right side ends at its normal form, at its charge plus that
  of (d : x).  (d : x (d:y)) reads the left side of (x, y') the same way.
- `_Mirrored`, commutativity: the case (y, x) is (x, y) with its sides
  swapped, so it holds, building neither side, when (x, y) agreed, both
  sides unexhausted and firing no def, strictly inside its window.  (x, x)
  reads its own left side.
- `_Images`, distributivity: (d:x) (d:y) normalises to x' y', at both
  images' charge.

A read decides a case ALWAYS (`_Table._reads`) when the case's left side
fired no def, is not exhausted and equals the value read, and its charge
plus the charge read stays strictly inside the window's step and node
limits: the right side would start where the left side ended, so no check
of the meters on it would find them spent, and it would end, unexhausted,
at the value read.  The right side runs in the context the left side
ended in (rule 2 of `engine`'s docstring), and the value read was found
in the engine's own context, so the two agree only when the left side
fired no def.  Otherwise the right side is evaluated after the left
side, in its window, so every verdict, case count and witness is the one
that evaluating both sides gives, under any budget.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, MutableSequence, Optional, Sequence, Tuple

from .encoding import word
from .engine import ALWAYS, DEFAULT_BUDGET, NEVER, Budget, Context, Definition, Engine, TriBool, equal
from .engine import UNDECIDED as UNSURE  # UNDECIDED here is the verdict status
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
        return equal(self.lhs, self.rhs, ctx or prelude(), budget) is NEVER


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
# case's right-side builder
Cases = Tuple[Callable, Tuple[Callable, ...]]


@dataclass(frozen=True)
class Law:
    """A law as a row: `cases(*operands)` returns the builders of the cases
    on one tuple of `arity` probes, as (left, rights).  `left(*probes)`
    builds the left side that every case of the tuple shares, and each of
    `rights` one case's right side.  `table` is the `_Table` class that
    judges the cases, reading what right sides it can."""

    name: str
    arity: int
    cases: Callable[..., Cases]
    table: type


def check(law: Law, operands: Sequence[Data], probes: ProbeSet,
          ctx: Optional[Context] = None) -> Verdict:
    """Judge `law` on every tuple of `law.arity` probes, in product order.
    One engine per verdict, with a budget window per comparison; the first
    comparison that never agrees refutes, and exhaustion counts as undecided.
    The row's table judges each tuple's cases in one call, given the head
    definition of the left sides; associativity's reads need it to be strict
    in B, and without that `_Table` judges the cases."""
    left, rights = law.cases(*operands)
    undecided, checked = False, 0
    eng = Engine(ctx if ctx is not None else prelude(), probes.budget)
    lead = left(*probes.probes[:1] * law.arity)[0]  # every left side has this coda's head
    defn = eng.dispatch(lead)
    table = law.table
    if table is _Associative and (defn is None or "B" not in defn.strict):
        table = _Table
    judge = table(eng, lead, defn, probes.probes, left, rights).judge
    for n, used in enumerate(itertools.product(probes.probes, repeat=law.arity)):
        k, t = judge(n, used)
        checked += k
        if t is NEVER:
            return Verdict(REFUTED, law.name, checked, Witness(used, left(*used), rights[k - 1](*used)))
        undecided = undecided or t is UNSURE
    return Verdict(UNDECIDED if undecided else HOLDS, law.name, checked)


class _Table:
    """A verdict's judge.  `judge(n, used)` judges each case of tuple n, the
    probes `used`, and returns how many it judged with the first status
    that is not ALWAYS, or NEVER, which ends the tuple.  Every left side is
    a coda (d : X) whose d is that of `lead`.  `_open` evaluates one in a
    fresh window, passing it to `Engine.eval_coda` with d's head definition
    `defn`, as `eval_data` does unless d is empty or its head a fixed point:
    then the coda is its own normal form.  This class evaluates each right
    side after it (`_evaluated`); its subclasses first try to read it
    (`_reads`)."""

    __slots__ = ("eng", "d", "defn", "fires", "probes", "size", "left", "rights", "images", "rows")

    def __init__(self, eng: Engine, lead: Coda, defn: Optional[Definition],
                 probes: Tuple[Data, ...], left: Callable, rights: Tuple[Callable, ...]):
        self.eng, self.d, self.defn, self.probes, self.size = eng, lead.left, defn, probes, len(probes)
        self.fires = bool(lead.left) and (defn is None or defn.apply is not None)
        self.left, self.rights = left, rights
        self.images: List[Optional[tuple]] = [None] * self.size  # per probe; () if unreadable
        self.rows: Dict[int, MutableSequence] = {}  # per row of tuples, what later cases read

    def judge(self, n: int, used: Tuple[Data, ...]) -> Tuple[int, TriBool]:
        lhs, t = self.left(*used), ALWAYS
        here = self._open(lhs)
        for k, right in enumerate(self.rights, 1):
            u = self._evaluated(here[0] if k == 1 else self._again(lhs, here), right, used)
            if u is NEVER:
                return k, u
            if u is not ALWAYS:
                t = UNSURE
        return k, t

    def _open(self, lhs: Data) -> Tuple[Data, Optional[int], Optional[int]]:
        """The normal form of the left side `lhs` in a fresh window, and its
        charge, or None, None if it ended exhausted or after a def fired."""
        eng = self.eng
        eng.begin()
        steps, nodes = eng.steps, eng.nodes
        a = eng.eval_coda(lhs[0], self.defn) if self.fires else lhs
        if eng.exhausted or eng.context is not eng.base:
            return a, None, None
        return a, eng.steps - steps, eng.nodes - nodes

    def _again(self, lhs: Data, here: tuple) -> Data:
        """The normal form of the left side `lhs` in a fresh window, given
        `here`, what `_open` gave for it: the window is charged its steps
        and nodes, as evaluating it again would be, since the budget is the
        same and evaluation deterministic.  It is evaluated again only when
        `here` ended exhausted or after a def fired."""
        a, steps, nodes = here
        if steps is None:
            return self._open(lhs)[0]
        eng = self.eng
        eng.begin()
        eng.steps += steps
        eng.nodes += nodes
        return a

    def _reads(self, here: tuple, b: Data, steps: int, nodes: int) -> bool:
        """Whether reading the value `b` at the charge `steps`, `nodes`
        decides ALWAYS the case whose left side `_open` gave `here`."""
        a, s, n = here
        budget = self.eng.budget
        return s is not None and a == b and s + steps < budget.max_steps and n + nodes < budget.max_nodes

    def _evaluated(self, a: Data, right: Callable, used: tuple) -> TriBool:
        """The case judged by evaluating its right side after the left
        side's normal form `a`, in its window."""
        eng = self.eng
        t = eng.tri_compare(a, eng.eval_data(right(*used)))
        return UNSURE if eng.exhausted else t

    def _image(self, k: int) -> tuple:
        """Probe k's image x' = N(d : x) and its charge, in a window of its
        own, or () if it cannot be read."""
        image = self._open(apply_to(self.d, self.probes[k]))
        self.images[k] = image = () if image[1] is None else image
        return image


class _Associative(_Table):
    """Associativity's reads.  An image holds the position of x' as a probe
    that is its own normal form at no charge, and (d : x)'s charge; row i
    of `rows` lists its tuples' left sides that fired d's branch, charges
    included.  A left side that ended unexhausted in `eng.base` would end a
    fresh window there at the same normal form and charge, so both cases of
    a tuple read the first window's; a case that cannot read evaluates its
    right side after the left side, the second case in a fresh window
    charged from the first (`_again`)."""

    __slots__ = ("where", "readers")  # each probe's first position; each row's last reader

    def judge(self, n: int, used: Tuple[Data, ...]) -> Tuple[int, TriBool]:
        i, j = divmod(n, self.size)
        if not j:
            self._next_row(i)
        images, rows = self.images, self.rows
        x, lhs = images[i], self.left(*used)
        here = self._open(lhs)
        # a left side that moved fired d's branch: a stuck coda is its own normal form
        if here[1] is not None and here[0] != lhs:
            rows[i][j] = here
        there = x and rows.get(x[0])
        there = there and there[j]
        t = ALWAYS
        if not (there and self._reads(here, there[0], there[1] + x[1], there[2] + x[2])):
            t = self._evaluated(here[0], self.rights[0], used)
            if t is NEVER:
                return 1, t
        y = images[j]
        if y is None:
            y = self._image(j)
        there = y and rows[i][y[0]]
        if there and self._reads(here, there[0], there[1] + y[1], there[2] + y[2]):
            return 2, t
        u = self._evaluated(self._again(lhs, here), self.rights[1], used)
        return 2, u if u is NEVER or t is ALWAYS else t

    def _image(self, k: int) -> tuple:
        image = _Table._image(self, k)
        at = self.where.get(image[0]) if image else None
        if at is not None:  # is x' a probe that is its own normal form at no charge?
            eng, x = self.eng, image[0]
            eng.begin()
            steps, nodes = eng.steps, eng.nodes
            if eng.eval_data(x) != x or eng.exhausted or (eng.steps, eng.nodes) != (steps, nodes):
                at = None
        self.images[k] = image = () if at is None else (at, image[1], image[2])
        return image

    def _next_row(self, i: int) -> None:
        """Start row i, dropping the rows that neither it nor a later row
        reads.  Row 0 finds every image, each before its first case."""
        if not i:
            self.where = {p: k for k, p in reversed(tuple(enumerate(self.probes)))}
            self._image(0)
        else:
            if i == 1:
                self.readers = {im[0]: k for k, im in enumerate(self.images) if im and im[0] < k}
            self.rows = {r: row for r, row in self.rows.items() if self.readers.get(r, -1) >= i}
        self.rows[i] = [None] * self.size


class _Mirrored(_Table):
    """Commutativity's reads: row x of `rows` marks each (x, y) that decides (y, x)."""

    __slots__ = ()

    def judge(self, n: int, used: Tuple[Data, ...]) -> Tuple[int, TriBool]:
        i, j = divmod(n, self.size)
        eng, rows = self.eng, self.rows
        if not j:
            rows[i] = bytearray(self.size)
        if i > j and rows[j][i]:
            return 1, ALWAYS
        here = self._open(self.left(*used))
        if i == j and self._reads(here, *here):
            return 1, ALWAYS
        t = self._evaluated(here[0], self.rights[0], used)  # ALWAYS: equal and unexhausted
        if (i < j and t is ALWAYS and eng.context is eng.base
                and eng.steps < eng.max_steps and eng.nodes < eng.max_nodes):
            rows[i][j] = True
        return 1, t


class _Images(_Table):
    """Distributivity's read."""

    __slots__ = ()

    def judge(self, n: int, used: Tuple[Data, ...]) -> Tuple[int, TriBool]:
        i, j = divmod(n, self.size)
        images = self.images
        y = images[j]
        if y is None:  # each image is found in row 0, image 0 first
            y = self._image(j)
        x, here = images[i], self._open(self.left(*used))
        if x and y and self._reads(here, x[0] + y[0], x[1] + y[1], x[2] + y[2]):
            return 1, ALWAYS
        return 1, self._evaluated(here[0], self.rights[0], used)


def _on_each_probe(lhs: Data, rhs: Data) -> Cases:
    """lhs : X versus rhs : X for a single probe X."""
    return functools.partial(apply_to, lhs), (functools.partial(apply_to, rhs),)


def _on_pairs(d: Data) -> Callable:
    """The builder of (d : X Y)."""
    return lambda x, y: apply_to(d, x + y)


def _associative_cases(d: Data) -> Cases:
    at = functools.cache(functools.partial(apply_to, d))  # each (d : x) once per verdict
    return _on_pairs(d), (lambda x, y: apply_to(d, at(x) + y), lambda x, y: apply_to(d, x + at(y)))


def _distributive_cases(d: Data) -> Cases:
    at = functools.cache(functools.partial(apply_to, d))
    return _on_pairs(d), (lambda x, y: at(x) + at(y),)


IDEMPOTENT = Law("idempotent", 1, lambda d: _on_each_probe(product(d, d), d), _Table)
ASSOCIATIVE = Law("associative", 2, _associative_cases, _Associative)
ALGEBRAIC = Law("algebraic", 2, lambda d: (_on_pairs(d), (lambda x, y: apply_to(d, y + x),)), _Mirrored)
DISTRIBUTIVE = Law("distributive", 2, _distributive_cases, _Images)
RIGHT_DISTRIBUTIVITY = Law("right-distributivity", 1, lambda a, b, c: _on_each_probe(
    product(sum_data(a, b), c), sum_data(product(a, c), product(b, c))), _Table)
LEFT_DISTRIBUTIVITY = Law("left-distributivity", 1, lambda a, b, c: _on_each_probe(
    product(c, sum_data(a, b)), sum_data(product(c, a), product(c, b))), _Table)


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
