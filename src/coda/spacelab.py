"""Finite-space analysis: carriers, endomorphism semirings, classification.

A space S induces a monoid on the normal forms (S:X): the carrier.  Once the
carrier is finite (or truncated), endomorphisms become plain endofunctions of
the element set.  The classification (constants, homomorphisms, units,
central maps, idempotents, subspaces, quotients) is decided by exhaustive
checks over the tables.  The product and sum tables are filled a row at a
time: the results of f with every listed g are looked up by their
mixed-radix index, which C-level maps compute down the list's columns.  The
homomorphism and subspace laws are each stated once, as equations over a
partial map.  Settled on one complete map they decide the law; propagated
over partial maps in a depth-first search they list the maps that satisfy
it, visiting far fewer than the n^n endofunctions, under one work bound
(`homomorphisms`, the field criteria and `iso_check`).

An endomorphism is a tuple of element indices: `f[i]` is the index of the
image of element i.  On the two-element bool carrier, for instance,
`enumerate_endos` lists (0, 0), (0, 1), (1, 0), (1, 1), so the identity is
`report.endos[1] == (0, 1)`.

Carriers come from two directions: extraction through the rewriting engine,
or directly from a Python-level addition function when an independent oracle
(mod-n arithmetic, saturation, and so on) is wanted.  `closed` is derived
from the table: no sum is None.  Each cap is set by a constant here; work past
one raises a subclass of `terms.CapExceeded`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import HOLDS, REFUTED, ProbeSet, Verdict, default_probes
from .encoding import word
from .engine import Context, Engine
from .lang import render
from .prelude import prelude
from .terms import CapExceeded, Coda, Data, data_key

DEFAULT_CARRIER_CAP = 64
DEFAULT_ENDO_CAP = 5 ** 5
SEARCH_WORK_CAP = 2 ** 25  # per map search: equation pairs read, plus n per map visited


class CarrierOverflow(CapExceeded):
    """More distinct carrier elements than the cap allows."""


class TooManyEndos(CapExceeded):
    """Too many endofunctions to list, or a map search past its work bound."""


class NotAHomomorphism(Exception):
    pass


@dataclass(frozen=True)
class CarrierTable:
    """Elements in canonical order with the induced addition table.

    `add[i][j]` is the index of element_i + element_j, or None when the sum
    left the extracted set (only possible for open, truncated carriers).
    """

    elements: Tuple[Data, ...]
    neutral: int
    add: Tuple[Tuple[Optional[int], ...], ...]
    labels: Optional[Tuple[str, ...]] = None

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def closed(self) -> bool:
        return all(None not in row for row in self.add)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return render(self.elements[i])

    def index_of(self, d: Data) -> Optional[int]:
        d = tuple(d)
        return next((i for i, e in enumerate(self.elements) if e == d), None)


def _normalize(eng: Engine, space: Data, x: Data) -> Optional[Data]:
    """The normal form of (space : x) in a fresh budget window of `eng`, or
    None if it exhausts the budget."""
    eng.begin()
    out = eng.eval_data((Coda(space, x),))
    return None if eng.exhausted else out


def extract_carrier(
    space: Data,
    probes: Optional[ProbeSet] = None,
    cap: int = DEFAULT_CARRIER_CAP,
    ctx: Optional[Context] = None,
    on_overflow: str = "open",
) -> CarrierTable:
    """Distinct normal forms of (space : probe), closed under the sum.

    The normal forms of the neutral and the probes are always kept; `cap`
    bounds only the elements that sums add.  A sum past the cap, or one that
    exhausts the probes' budget, is None in the table; on_overflow="raise"
    turns the cap into CarrierOverflow.
    """
    probes = probes if probes is not None else default_probes()
    space = tuple(space)
    eng = Engine(ctx if ctx is not None else prelude(), probes.budget)

    neutral_elem = _normalize(eng, space, ())
    if neutral_elem is None:
        raise CarrierOverflow("budget exhausted while normalizing the neutral")
    found: List[Data] = [neutral_elem]  # the elements, numbered as found
    number: Dict[Data, int] = {neutral_elem: 0}
    for p in probes.probes:
        e = _normalize(eng, space, p)
        if e is not None and e not in number:
            number[e] = len(found)
            found.append(e)

    # every element enters one frontier and is summed there, both ways, with
    # every element found before its turn, skipping the pairs an earlier turn
    # summed; so each ordered pair is normalised once, and `sums` ends up
    # holding every pair: the number of the sum, or None
    sums: Dict[Tuple[int, int], Optional[int]] = {}
    frontier = range(len(found))
    while frontier:
        start = len(found)
        for x in frontier:
            for y in range(len(found)):
                for a, b in ((x, y), (y, x)):
                    if (a, b) in sums:
                        continue
                    s = _normalize(eng, space, found[a] + found[b])
                    k = None if s is None else number.get(s)
                    if s is not None and k is None:
                        if len(found) >= cap:
                            if on_overflow == "raise":
                                raise CarrierOverflow(f"more than {cap} carrier elements")
                        else:
                            k = number[s] = len(found)
                            found.append(s)
                    sums[a, b] = k
        frontier = range(start, len(found))

    order = sorted(range(len(found)), key=lambda i: data_key(found[i]))
    rank = {i: r for r, i in enumerate(order)}
    table = tuple(tuple(rank.get(sums[x, y]) for y in order) for x in order)
    return CarrierTable(elements=tuple(found[i] for i in order), neutral=rank[0], add=table)


def carrier_from_function(
    values: Sequence,
    add: Callable,
    neutral,
    to_data: Optional[Callable] = None,
    labels: Optional[Sequence[str]] = None,
) -> CarrierTable:
    """Oracle carrier: elements and addition supplied as plain Python.

    `add` may return a value outside `values` (or None) to leave an entry
    undefined, which makes the carrier open.
    """
    values = list(values)
    if to_data is None:
        to_data = lambda v: (word(str(v)),)
    index = {v: i for i, v in enumerate(values)}
    return CarrierTable(
        elements=tuple(tuple(to_data(v)) for v in values),
        neutral=index[neutral],
        add=tuple(tuple(index.get(add(x, y)) for y in values) for x in values),
        labels=tuple(labels) if labels is not None else tuple(str(v) for v in values),
    )


def zn_carrier(n: int) -> CarrierTable:
    """Integers modulo n under addition."""
    return carrier_from_function(range(n), lambda x, y: (x + y) % n, 0)


def saturation_carrier(q: int) -> CarrierTable:
    """{0..q-1} with addition clamped at q-1."""
    return carrier_from_function(range(q), lambda x, y: min(x + y, q - 1), 0)


def check_carrier_monoid(c: CarrierTable) -> bool:
    """Neutral unit laws and associativity wherever the table is defined."""
    n = c.size
    for i in range(n):
        if c.add[c.neutral][i] != i or c.add[i][c.neutral] != i:
            return False
    for i in range(n):
        for j in range(n):
            ij = c.add[i][j]
            for k in range(n):
                jk = c.add[j][k]
                if ij is None or jk is None:
                    continue
                left = c.add[ij][k]
                right = c.add[i][jk]
                if left is not None and right is not None and left != right:
                    return False
    return True


# ---------------------------------------------------------------------------
# Endomorphisms

Endo = Tuple[int, ...]


def identity_endo(c: CarrierTable) -> Endo:
    return tuple(range(c.size))


def constant_endo(c: CarrierTable, k: int) -> Endo:
    return (k,) * c.size


def zero_endo(c: CarrierTable) -> Endo:
    return constant_endo(c, c.neutral)


def compose(f: Endo, g: Endo) -> Endo:
    """f after g."""
    return tuple(map(f.__getitem__, g))


def oplus(f: Endo, g: Endo, c: CarrierTable) -> Optional[Endo]:
    """Pointwise sum; None when the carrier's table is missing an entry."""
    out = tuple(c.add[a][b] for a, b in zip(f, g))
    return None if None in out else out


def enumerate_endos(c: CarrierTable, cap: int = DEFAULT_ENDO_CAP) -> List[Endo]:
    n = c.size
    if n ** n > cap:
        raise TooManyEndos(f"{n}^{n} endofunctions exceed cap {cap}")
    return list(itertools.product(range(n), repeat=n))


def is_constant(f: Endo) -> bool:
    return len(set(f)) <= 1


# ---------------------------------------------------------------------------
# Laws on maps: each is stated once, as equations over a partial map f (None
# for an image not yet assigned), a function of f that yields the (position,
# value) pairs that every map satisfying the law and extending f must have.

def _hom_equations(a, b):
    """f[i + j] = f[i] + f[j], the left sum in table a and the right one in
    b, for every known i and j; a pair with an undefined sum states nothing
    but is still read, so that the search counts its work."""
    def equations(f):
        known = [i for i, v in enumerate(f) if v is not None]
        for i in known:
            image_row = b[f[i]]
            for j in known:
                yield a[i][j], image_row[f[j]]
    return equations


def _subspace_equations(add):
    """f[f[i]] = f[i], and f[x+y] = f[f[x]+y] = f[x+f[y]] wherever one side
    of such an equation is known.  A candidate with an undefined sum or with
    neither side known states nothing but is still read, as in
    `_hom_equations`."""
    def equations(f):
        for i, v in enumerate(f):
            if v is None:
                continue
            yield v, v
            for y, (iy, vy) in enumerate(zip(add[i], add[v])):
                for p, q in ((iy, vy), (add[y][i], add[y][v])):
                    if p is None or q is None:
                        yield None, None
                    elif f[p] is not None:
                        yield q, f[p]
                    else:
                        yield p, f[q]
    return equations


def _settle(f: List[Optional[int]], equations) -> Tuple[bool, int]:
    """Assign what `equations(f)` implies until nothing changes, skipping
    pairs with None; not settled when it implies two values for one
    position.  Returns whether f settled and how many pairs it read.  The
    equations must state only what the law implies, so that no map
    satisfying the law is rejected; on a complete map they must state the
    whole law, so that settling it decides the law."""
    read = 0
    changed = True
    while changed:
        changed = False
        for read, (p, v) in enumerate(equations(f), read + 1):
            if p is None or v is None:
                continue
            if f[p] is None:
                f[p] = v
                changed = True
            elif f[p] != v:
                return False, read
    return True, read


def _solutions(f: List[Optional[int]], equations, injective: bool) -> Iterator[Endo]:
    """Every map that extends the partial map f and settles, in
    lexicographic order: depth-first over the unassigned positions, values
    ascending, pruning every partial map whose equations contradict each
    other or, when `injective`, that repeats an image.  The work is the
    pairs `_settle` reads plus n per map visited; past SEARCH_WORK_CAP it
    raises TooManyEndos."""
    n, work = len(f), 0
    stack = [f]
    while stack:
        f = stack.pop()
        settled, read = _settle(f, equations)
        work += read + n
        if work > SEARCH_WORK_CAP:
            raise TooManyEndos(f"map search past {SEARCH_WORK_CAP} units of work")
        images = [v for v in f if v is not None] if injective else ()
        if not settled or len(set(images)) < len(images):
            continue
        if None not in f:
            yield tuple(f)
            continue
        i = f.index(None)
        for v in reversed(range(n)):
            if v not in images:
                stack.append(f[:i] + [v] + f[i + 1:])


def homomorphisms(c: CarrierTable) -> Iterator[Endo]:
    """Every endofunction with f[i + j] = f[i] + f[j] wherever both sums
    are defined, in lexicographic order, found by search, not by testing
    all n^n maps."""
    return _solutions([None] * c.size, _hom_equations(c.add, c.add), False)


def is_homomorphism(f: Endo, c: CarrierTable) -> bool:
    return _settle(list(f), _hom_equations(c.add, c.add))[0]


def inverse_of(f: Endo) -> Optional[Endo]:
    if len(set(f)) != len(f):
        return None
    inv = [0] * len(f)
    for i, v in enumerate(f):
        inv[v] = i
    return tuple(inv)


def is_idempotent(f: Endo) -> bool:
    return compose(f, f) == f


def is_subspace(f: Endo, c: CarrierTable) -> bool:
    """Idempotent and compatible with the sum in the sense
    f(x+y) = f(f(x)+y) = f(x+f(y)) wherever defined."""
    return _settle(list(f), _subspace_equations(c.add))[0]


def is_cancellative(c: CarrierTable) -> bool:
    """Left and right cancellation of the carrier sum: no row or column
    repeats a defined sum."""
    for seq in itertools.chain(c.add, zip(*c.add)):
        defined = [v for v in seq if v is not None]
        if len(defined) != len(set(defined)):
            return False
    return True


def is_commutative(c: CarrierTable) -> bool:
    """i + j = j + i wherever both sums are defined."""
    return all(a == b or a is None or b is None
               for row, col in zip(c.add, zip(*c.add)) for a, b in zip(row, col))


# ---------------------------------------------------------------------------
# Classification

@dataclass
class EndoFlags:
    constant: bool
    homomorphism: bool
    unit: bool
    central: bool
    idempotent: bool
    subspace: bool


@dataclass
class SemiringReport:
    carrier: CarrierTable
    endos: List[Endo]
    flags: List[EndoFlags]
    identity: int
    zero: int
    product_table: List[List[Optional[int]]]
    sum_table: List[List[Optional[int]]]
    neutral_space: bool
    algebraic: bool
    semilattice: bool
    field: Optional[Tuple[bool, bool]]

    def units(self) -> List[int]:
        return [i for i, f in enumerate(self.flags) if f.unit]

    def constants(self) -> List[int]:
        return [i for i, f in enumerate(self.flags) if f.constant]

    def homomorphisms(self) -> List[int]:
        return [i for i, f in enumerate(self.flags) if f.homomorphism]

    def subspaces(self) -> List[int]:
        return [i for i, f in enumerate(self.flags) if f.subspace]

    def endo_name(self, i: int) -> str:
        return "".join(self.carrier.label(v) for v in self.endos[i])


def classify(c: CarrierTable, endos: Sequence[Endo]) -> SemiringReport:
    endos = list(endos)
    n = c.size
    if not all(isinstance(f, tuple) and len(f) == n for f in endos) or not (
        set(itertools.chain.from_iterable(endos)) <= set(range(n))
    ):
        raise ValueError(f"every endo must be a tuple of {n} indices in range({n})")
    pos = {e: i for i, e in enumerate(endos)}
    if len(pos) != len(endos):
        raise ValueError("endo list must not repeat an endo")
    ident = identity_endo(c)
    zero = zero_endo(c)
    if ident not in pos or zero not in pos:
        raise ValueError("endo list must contain the identity and zero maps")

    # An endo's mixed-radix index weighs position i by n^(n-1-i).  In row f,
    # the index of f.g is the sum of w_i * f[g[i]] and that of f+g the sum of
    # w_i * add[f[i]][g[i]]: n small image lists read down the list's
    # columns.  An undefined sum weighs -n^n, so its index matches no endo.
    weights = [n ** (n - 1 - i) for i in range(n)]
    undefined = -(n ** n)
    at = {sum(map(operator.mul, weights, f)): i for i, f in enumerate(endos)}.get
    columns = list(zip(*endos))

    def row(images) -> List[Optional[int]]:
        terms = map(map, [img.__getitem__ for img in images], columns)
        return list(map(at, functools.reduce(functools.partial(map, operator.add), terms)))

    product_table = []
    sum_table = []
    for f in endos:
        product_table.append(row([[w * v for v in f] for w in weights]))
        sum_table.append(row([
            [undefined if s is None else w * s for s in c.add[v]]
            for w, v in zip(weights, f)
        ]))

    is_unit = [inverse_of(f) in pos for f in endos]
    units = [f for f, unit in zip(endos, is_unit) if unit]
    flags = [
        EndoFlags(
            constant=is_constant(f),
            homomorphism=is_homomorphism(f, c),
            unit=is_unit[i],
            central=all(compose(f, u) == compose(u, f) for u in units),
            idempotent=product_table[i][i] == i,
            subspace=is_subspace(f, c),
        )
        for i, f in enumerate(endos)
    ]

    algebraic = is_commutative(c)
    semilattice = algebraic and all(
        c.add[i][i] == i for i in range(c.size) if c.add[i][i] is not None
    )
    try:
        field = field_check(c)
    except TooManyEndos:
        field = None
    return SemiringReport(
        carrier=c,
        endos=endos,
        flags=flags,
        identity=pos[ident],
        zero=pos[zero],
        product_table=product_table,
        sum_table=sum_table,
        neutral_space=is_cancellative(c),
        algebraic=algebraic,
        semilattice=semilattice,
        field=field,
    )


def field_check(c: CarrierTable) -> Tuple[bool, bool]:
    """Two independent field criteria; they should always agree.

    First: every proper subspace endofunction is constant.  Second: every
    non-constant homomorphism is a unit (a bijection).  Each searches the
    maps that satisfy its law and stops at the first counterexample.  A
    search past SEARCH_WORK_CAP raises TooManyEndos, and then `classify`
    and `coda space analyze` report no field verdict.
    """
    n = c.size
    ident = tuple(range(n))
    subspaces_ok = not any(len(set(m)) > 1 and m != ident
                           for m in _solutions([None] * n, _subspace_equations(c.add), False))
    homs_ok = not any(1 < len(set(m)) < n for m in homomorphisms(c))
    return subspaces_ok, homs_ok


def quotient_of_hom(h: Endo, c: CarrierTable) -> Endo:
    """The idempotent with the same fibers as h, picking the canonically
    smallest element of each fiber as representative."""
    if not is_homomorphism(h, c):
        raise NotAHomomorphism(f"endo {h} does not preserve the sum")
    fibers: Dict[int, List[int]] = {}
    for i, v in enumerate(h):
        fibers.setdefault(v, []).append(i)
    rep = {
        v: min(members, key=lambda i: data_key(c.elements[i]))
        for v, members in fibers.items()
    }
    return tuple(rep[v] for v in h)


def verify_semialgebra(
    c: CarrierTable,
    mapping: Dict[int, Endo],
    units: Optional[Sequence[Endo]] = None,
) -> Verdict:
    """Check a constants-to-homomorphisms assignment: total on the listed
    constants, injective, every image a homomorphism, and, when `units` are
    given, every image central (commuting with each unit)."""
    checked = 0
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return Verdict(REFUTED, "semialgebra-injective", len(images))
    for k, h in mapping.items():
        checked += 1
        if not is_homomorphism(h, c):
            return Verdict(REFUTED, "semialgebra-homomorphism", checked)
        if units is not None and any(compose(h, u) != compose(u, h) for u in units):
            return Verdict(REFUTED, "semialgebra-central", checked)
    return Verdict(HOLDS, "semialgebra", checked)


# ---------------------------------------------------------------------------
# Isomorphism

def isomorphisms(c1: CarrierTable, c2: CarrierTable) -> Iterator[Endo]:
    """Every monoid isomorphism from c1 to c2 in lexicographic order, as a
    bijection p of element indices: p sends the neutral to the neutral and
    i + j to p[i] + p[j] wherever both sums are defined.  Found by search,
    with the neutral's image fixed and no image repeated."""
    if c1.size == c2.size:
        p = [None] * c1.size
        p[c1.neutral] = c2.neutral
        yield from _solutions(p, _hom_equations(c1.add, c2.add), True)


def iso_check(c1: CarrierTable, c2: CarrierTable) -> Optional[Endo]:
    """The first monoid isomorphism from c1 to c2, or None when there is
    none.  A search past SEARCH_WORK_CAP raises TooManyEndos."""
    return next(isomorphisms(c1, c2), None)


# ---------------------------------------------------------------------------
# Rendering

def render_table(
    report: SemiringReport,
    which: str = "product",
    names: Optional[Sequence[str]] = None,
    fmt: str = "text",
) -> str:
    """One operation table, header row and column, aligned text or TSV."""
    table = report.product_table if which == "product" else report.sum_table
    corner = "f.g" if which == "product" else "f+g"
    if names is None:
        names = [report.endo_name(i) for i in range(len(report.endos))]
    label = {None: "?", **dict(enumerate(names))}
    cells = [[corner, *names]]
    for name, row in zip(names, table):
        cells.append([name, *map(label.__getitem__, row)])
    if fmt == "tsv":
        return "\n".join("\t".join(r) for r in cells)
    widths = [max(map(len, col)) for col in zip(*cells)]
    lines = [" | ".join(map(str.ljust, row, widths)) for row in cells]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def render_report(report: SemiringReport, fmt: str = "text") -> str:
    c = report.carrier
    names = [report.endo_name(i) for i in range(len(report.endos))]
    if fmt == "tsv":
        rows = [
            ["elements", *(c.label(i) for i in range(c.size))],
            ["neutral", c.label(c.neutral)],
            ["closed", str(c.closed)],
            ["endos", str(len(report.endos))],
            ["units", *(names[i] for i in report.units())],
            ["constants", *(names[i] for i in report.constants())],
            ["homomorphisms", *(names[i] for i in report.homomorphisms())],
            ["subspaces", *(names[i] for i in report.subspaces())],
            ["neutral_space", str(report.neutral_space)],
            ["algebraic", str(report.algebraic)],
            ["semilattice", str(report.semilattice)],
            ["field", *map(str, report.field or [None])],
        ]
        out = ["\n".join("\t".join(r) for r in rows)]
        out.append(render_table(report, "product", names, fmt))
        out.append(render_table(report, "sum", names, fmt))
        return "\n".join(out)
    lines = [
        "elements: " + " ".join(c.label(i) for i in range(c.size)),
        f"neutral: {c.label(c.neutral)}    closed: {c.closed}",
        f"endomorphisms: {len(report.endos)}",
        "units: " + " ".join(names[i] for i in report.units()),
        "constants: " + " ".join(names[i] for i in report.constants()),
        "homomorphisms: " + " ".join(names[i] for i in report.homomorphisms()),
        "subspaces: " + " ".join(names[i] for i in report.subspaces()),
        f"neutral space: {report.neutral_space}    algebraic: {report.algebraic}"
        f"    semilattice: {report.semilattice}",
        f"field (subspace criterion, unit criterion): {report.field}",
        "",
        render_table(report, "product", names),
        "",
        render_table(report, "sum", names),
    ]
    return "\n".join(lines)
