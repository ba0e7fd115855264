"""Finite-space analysis: carriers, endomorphism semirings, classification.

A space S induces a monoid on the normal forms (S:X): the carrier.  Once the
carrier is finite (or truncated), endomorphisms become plain endofunctions of
the element set.  The classification (constants, homomorphisms, units,
central maps, idempotents, subspaces) is decided by exhaustive checks over
the maps.  The product and sum tables hold no grid: a row is filled when it
is first read, the results of f with every listed g computed by byte
translations of the list's packed images and looked up by their packed
bytes, so `classify` takes carriers of at most 255 elements.  A rendered
table is printed straight from each row's fill.  The homomorphism and
subspace laws are each stated once, as equations over a partial map.
Settled on one complete map they decide the law; propagated over partial
maps in one depth-first search under one work bound, they list the maps that
satisfy it, far fewer than all.  Its entry point is Hom(A, B),
`homomorphisms(a, b)`: End(A) is `homomorphisms(a, a)`, and `isomorphisms`
is its injective case.

An endomorphism is a tuple of element indices: `f[i]` is the index of the
image of element i.  On the two-element bool carrier, for instance,
`enumerate_endos` lists (0, 0), (0, 1), (1, 0), (1, 1), so the identity is
`report.endos[1] == (0, 1)`.

Carriers are extracted through the rewriting engine: Z_n is the carrier of
`while remove a^n`, and saturation at q-1 that of `first q-1`.  A table that
no extraction gives, such as a truncation whose sums past its top are
undefined, comes from a Python addition by `carrier_from_function`, where
None is a sum the function left undefined.  `closed` is derived from the
table: no sum is None.  Each cap is set by a constant here; work past one
raises a subclass of `terms.CapExceeded`, so extraction past its cap refuses.

Extraction reads a space as the paper defines it, associative data with the
neutral as identity, so its carrier is a monoid.  It walks the right Cayley
graph over a few generators, taken in canonical order (Froidure & Pin,
1997), about n·g normalisations for n elements and g generators, and reads
every other sum from the graph.  The neutral's identity laws are then
checked on every element, and associativity by Light's test over the
generators.  Data that fails a law is no space: it raises NotASpace, whose
witness re-checks in a fresh engine.  A law fails only where the engine
refutes it: a sum that exhausts, or normal forms that three-valued equality
cannot tell apart, fail nothing.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import ProbeSet, Witness, apply_to, default_probes
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


class NotASpace(Exception):
    """Data whose carrier breaks a monoid law.  `witness` is an
    `algebra.Witness`: two forms that the law equates, which
    `witness.still_violates()` normalises apart in a fresh engine."""

    def __init__(self, law: str, witness: Witness):
        super().__init__(f"{law} fails: {render(witness.lhs)} is not {render(witness.rhs)}")
        self.witness = witness


@dataclass(frozen=True)
class CarrierTable:
    """Elements in canonical order with the induced addition table.

    `add[i][j]` is the index of element_i + element_j, or None when the sum
    exhausted the budget (an extracted table) or is undefined (a
    `carrier_from_function` table); either makes the carrier open.
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


def _cayley_graph(space: Data, normal: Callable[[Data], Optional[Data]], refute: Callable,
                  found: Sequence[Data], cap: int):
    """The right Cayley graph (Froidure & Pin, 1997) of the monoid that
    `found[1:]` generate over the neutral `found[0]`.  Elements past `cap`
    raise CarrierOverflow, and e g other than g, for the neutral e and a
    generator g, is passed to `refute`.  An exhausted normalisation is a
    None edge, which the walk does not follow.

    The elements of `found` are taken in canonical order (`data_key`, so
    shorter data first); one that earlier generators reach is skipped, any
    other becomes a generator, reached by its one-letter word.  Every
    element reached so far is extended by it, one normalisation of x g
    each, and every element reached anew by every generator.  Returns the
    elements, the generators, the elements in the order reached, `parent[y]
    = (x, k)` when y was first reached as x + gens[k], which keeps y's
    word, and `edges[x][k]`, the number of x + gens[k]."""
    found = list(found)
    number = {e: i for i, e in enumerate(found)}
    gens: List[int] = []
    reached = [0]
    parent: Dict[int, Optional[Tuple[int, int]]] = {0: None}
    edges: List[List[Optional[int]]] = [[] for _ in found]
    for g in sorted(range(1, len(found)), key=lambda i: data_key(found[i])):
        if g in parent:
            continue
        parent[g] = (0, len(gens))
        reached.append(g)
        gens.append(g)
        for x in reached:  # `reached` grows as it is read, so new elements are extended too
            for k in range(len(edges[x]), len(gens)):
                h = found[gens[k]]
                s = normal(found[x] + h)
                y = number.get(s)
                if y is None and s is not None:
                    if len(found) >= cap:
                        raise CarrierOverflow(f"more than {cap} carrier elements")
                    y = number[s] = len(found)
                    found.append(s)
                    edges.append([])
                if x == 0 and y not in (None, gens[k]):
                    e = found[0]
                    refute("left identity", Witness((e, h), apply_to(space, e + h), h))
                if y is not None and y not in parent:
                    parent[y] = (x, k)
                    reached.append(y)
                edges[x].append(y)
    return found, gens, reached, parent, edges


def _light(add: Sequence[Sequence[Optional[int]]], gens: Sequence[int]):
    """Light's associativity test (Clifford & Preston, 1961): the first
    (x, g, y), for g in `gens`, at which (x + g) + y and x + (g + y) are both
    defined and differ, or None.  When `gens` generate the elements, None
    means that the table is associative wherever it is defined.  The
    column g + y is read from each row at once, by one `itemgetter`."""
    n = len(add)
    rows = [(*row, None) for row in add]  # index n reads an undefined sum
    for g in gens:
        column = operator.itemgetter(*(n if gy is None else gy for gy in add[g]))
        for x, row in enumerate(rows):
            if row[g] is not None and rows[row[g]][:n] != column(row):
                for y, (a, b) in enumerate(zip(rows[row[g]], column(row))):
                    if a != b and a is not None and b is not None:
                        return x, g, y
    return None


def _associativity_witness(space, normal, found, add, gens, parent, x, g, y) -> Witness:
    """(space : (space : u v) w) against (space : u (space : v w)), where
    Light's test fails at (x, g, y).  u, v, w are x, g, y unless the table
    read one of those sums, a + b, along b's word to other than the
    engine's normal form.  Then they are a, b's prefix p and the generator
    after it, at the first step of the word whose sum differs: a + p is the
    engine's there, as a + e = a, and (a + p) + h is one edge."""
    def witness(u, v, w):
        u, v, w = found[u], found[v], found[w]
        return Witness((u, v, w), apply_to(space, apply_to(space, u + v) + w),
                       apply_to(space, u + apply_to(space, v + w)))

    for a, b in ((g, y), (add[x][g], y), (x, add[g][y])):
        path = [b]  # b's prefixes, b first
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]][0])
        for p, q in zip(path[::-1], path[-2::-1]):
            if found[add[a][q]] != normal(found[a] + found[q]):
                return witness(a, p, gens[parent[q][1]])
    return witness(x, g, y)


def extract_carrier(
    space: Data,
    probes: Optional[ProbeSet] = None,
    cap: int = DEFAULT_CARRIER_CAP,
    ctx: Optional[Context] = None,
) -> CarrierTable:
    """The monoid of the distinct normal forms of (space : probe).

    The normal forms of the neutral and the probes are always kept; `cap`
    bounds only the elements that sums add: a sum past it raises
    CarrierOverflow.  Each datum is normalised once: `normal` is a cache.
    x + y is read along y's word in the walk (`_cayley_graph`), one edge
    per generator; the identity laws are normalised in the engine, and
    Light's test reads the table.  A law fails, raising NotASpace, when a
    fresh engine tells its witness's two sides apart (`refute`).  A None
    sum exhausted the probes' budget, or was read through one that did; an
    identity law whose sum exhausts fails nothing, and its sum is None.
    Light's test is exact for the table; that the table holds the engine's
    sums needs the space to be associative, which `algebra` judges on probes.
    """
    probes = probes if probes is not None else default_probes()
    space = tuple(space)
    ctx = ctx if ctx is not None else prelude()
    eng = Engine(ctx, probes.budget)

    @functools.cache  # each datum once per extraction
    def normal(x: Data) -> Optional[Data]:
        return _normalize(eng, space, x)

    def refute(law: str, witness: Witness) -> None:
        if witness.still_violates(ctx):
            raise NotASpace(law, witness)

    if normal(()) is None:
        raise CarrierOverflow("budget exhausted while normalizing the neutral")
    # the elements, numbered as found: the neutral's normal form first
    found = [e for e in dict.fromkeys(map(normal, ((), *probes.probes))) if e is not None]
    found, gens, reached, parent, edges = _cayley_graph(space, normal, refute, found, cap)
    add = [[x] * len(found) for x in range(len(found))]
    for row in add:
        for y in reached[1:]:
            p, k = parent[y]
            row[y] = None if row[p] is None else edges[row[p]][k]
    exhausted = []
    for i, d in enumerate(found):
        for law, x, y in (("right identity", i, 0), ("left identity", 0, i)):
            u, v = found[x], found[y]
            if normal(u + v) is None:
                exhausted.append((x, y))
            elif normal(u + v) != d:
                refute(law, Witness((u, v), apply_to(space, u + v), d))
    bad = _light(add, gens)
    if bad is not None:
        refute("associativity",
               _associativity_witness(space, normal, found, add, gens, parent, *bad))
    for x, y in exhausted:
        add[x][y] = None
    order = sorted(range(len(found)), key=lambda i: data_key(found[i]))
    rank = {i: r for r, i in enumerate(order)}
    table = tuple(tuple(rank.get(add[x][y]) for y in order) for x in order)
    return CarrierTable(elements=tuple(found[i] for i in order), neutral=rank[0], add=table)


def carrier_from_function(
    values: Sequence,
    add: Callable,
    neutral,
    to_data: Optional[Callable] = None,
    labels: Optional[Sequence[str]] = None,
) -> CarrierTable:
    """A carrier whose elements and addition are plain Python: a table that
    no extraction gives.

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


def _counting_carrier(arg: str, n: int, space: Data) -> CarrierTable:
    """The carrier of n elements a^k that `space` extracts over the probe a,
    each labelled by its count k.  n < 1 is a ValueError naming `arg`."""
    if n < 1:
        raise ValueError(f"{arg} must be at least 1, not {n}")
    c = extract_carrier(space, ProbeSet(((word("a"),),)), cap=n)
    return replace(c, labels=tuple(str(len(e)) for e in c.elements))


def zn_carrier(n: int) -> CarrierTable:
    """Integers modulo n under addition: the carrier of `while remove a^n`."""
    return _counting_carrier("n", n, (word("while"), word("remove")) + (word("a"),) * n)


def saturation_carrier(q: int) -> CarrierTable:
    """{0..q-1} with addition clamped at q-1: the carrier of `first q-1`."""
    return _counting_carrier("q", q, (word("first"), word(str(q - 1))))


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


def induced_endo(c: CarrierTable, program: Data) -> Endo:
    """The map that the data `program` induces on the carrier: element i
    goes to the normal form of (program : element_i), each in its own budget
    window of one engine.  An image that exhausts the budget, or that is not
    an element, raises ValueError."""
    program = tuple(program)
    eng = Engine(prelude())
    images = []
    for x in c.elements:
        out = _normalize(eng, program, x)
        if out is None:
            raise ValueError(f"({render(program)} : {render(x)}) exhausts the budget")
        k = c.index_of(out)
        if k is None:
            raise ValueError(f"({render(program)} : {render(x)}) is {render(out)}, not an element")
        images.append(k)
    return tuple(images)


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


def _solutions(f: List[Optional[int]], values: int, equations, injective: bool) -> Iterator[Endo]:
    """Every map that extends the partial map f, with images in
    range(values), and settles, in lexicographic order: depth-first over the
    unassigned positions, values ascending, pruning every partial map whose
    equations contradict each other or, when `injective`, that repeats an
    image.  The work is the pairs `_settle` reads plus len(f) per map
    visited; past SEARCH_WORK_CAP it raises TooManyEndos."""
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
        for v in reversed(range(values)):
            if v not in images:
                stack.append(f[:i] + [v] + f[i + 1:])


def homomorphisms(c1: CarrierTable, c2: CarrierTable) -> Iterator[Endo]:
    """Hom(c1, c2): every map f from c1's elements to c2's with f[i + j] =
    f[i] + f[j] wherever both sums are defined (an undefined sum states
    nothing), in lexicographic order.  Arrows are semigroup maps: the
    neutral's image is not pinned.  End(c) is `homomorphisms(c, c)`."""
    return _solutions([None] * c1.size, c2.size, _hom_equations(c1.add, c2.add), False)


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


class _Rows(collections.abc.Sequence):
    """One operation table of a semiring report, read by rows: row i holds,
    for every listed g, the index of endos[i] . g (or + g), or None where the
    result is not listed or a sum is undefined.  A row is filled when it is
    first read, and then kept: `keys(endos[i])` gives the keys of its results
    in list order, and `index` the position of the listed endo with each key."""

    def __init__(self, endos: List[Endo], keys: Callable[[Endo], Iterable], index: Dict):
        self.endos, self.keys, self.index = endos, keys, index
        self._rows: List[Optional[Tuple[Optional[int], ...]]] = [None] * len(endos)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = tuple(map(self.index.get, self.keys(self.endos[i])))
        return row

    def named(self, names: Sequence[str], miss: str = "?") -> Iterator[Iterator[str]]:
        """Each row's results by name, or `miss` for a result not listed,
        read straight from the row's fill by one lookup per cell; no row is
        kept."""
        name_of = collections.defaultdict(lambda: miss, {key: names[i] for key, i in self.index.items()})
        return (map(name_of.__getitem__, self.keys(f)) for f in self.endos)


@dataclass
class SemiringReport:
    """The semiring of a list of endos.  `product_table[i][j]` is the index
    of endos[i] . endos[j] and `sum_table[i][j]` that of endos[i] + endos[j],
    or None when it is not listed; each table is a read-only sequence of rows,
    a row filled when first read, so a report holds no N x N grid until all
    its rows are read.  The tables follow from the carrier and the endos, so
    they take no part in comparing reports.  They hold classify's fill
    functions, so a report does not pickle."""

    carrier: CarrierTable
    endos: List[Endo]
    flags: List[EndoFlags]
    identity: int
    zero: int
    product_table: _Rows = field(compare=False, repr=False)
    sum_table: _Rows = field(compare=False, repr=False)
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


def classify(c: CarrierTable, endos: Sequence[Endo]) -> SemiringReport:
    """The semiring of the listed endos: each endo's flags and the carrier's,
    and its product (composition) and sum (pointwise) tables, None where a
    result is not listed or a sum is undefined.  The list holds distinct
    endos, the identity and the zero map among them.  Only the flags and the
    key index of the listed endos are computed here; a table row is filled
    when first read, and `render_table` prints each row straight from its
    fill.  An image is one byte in that fill, so a carrier of more than 255
    elements raises CarrierOverflow.
    """
    endos = list(endos)
    n = c.size
    if n > 255:
        raise CarrierOverflow(f"{n} carrier elements: classify's tables hold at most 255")
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

    # An endo's key is its n images as bytes, padded with byte 255 to k whole
    # 8-byte words, read as its word or the tuple of its k words.  `pack`
    # interleaves n columns of bytes, one per position, into one key per
    # listed endo, so `listed` packs the listed endos' keys in list order.
    # The keys of f.g for every listed g are one bytes.translate of `listed`
    # through f, which keeps the padding.  Those of f+g pack column i sent
    # through row f[i] of the sum table, where byte 255 stands for an
    # undefined sum, so that such a key matches no endo.
    k = -(-n // 8)
    columns = [bytes(col) for col in zip(*endos)]
    sums = [bytes(255 if s is None else s for s in r).ljust(256, b"\xff") for r in c.add]

    def pack(cols):
        buf = bytearray(b"\xff") * (8 * k * len(endos))
        for i, col in enumerate(cols):
            buf[i::8 * k] = col
        return buf

    def keys(fill):
        words = memoryview(fill).cast("Q")
        return words if k == 1 else zip(*(words[j::k] for j in range(k)))

    listed = pack(columns)
    index = {key: i for i, key in enumerate(keys(listed))}

    def product_keys(f):
        return keys(listed.translate(bytes(f).ljust(256, b"\xff")))

    def sum_keys(f):
        return keys(pack(col.translate(sums[v]) for col, v in zip(columns, f)))

    is_unit = [inverse_of(f) in pos for f in endos]
    units = [f for f, unit in zip(endos, is_unit) if unit]
    flags = [
        EndoFlags(
            constant=is_constant(f),
            homomorphism=is_homomorphism(f, c),
            unit=is_unit[i],
            central=all(compose(f, u) == compose(u, f) for u in units),
            idempotent=is_idempotent(f),
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
        product_table=_Rows(endos, product_keys, index),
        sum_table=_Rows(endos, sum_keys, index),
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
                           for m in _solutions([None] * n, n, _subspace_equations(c.add), False))
    homs_ok = not any(1 < len(set(m)) < n for m in homomorphisms(c, c))
    return subspaces_ok, homs_ok


# ---------------------------------------------------------------------------
# Isomorphism

def isomorphisms(c1: CarrierTable, c2: CarrierTable) -> Iterator[Endo]:
    """Every monoid isomorphism from c1 to c2 in lexicographic order, as a
    bijection p of element indices: p sends the neutral to the neutral and
    i + j to p[i] + p[j] wherever both sums are defined, and i + j is
    undefined exactly where p[i] + p[j] is.  The injective case of
    `homomorphisms`' search, with the neutral's image pinned."""
    if c1.size == c2.size:
        f = [None] * c1.size
        f[c1.neutral] = c2.neutral
        for p in _solutions(f, c2.size, _hom_equations(c1.add, c2.add), True):
            if all((s is None) == (c2.add[p[i]][p[j]] is None)
                   for i, row in enumerate(c1.add) for j, s in enumerate(row)):
                yield p


def iso_check(c1: CarrierTable, c2: CarrierTable) -> Optional[Endo]:
    """The first monoid isomorphism from c1 to c2, or None when there is
    none.  A search past SEARCH_WORK_CAP raises TooManyEndos."""
    return next(isomorphisms(c1, c2), None)


# ---------------------------------------------------------------------------
# Rendering

TABLE_PRINT_CAP = 4 ** 4  # the most endos a 4-element carrier lists
_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def _names(report: SemiringReport) -> Tuple[List[str], List[str]]:
    """The carrier's element labels, each read once, and each endo's name:
    the labels of its images.  A label's tabs, carriage returns and line
    feeds are written as \\t, \\r and \\n, so that each keeps to one TSV cell
    and one text line, and its backslashes as \\\\, so that each escape reads
    back as one label."""
    c = report.carrier
    labels = [c.label(i).translate(_ESCAPES) for i in range(c.size)]
    return labels, ["".join(map(labels.__getitem__, f)) for f in report.endos]


def _check_fmt(fmt: str) -> None:
    """Refuse an output format other than "text" or "tsv", rather than
    print text for it."""
    if fmt not in ("text", "tsv"):
        raise ValueError(f"fmt must be 'text' or 'tsv', not {fmt!r}")


def render_table(
    report: SemiringReport,
    which: str = "product",
    names: Optional[Sequence[str]] = None,
    fmt: str = "text",
) -> str:
    """One operation table, header row and column, aligned text or TSV.
    Text and TSV print the same rows: the header, then each row straight
    from its fill (`_Rows.named`), by one lookup per cell from a result's key
    to its name, or "?" for a result not listed.  TSV joins the cells with a
    tab and pads none.  Text joins them with " | ", pads every cell but the
    first to the widest name (at least one character) and the first to that
    or the corner's width, and rules a line under the header.  Past
    TABLE_PRINT_CAP endos the table is one line giving its size instead,
    "<which> table: N x N, not shown past <TABLE_PRINT_CAP> endos" in text
    and "<which> table<tab>N x N" in TSV, and no name is computed.  `which`
    is "product" or "sum", and `fmt` "text" or "tsv"; any other value is a
    ValueError."""
    if which not in ("product", "sum"):
        raise ValueError(f"which must be 'product' or 'sum', not {which!r}")
    _check_fmt(fmt)
    tsv = fmt == "tsv"
    size = len(report.endos)
    if size > TABLE_PRINT_CAP:
        return (f"{which} table\t{size} x {size}" if tsv
                else f"{which} table: {size} x {size}, not shown past {TABLE_PRINT_CAP} endos")
    table = report.product_table if which == "product" else report.sum_table
    corner = "f.g" if which == "product" else "f+g"
    if names is None:
        names = _names(report)[1]
    w = 0 if tsv else max([1, *map(len, names)])
    first, sep = (0, "\t") if tsv else (max(w, len(corner)), " | ")
    cols = [name.ljust(w) for name in names]
    rows = zip([corner, *names], itertools.chain([cols], table.named(cols, "?".ljust(w))))
    lines = [sep.join([head.ljust(first), *cells]) for head, cells in rows]
    if not tsv:
        lines.insert(1, "-" * first + ("-+-" + "-" * w) * len(names))
    return "\n".join(lines)


def render_report(report: SemiringReport, fmt: str = "text") -> str:
    """The carrier, the flags and both tables, as text or TSV, from one list
    of the header's text lines.  Each line is a list of fields, and each
    field is (TSV name, text name, cells).  TSV prints one row per field, its
    name and its cells joined by tabs; text prints one line per list, each
    field as "name: cells" with the cells joined by spaces, and the fields
    joined by four spaces.  The field verdict is (True, True) in text and
    True<tab>True in TSV.  The tables are `render_table`'s, so past
    TABLE_PRINT_CAP endos each is one line giving its size.  Any other `fmt`
    is a ValueError."""
    _check_fmt(fmt)
    tsv = fmt == "tsv"
    c = report.carrier
    labels, names = _names(report)
    head = [
        [("elements", "elements", labels)],
        [("neutral", "neutral", [labels[c.neutral]]), ("closed", "closed", [c.closed])],
        [("endos", "endomorphisms", [len(report.endos)])],
        *([(flag, flag, [names[i] for i in getattr(report, flag)()])]
          for flag in ("units", "constants", "homomorphisms", "subspaces")),
        [("neutral_space", "neutral space", [report.neutral_space]),
         ("algebraic", "algebraic", [report.algebraic]),
         ("semilattice", "semilattice", [report.semilattice])],
        [("field", "field (subspace criterion, unit criterion)",
          (report.field or [None]) if tsv else [report.field])],
    ]
    tables = [render_table(report, which, names, fmt) for which in ("product", "sum")]
    if tsv:
        rows = ["\t".join([name, *map(str, cells)]) for line in head for name, _, cells in line]
        return "\n".join([*rows, *tables])
    lines = ["    ".join(f"{name}: {' '.join(map(str, cells))}" for _, name, cells in line)
             for line in head]
    return "\n".join([*lines, "", tables[0], "", tables[1]])
