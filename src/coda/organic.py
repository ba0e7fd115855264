"""Worked constructions: organic numbers, their subspaces, sequence spaces,
sets as semilattices, and bounded boolean sequences.

Each demo returns a DemoReport of machine-checked assertions, comparing
engine-level rewriting and carrier-level computation against independent
oracles (ints, Fraction, complex, `matrix_action`).  The integer, 2x2
matrix and Gaussian integer arithmetic runs in the engine: a homomorphism
is data built by `hom` from the images of the generator words, and its
result is normalised by the space's own program, `sort` or the
cancellation built by `reduction`; `reduce_int`, `matrix_hom` and
`gauss_mult` only read the normal form.  The rationals (`QAtom`, `q_add`,
`q_mult`) and the mediant's gcd are oracle-only: no builtin normalises a
`q` atom or divides out a gcd.  The rationals' sum check compares each
`q_add` sum with the operands by integer cross-multiplication and checks
that it is in lowest terms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    ProbeSet,
    Verdict,
    apply_to,
    check_associative,
    product,
    product_chain,
    small_probes,
)
from .encoding import lang_atom, word, word_text
from .engine import DEFAULT_BUDGET, Budget, Context, Engine
from .lang import parse, render
from .prelude import prelude
from .spacelab import (
    CarrierTable,
    Endo,
    TooManyEndos,
    carrier_from_function,
    classify,
    enumerate_endos,
    extract_carrier,
    homomorphisms,
    identity_endo,
    is_commutative,
    is_idempotent,
    is_subspace,
    verify_semialgebra,
)
from .terms import COLON, CapExceeded, Coda, Data, data_key

WORD_A = word("a")
WORD_B = word("b")


def ev(d: Data, ctx: Optional[Context] = None, budget: Budget = DEFAULT_BUDGET) -> Data:
    return Engine(ctx if ctx is not None else prelude(), budget).eval_data(tuple(d))


def ev_apply(f: Data, x: Data, ctx: Optional[Context] = None,
             budget: Budget = DEFAULT_BUDGET) -> Data:
    return ev(apply_to(f, x), ctx, budget)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Assertion:
    description: str
    expected: str
    actual: str
    passed: bool


@dataclass
class DemoReport:
    name: str
    assertions: List[Assertion] = field(default_factory=list)

    def check(self, description: str, expected, actual) -> bool:
        e, a = str(expected), str(actual)
        ok = e == a
        self.assertions.append(Assertion(description, e, a, ok))
        return ok

    def check_true(self, description: str, condition) -> bool:
        return self.check(description, True, bool(condition))

    def check_none(self, description: str, failures: Iterable) -> bool:
        """A quantified assertion: `failures` yields the failing cases.  It
        passes when there are none; otherwise it reports how many there were
        and the first."""
        count = 0
        for case in failures:
            if not count:
                first = case
            count += 1
        if self.check(description, 0, count):
            return True
        self.assertions[-1].actual = f"{count} failing, first {first}"
        return False

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self, fmt: str = "text") -> str:
        if fmt == "tsv":
            return "\n".join(
                "\t".join([self.name, "ok" if a.passed else "FAIL", a.description,
                           a.expected, a.actual])
                for a in self.assertions
            )
        lines = [f"demo {self.name}"]
        for a in self.assertions:
            mark = "ok  " if a.passed else "FAIL"
            line = f"  {mark} {a.description}"
            if not a.passed:
                line += f" (expected {a.expected}, got {a.actual})"
            lines.append(line)
        n_ok = len([a for a in self.assertions if a.passed])
        lines.append(f"  {n_ok}/{len(self.assertions)} assertions passed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Space search

DEFAULT_SEARCH_CAP = 5_000  # candidate token sequences


@dataclass
class SearchResult:
    candidate: Data
    verdict: Verdict

    @property
    def source(self) -> str:
        return render(self.candidate)


def search_spaces(
    words: Sequence[str],
    max_len: int,
    ctx: Optional[Context] = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> List[SearchResult]:
    """Screen every token sequence up to max_len for associativity.

    Tokens are the given words, a brace-quoted variant of each word, and the
    literal atom (:).  With no words at all only the literal candidates
    remain.  Only candidates whose associativity check holds on the probes
    are reported, shortest first.
    """
    ctx = ctx if ctx is not None else prelude()
    pool: List[Coda] = [word(w) for w in words]
    pool += [lang_atom(w) for w in words]
    pool.append(COLON)
    total = sum(len(pool) ** k for k in range(max_len + 1))
    if total > cap:
        raise CapExceeded(f"{total} candidates exceed cap {cap}")
    free = [w for w in words if not ctx.has_name(w)]
    probes = small_probes(tuple(free), Budget(max_steps=2_000, max_nodes=50_000))
    results: List[SearchResult] = []
    for k in range(max_len + 1):
        for combo in itertools.product(pool, repeat=k):
            cand = tuple(combo)
            verdict = check_associative(cand, probes, ctx)
            if verdict.holds:
                results.append(SearchResult(cand, verdict))
    results.sort(key=lambda r: (len(r.candidate), data_key(r.candidate)))
    return results


# ---------------------------------------------------------------------------
# Organic natural numbers N = (is a)

N_SOURCE = "is a"


def a_data(n: int) -> Data:
    return (WORD_A,) * n


def a_count(d: Data) -> Optional[int]:
    return len(d) if all(c == WORD_A for c in d) else None


def rem_value(p: int, q: int, n: int) -> int:
    """Remove p while the value stays at or above both p and q."""
    while n >= p and n >= q:
        n -= p
    return n


def bounded_n_carrier(limit: int = 16) -> CarrierTable:
    """Truncated natural numbers; sums beyond the limit stay undefined."""
    return carrier_from_function(
        range(limit + 1),
        lambda x, y: x + y if x + y <= limit else None,
        0,
        to_data=a_data,
    )


def rem(p: int, q: int, carrier: Optional[CarrierTable] = None) -> Endo:
    if p < 1 or q < 1:
        raise ValueError("rem needs p, q >= 1")
    if carrier is None:
        carrier = bounded_n_carrier()
    return tuple(rem_value(p, q, i) for i in range(carrier.size))


def mult_endo(k: int, carrier: CarrierTable) -> Endo:
    """Multiplication by k on a truncated natural-number carrier; values
    past the end are clamped (their sums are undefined anyway)."""
    top = carrier.size - 1
    return tuple(min(k * i, top) for i in range(carrier.size))


def organic_N() -> DemoReport:
    r = DemoReport("organic-n")
    ctx = prelude()
    n_space = parse(N_SOURCE)

    r.check_none("addition equals natural addition for all m,n <= 16", (
        (m, n) for m in range(17) for n in range(17)
        if ev_apply(n_space, a_data(m) + a_data(n), ctx) != a_data(m + n)))

    triple = parse("ap const a a a")
    r.check("(ap const a a a) : a a is a^6",
            render(a_data(6)), render(ev_apply(triple, a_data(2), ctx)))
    r.check_none("(ap const a a a) multiplies by 3 for n <= 8", (
        n for n in range(9) if ev_apply(triple, a_data(n), ctx) != a_data(3 * n)))

    h6 = product(parse("ap const a a"), parse("ap const a a a"))
    r.check_none("composition of x2 and x3 acts as x6", (
        n for n in range(6) if ev_apply(h6, a_data(n), ctx) != a_data(6 * n)))

    r.check("(while remove a a a : a^7) reduces to a",
            render(a_data(1)), render(ev(parse("while remove a a a : a a a a a a a"), ctx)))
    r.check("(min a a : a^5) saturates at a^2",
            render(a_data(2)), render(ev(parse("min a a : a a a a a"), ctx)))

    r.check("rem(3,3)(7)", 1, rem_value(3, 3, 7))
    r.check("rem(1,3)(5)", 2, rem_value(1, 3, 5))
    r.check("rem(2,2)(4)", 0, rem_value(2, 2, 4))

    carrier = bounded_n_carrier()
    for p in (2, 3, 5):
        e = rem(p, p, carrier)
        r.check_none(f"rem({p},{p}) equals mod {p} on the carrier",
                     (n for n in range(carrier.size) if e[n] != n % p))
    for p, q in ((3, 3), (1, 3), (2, 4)):
        e = rem(p, q, carrier)
        r.check_true(f"rem({p},{q}) is idempotent", is_idempotent(e))
        r.check_true(f"rem({p},{q}) is a subspace", is_subspace(e, carrier))

    mapping = {k: mult_endo(k, carrier) for k in range(5)}
    verdict = verify_semialgebra(
        carrier, mapping, units=[identity_endo(carrier)]
    )
    r.check("constants embed as multiplication homomorphisms",
            "holds_on_probes", verdict.status)
    return r


# ---------------------------------------------------------------------------
# Homomorphisms and reduction, as data the engine runs

def hom(images: Dict[str, Data]) -> Data:
    """The homomorphism sending each generator word to its image, atom by
    atom: ap {get B : (g:IMAGE) ...} looks each atom up in the table of
    images.  Other atoms map to ().  No definition may trigger on a
    generator, or its table entry would be rewritten."""
    table = tuple(Coda((word(g),), img) for g, img in images.items())
    return (word("ap"), lang_atom(f"get B : {render(table)}"))


def reduction(*pairs: Tuple[str, str]) -> Data:
    """The program that cancels each generator against its negative: for
    each pair (p, n) the k = min(#p, #n) pairs go at once, leaving the
    survivors p^i or n^j pair by pair.  Other atoms are dropped."""
    arms = []
    for p, n in pairs:
        k = f"(nif (is {p}:B) : min (is {p}:B) : is {n}:B)"
        arms += [f"(remove (ap const {g} : {k}) : is {g} : B)" for g in (p, n)]
    return (lang_atom(" ".join(arms)),)


SORT: Data = (word("sort"),)
Z_REDUCE = reduction(("a", "b"))
ZI_REDUCE = reduction(("a", "b"), ("c", "d"))


def _signed(nf: Data, pos: str, neg: str) -> int:
    """The integer that a reduced normal form holds in `pos` and `neg`:
    pos^k reads as k, neg^k as -k."""
    p, n = word(pos), word(neg)
    part = [c for c in nf if c == p or c == n]
    if p in part and n in part:
        raise ValueError(f"{render(nf)} is not reduced")
    return -len(part) if n in part else len(part)


# ---------------------------------------------------------------------------
# N2 = (is a b) and its subspaces

def reduce_int(d: Data) -> int:
    """The engine's reduce normal form of a/b data, read as an integer."""
    return _signed(ev_apply(Z_REDUCE, d), "a", "b")


def int_data(z: int) -> Data:
    return a_data(z) if z >= 0 else (WORD_B,) * (-z)


def sort_pair(d: Data) -> Tuple[int, int]:
    return (d.count(WORD_A), d.count(WORD_B))


def pair_data(m: int, n: int) -> Data:
    return (WORD_A,) * m + (WORD_B,) * n


def matrix_action(mat: Tuple[int, int, int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    m11, m21, m12, m22 = mat
    m, n = v
    return (m11 * m + m12 * n, m21 * m + m22 * n)


def matrix_data(mat: Tuple[int, int, int, int]) -> Data:
    """The sort homomorphism a -> a^m11 b^m21, b -> a^m12 b^m22, as data."""
    m11, m21, m12, m22 = mat
    return product(SORT, hom({"a": pair_data(m11, m21), "b": pair_data(m12, m22)}))


def matrix_hom(mat: Tuple[int, int, int, int], d: Data,
               ctx: Optional[Context] = None) -> Data:
    """`matrix_data(mat)` applied to `d` by the engine."""
    return ev_apply(matrix_data(mat), d, ctx)


def demo_N2() -> DemoReport:
    r = DemoReport("n2")
    ctx = prelude()

    r.check("sort of b a a b a", "a a a b b",
            render(ev(parse("sort : b a a b a"), ctx)))

    r.check_none("reduce matches integer addition for |z| <= 4", (
        (z1, z2) for z1 in range(-4, 5) for z2 in range(-4, 5)
        if reduce_int(int_data(z1) + int_data(z2)) != z1 + z2))
    r.check("reduce of a^2 b^3 is b", render(int_data(-1)),
            render(ev_apply(Z_REDUCE, parse("a a b b b"), ctx)))

    r.check_none("central homomorphisms of reduce act as integer multiplication", (
        (k, z) for k in range(-3, 4) for z in range(-4, 5)
        if reduce_int(apply_to(hom({"a": int_data(k), "b": int_data(-k)}), int_data(z)))
        != k * z))

    got = matrix_hom((1, 1, 1, 0), pair_data(1, 1), ctx)
    r.check("matrix (1 1; 1 0) on a b", "a a b", render(got))
    rng = random.Random(7)
    cases = [(tuple(rng.randrange(5) for _ in range(4)), (rng.randrange(4), rng.randrange(4)))
             for _ in range(40)]
    r.check_none("sort homomorphisms act as 2x2 natural matrices", (
        (mat, v) for mat, v in cases
        if matrix_hom(mat, pair_data(*v), ctx) != pair_data(*matrix_action(mat, v))))
    cases = [(tuple(rng.randrange(4) for _ in range(4)),
              pair_data(rng.randrange(3), rng.randrange(3)),
              pair_data(rng.randrange(3), rng.randrange(3))) for _ in range(20)]
    r.check_none("matrix maps distribute over the sorted sum", (
        (mat, x, y) for mat, x, y in cases
        if ev_apply(product(matrix_data(mat), SORT), x + y, ctx)
        != ev_apply(SORT, matrix_hom(mat, x, ctx) + matrix_hom(mat, y, ctx), ctx)))

    swap = matrix_data((0, 1, 1, 0))
    commutes = lambda mat: all(
        ev_apply(product(matrix_data(mat), swap), pair_data(m, n), ctx)
        == ev_apply(product(swap, matrix_data(mat)), pair_data(m, n), ctx)
        for m in range(3) for n in range(3)
    )
    r.check_true("symmetric matrix (2 1; 1 2) commutes with the swap", commutes((2, 1, 1, 2)))
    r.check_true("matrix (1 1; 0 1) does not commute with the swap",
                 not commutes((1, 1, 0, 1)))

    collapsed = (lang_atom("(is a:B) (once : is b:B)"),)
    r.check_none("sort with b b collapsed adds as (n+m, alpha or beta)", (
        (n1, a1, n2, a2)
        for n1, a1, n2, a2 in itertools.product(range(5), (0, 1), range(5), (0, 1))
        if ev_apply(collapsed, pair_data(n1, a1) + pair_data(n2, a2), ctx)
        != pair_data(n1 + n2, a1 | a2)))

    # oracle-only: no builtin divides out a gcd
    def lowest(m: int, n: int) -> Tuple[int, int]:
        g = gcd(m, n)
        return (m // g, n // g) if g else (m, n)

    def mediant(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
        return lowest(*sort_pair(pair_data(*x) + pair_data(*y)))

    r.check("mediant of 1/2 and 1/3", (2, 5), mediant((1, 2), (1, 3)))
    r.check_none("mediant sum is the gcd-reduced sum of parts", (
        (x, y) for x in [(1, 2), (2, 3), (1, 4), (3, 5)] for y in [(1, 3), (1, 2), (2, 5)]
        if mediant(x, y) != lowest(x[0] + y[0], x[1] + y[1])))
    return r


# ---------------------------------------------------------------------------
# Gaussian integers from (is a b c d): a, b, c, d stand for 1, -1, i, -i

def gauss_data(z: Tuple[int, int]) -> Data:
    re, im = z
    return int_data(re) + ((word("c"),) * im if im >= 0 else (word("d"),) * -im)


def gauss_value(d: Data, ctx: Optional[Context] = None) -> Tuple[int, int]:
    """The engine's reduce normal form of a/b/c/d data, read as re + im i."""
    nf = ev_apply(ZI_REDUCE, d, ctx)
    return (_signed(nf, "a", "b"), _signed(nf, "c", "d"))


def gauss_hom(u: Tuple[int, int]) -> Data:
    """The central homomorphism for u, a matrix (u0 -u1; u1 u0): each unit
    goes to its product with u."""
    iu = (-u[1], u[0])
    return hom({"a": gauss_data(u), "b": gauss_data((-u[0], -u[1])),
                "c": gauss_data(iu), "d": gauss_data((-iu[0], -iu[1]))})


def gauss_mult(u: Tuple[int, int], x: Tuple[int, int]) -> Tuple[int, int]:
    """u x, by the engine: `gauss_hom(u)` applied to x, then reduced."""
    return gauss_value(apply_to(gauss_hom(u), gauss_data(x)))


def demo_gaussian() -> DemoReport:
    r = DemoReport("gaussian")
    ctx = prelude()
    r.check("sort of d a c b", "a b c d", render(ev(parse("sort : d a c b"), ctx)))
    r.check("a b and c d cancel in the reduction", (0, 0), gauss_value(parse("a b c d"), ctx))

    r.check("(1+i) squared is 2i", (0, 2), gauss_mult((1, 1), (1, 1)))
    r.check("identity homomorphism is the unit matrix", (3, -2), gauss_mult((1, 0), (3, -2)))

    rng = random.Random(11)
    pick = lambda k: (rng.randint(-k, k), rng.randint(-k, k))

    def oracle(u: Tuple[int, int], x: Tuple[int, int]) -> Tuple[int, int]:
        z = complex(*u) * complex(*x)
        return (int(z.real), int(z.imag))

    cases = [(pick(4), pick(4)) for _ in range(20)]
    r.check_none("20 random products match the Gaussian oracle (|x|,|y| <= 4)", (
        (u, x) for u, x in cases if gauss_mult(u, x) != oracle(u, x)))

    j = gauss_hom((0, 1))
    cases = [(pick(3), pick(3)) for _ in range(10)]
    r.check_none("central homomorphisms commute with J", (
        (u, x) for u, x in cases
        if gauss_value(apply_to(product(gauss_hom(u), j), gauss_data(x)), ctx)
        != gauss_value(apply_to(product(j, gauss_hom(u)), gauss_data(x)), ctx)))

    cases = [(pick(3), pick(3), pick(3)) for _ in range(10)]
    r.check_none("multiplication distributes over the sum", (
        (u, x, y) for u, x, y in cases
        if gauss_value(apply_to(gauss_hom(u), gauss_data(x) + gauss_data(y)), ctx)
        != gauss_value(apply_to(gauss_hom(u), gauss_data(x))
                       + apply_to(gauss_hom(u), gauss_data(y)), ctx)))
    return r


# ---------------------------------------------------------------------------
# Bespoke rationals: oracle-only, since no builtin normalises a q atom.  The
# sum check needs no Fraction: n/d is n1/d1 + n2/d2 exactly when
# n * d1 * d2 == (n1 * d2 + n2 * d1) * d, and gcd(n, d) == 1 checks lowest terms.

@dataclass(frozen=True)
class QAtom:
    """A positive rational held as coprime counts."""

    numerator: int
    denominator: int

    @staticmethod
    def make(numerator: int, denominator: int) -> Optional["QAtom"]:
        """gcd-normalized atom; an empty numerator is the zero rational and
        disappears entirely."""
        if denominator < 1:
            raise ValueError("denominator must be at least 1")
        if numerator == 0:
            return None
        g = gcd(numerator, denominator)
        return QAtom(numerator // g, denominator // g)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def data(self) -> Data:
        return (Coda((word("q"),) + a_data(self.numerator), a_data(self.denominator)),)


def q_add(x: Optional[QAtom], y: Optional[QAtom]) -> Optional[QAtom]:
    if x is None:
        return y
    if y is None:
        return x
    return QAtom.make(
        x.numerator * y.denominator + y.numerator * x.denominator,
        x.denominator * y.denominator,
    )


def q_mult(u: QAtom, x: Optional[QAtom]) -> Optional[QAtom]:
    if x is None:
        return None
    return QAtom.make(u.numerator * x.numerator, u.denominator * x.denominator)


def _sum_failures(bound: int) -> Iterator[Tuple[int, int, int, int]]:
    """The (n1, d1, n2, d2), n <= bound and 1 <= d <= bound, in
    `itertools.product` order, whose `q_add` sum n/d is wrong or not in
    lowest terms.  The zero rational, None, reads as 0/1."""
    cases = list(itertools.product(range(bound + 1), range(1, bound + 1)))
    atoms = [QAtom.make(n, d) for n, d in cases]
    for (n1, d1), x in zip(cases, atoms):
        for (n2, d2), y in zip(cases, atoms):
            s = q_add(x, y)
            n, d = (s.numerator, s.denominator) if s else (0, 1)
            if n * d1 * d2 != (n1 * d2 + n2 * d1) * d or gcd(n, d) != 1:
                yield n1, d1, n2, d2


def nat_product(n: int, m: int, ctx: Optional[Context] = None) -> int:
    """n*m computed by the rewriting engine: (ap const a^n : a^m)."""
    expr = (word("ap"), word("const")) + a_data(n)
    out = ev_apply(expr, a_data(m), ctx)
    cnt = a_count(out)
    if cnt is None:
        raise ValueError("unexpected product normal form")
    return cnt


def rationals() -> DemoReport:
    r = DemoReport("rationals")
    ctx = prelude()

    r.check("(q a a : a a) normalizes to (q a : a)",
            render(QAtom(1, 1).data()), render(QAtom.make(2, 2).data()))
    r.check("(q : a) is removed entirely", "None", str(QAtom.make(0, 1)))

    half, third = QAtom.make(1, 2), QAtom.make(1, 3)
    r.check("1/2 + 1/3", render(QAtom(5, 6).data()), render(q_add(half, third).data()))

    r.check_none("sum equals rational addition for num,den <= 12", _sum_failures(12))

    r.check_none("engine-level cross products reproduce the sum rule", (
        (n1, d1, n2, d2)
        for n1, d1, n2, d2 in [(1, 2, 1, 3), (2, 3, 3, 4), (5, 6, 1, 5), (3, 2, 2, 7)]
        if QAtom.make(nat_product(n1, d2, ctx) + nat_product(n2, d1, ctx),
                      nat_product(d1, d2, ctx))
        != q_add(QAtom.make(n1, d1), QAtom.make(n2, d2))))

    rng = random.Random(5)
    pick = lambda k: QAtom.make(rng.randint(1, k), rng.randint(1, k))
    cases = [(pick(6), pick(6), pick(6)) for _ in range(30)]
    r.check_none("multiplication is a homomorphism of the sum", (
        (u, x, y) for u, x, y in cases
        if q_mult(u, q_add(x, y)) != q_add(q_mult(u, x), q_mult(u, y))))

    cases = [(pick(9), pick(9)) for _ in range(20)]
    r.check_none("every sampled nonzero multiplication has an inverse", (
        (u, x) for u, x in cases
        if q_mult(QAtom.make(u.denominator, u.numerator), q_mult(u, x)) != x))
    return r


# ---------------------------------------------------------------------------
# Sequence spaces

def seq(space: Data, marker: str) -> Data:
    """The space of `space`-values stored one per marker atom."""
    m = word(marker)
    chain = product_chain((word("put"), m), tuple(space), (word("get"), m))
    return (word("ap"),) + chain


def inner(space: Data, marker: str, f: Data) -> Data:
    """Let f act on the concatenated contents, returning one marker atom."""
    m = word(marker)
    return product_chain(
        tuple(space), (word("put"), m), tuple(f), (word("get"), m), tuple(space)
    )


FIB_BUDGET = Budget(max_steps=2_000_000, max_nodes=500_000_000)


def fibonacci(k: int) -> List[int]:
    """Iterate the sum-of-last-two endomorphism of the number-sequence
    space, collecting the stored values."""
    if k < 0 or k > 30:
        raise ValueError("k must be between 0 and 30")
    vals = [1, 1][:k]
    if k <= 2:
        return vals
    ctx = prelude()
    nseq = seq(parse(N_SOURCE), "n")
    step = product(inner(nseq, "n", parse(N_SOURCE)), (word("last"), word("2")))
    state = tuple(parse("(n:a) (n:a)"))
    while len(vals) < k:
        nxt = ev_apply(step, state, ctx, FIB_BUDGET)
        if len(nxt) != 1:
            raise ValueError("iteration lost its shape")
        vals.append(len(nxt[0].right))
        state = state + nxt
    return vals


def _fib_oracle(k: int) -> List[int]:
    """The first k Fibonacci numbers, computed in Python: the demos' oracle."""
    out: List[int] = []
    a, b = 1, 1
    for _ in range(k):
        out.append(a)
        a, b = b, a + b
    return out


def demo_seq() -> DemoReport:
    r = DemoReport("seq")
    ctx = prelude()
    nseq = seq(parse(N_SOURCE), "n")
    t = parse("(n:a a a) (n:) (n:a a) (n:a) (n:)")

    r.check("the sequence space fixes its own data", render(t),
            render(ev_apply(nseq, t, ctx)))
    r.check("sum : T", "(n:a a a a a a)",
            render(ev_apply(inner(nseq, "n", parse(N_SOURCE)), t, ctx)))
    r.check("sort : T", "(n:) (n:) (n:a) (n:a a) (n:a a a)",
            render(ev(parse("sort : (n:a a a) (n:) (n:a a) (n:a) (n:)"), ctx)))
    r.check("min : T", "(n:)",
            render(ev(parse("min : (n:a a a) (n:) (n:a a) (n:a) (n:)"), ctx)))
    r.check("first : T", "(n:a a a)",
            render(ev(parse("first : (n:a a a) (n:) (n:a a) (n:a) (n:)"), ctx)))
    for k in (1, 2, 6, 10):
        r.check(f"fibonacci({k})", _fib_oracle(k), fibonacci(k))
    return r


# ---------------------------------------------------------------------------
# Sets as semilattices

def sets_space() -> Data:
    return product_chain(SORT, (word("once"),), parse("is a b c"))


def _element_set(d: Data) -> frozenset:
    return frozenset(word_text(c) for c in d)


def demo_sets() -> DemoReport:
    r = DemoReport("sets")
    ctx = prelude()
    space = sets_space()
    probes = ProbeSet(((), (word("a"),), (word("b"),), (word("c"),), parse("a b c")))
    carrier = extract_carrier(space, probes, cap=16, ctx=ctx)

    r.check("carrier holds the 8 subsets", 8, carrier.size)
    r.check_true("the table is closed", carrier.closed)
    r.check("neutral is the empty set", "()", carrier.label(carrier.neutral))
    r.check("a + b through the engine", "a b",
            render(ev_apply(space, parse("a b"), ctx)))

    sets = [_element_set(e) for e in carrier.elements]
    r.check_none("the carrier sum is set union on all 64 pairs", (
        (i, j) for i, j in itertools.product(range(8), range(8))
        if sets[carrier.add[i][j]] != sets[i] | sets[j]))
    r.check_none("every element is sum-idempotent",
                 (i for i in range(8) if carrier.add[i][i] != i))
    r.check_true("the sum is commutative", is_commutative(carrier))

    units = [m for m in homomorphisms(carrier) if len(set(m)) == 8]
    r.check("the bijective homomorphisms form S3", 6, len(units))

    r.check_none("constant order under the sum equals subset inclusion (28 pairs)", (
        (x, y) for i, j in itertools.combinations(range(8), 2) for x, y in ((i, j), (j, i))
        if (carrier.add[i][j] == y) != (sets[x] <= sets[y])))
    return r


# ---------------------------------------------------------------------------
# Boolean sequences

T_ELEM: Data = (Coda((WORD_B,), ()),)
F_ELEM: Data = (Coda((WORD_B,), (COLON,)),)


def bool_seq_space() -> Data:
    return seq(parse("bool"), "b")


def bool_seq_truncated(n: int) -> Data:
    lseq = bool_seq_space()
    first = (word("first"),) if n == 1 else (word("first"), word(str(n)))
    return product_chain(lseq, first, lseq)


def _bool_probes() -> ProbeSet:
    singles = [(), T_ELEM, F_ELEM]
    pairs = [x + y for x in (T_ELEM, F_ELEM) for y in (T_ELEM, F_ELEM)]
    return ProbeSet(tuple(singles + pairs))


def _colon_count(d: Data) -> int:
    return sum(len(c.right) for c in d)


TABLE_ROWS = [
    ("e1", "TTT", "always"),
    ("e2", "TTF", "any"),
    ("e3", "TFT", "even"),
    ("e4", "TFF", "all"),
    ("e5", "FTT", "notall"),
    ("e6", "FTF", "odd"),
    ("e7", "FFT", "none"),
    ("e8", "FFF", "never"),
]

EXPECTED_GRID = {
    "e1": "TTTTTTT",
    "e2": "TTTTTTF",
    "e3": "TTFTFFT",
    "e4": "TTFTFFF",
    "e5": "FFTFTTT",
    "e6": "FFTFTTF",
    "e7": "FFFFFFT",
    "e8": "FFFFFFF",
}

EXPECTED_COUNTS = [0, 0, 1, 0, 1, 1, 2]


def inner_bool_endos(carrier: CarrierTable) -> Dict[str, Endo]:
    """The eight inner endomorphisms, built from their value on the total
    count of (:) contents (0, 1 or 2)."""
    t_idx = carrier.index_of(T_ELEM)
    f_idx = carrier.index_of(F_ELEM)
    if t_idx is None or f_idx is None:
        raise ValueError("carrier is missing the single-atom elements")
    by_letter = {"T": t_idx, "F": f_idx}
    counts = [_colon_count(e) for e in carrier.elements]
    return {name: tuple(by_letter[recipe[c]] for c in counts) for name, recipe, _ in TABLE_ROWS}


def demo_bool_sequences() -> DemoReport:
    r = DemoReport("bool-seq")
    ctx = prelude()
    probes = _bool_probes()

    l1 = bool_seq_truncated(1)
    c1 = extract_carrier(l1, probes, cap=8, ctx=ctx)
    r.check("L1 carrier elements", 3, c1.size)
    endos = enumerate_endos(c1)
    r.check("L1 endomorphism count", 27, len(endos))
    rep = classify(c1, endos)
    r.check("L1 units", 6, len(rep.units()))
    r.check("L1 constants", 3, len(rep.constants()))

    l2 = bool_seq_truncated(2)
    c2 = extract_carrier(l2, probes, cap=16, ctx=ctx)
    r.check("L2 carrier elements", 7, c2.size)
    try:
        enumerate_endos(c2)
        r.check("L2 full enumeration is refused", "TooManyEndos", "enumerated")
    except TooManyEndos:
        r.check("L2 full enumeration is refused", "TooManyEndos", "TooManyEndos")

    got_labels = [c2.label(i) for i in range(7)]
    expect_labels = ["()", "(b:)", "(b:(:))", "(b:) (b:)", "(b:) (b:(:))",
                     "(b:(:)) (b:)", "(b:(:)) (b:(:))"]
    r.check("L2 elements in canonical order", expect_labels, got_labels)
    r.check("count of (:) per element", EXPECTED_COUNTS,
            [_colon_count(e) for e in c2.elements])

    endos8 = inner_bool_endos(c2)
    t_idx, f_idx = c2.index_of(T_ELEM), c2.index_of(F_ELEM)
    letter = {t_idx: "T", f_idx: "F"}
    for name, _, _ in TABLE_ROWS:
        row = "".join(letter[v] for v in endos8[name])
        r.check(f"{name} value row", EXPECTED_GRID[name], row)

    engine_builds = {
        "e1": (word("const"),),
        "e4": parse("bool"),
        "e6": product(parse("not"), parse("while remove (:) (:)")),
        "e8": parse("const (:)"),
    }
    for name, f in engine_builds.items():
        e_data = inner(l2, "b", f)
        r.check_none(f"{name} from engine rewriting matches the table", (
            elem for i, elem in enumerate(c2.elements)
            if ev_apply(e_data, elem, ctx) != c2.elements[endos8[name][i]]))
    return r


# ---------------------------------------------------------------------------
# The bool semiring

BOOL_NAMES = ("ID", "TRUE", "FALSE", "NOT")

BOOL_PRODUCT = (
    ("ID", "TRUE", "FALSE", "NOT"),
    ("TRUE", "TRUE", "TRUE", "TRUE"),
    ("FALSE", "FALSE", "FALSE", "FALSE"),
    ("NOT", "FALSE", "TRUE", "ID"),
)

BOOL_SUM = (
    ("ID", "ID", "FALSE", "FALSE"),
    ("ID", "TRUE", "FALSE", "NOT"),
    ("FALSE", "FALSE", "FALSE", "FALSE"),
    ("FALSE", "NOT", "FALSE", "NOT"),
)


def bool_report():
    """Classified endomorphism semiring of the two-element carrier."""
    ctx = prelude()
    c = extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=4, ctx=ctx)
    return classify(c, enumerate_endos(c))


def bool_endo_names(rep) -> List[str]:
    """Name each endofunction by what it does to the two elements."""
    named = {(0, 1): "ID", (0, 0): "TRUE", (1, 1): "FALSE", (1, 0): "NOT"}
    return [named[e] for e in rep.endos]


def demo_bool() -> DemoReport:
    r = DemoReport("bool")
    rep = bool_report()
    names = bool_endo_names(rep)
    idx = {n: i for i, n in enumerate(names)}

    r.check("carrier elements", ["()", "(:)"],
            [rep.carrier.label(i) for i in range(rep.carrier.size)])
    r.check("endomorphism count", 4, len(rep.endos))
    r.check("multiplication unit", "ID", names[rep.identity])
    r.check("addition unit", "TRUE", names[rep.zero])
    for what, table, want in (("product", rep.product_table, BOOL_PRODUCT),
                              ("sum", rep.sum_table, BOOL_SUM)):
        r.check_none(f"all 16 {what} entries", (
            (x, y) for i, x in enumerate(BOOL_NAMES) for j, y in enumerate(BOOL_NAMES)
            if names[table[idx[x]][idx[y]]] != want[i][j]))
    r.check("units", ["ID", "NOT"], sorted(names[i] for i in rep.units()))
    r.check("constants", ["FALSE", "TRUE"], sorted(names[i] for i in rep.constants()))
    r.check("field criteria agree", (True, True), rep.field)
    return r


def demo_fibonacci() -> DemoReport:
    r = DemoReport("fibonacci")
    r.check("first 10 values", _fib_oracle(10), fibonacci(10))
    return r


DEMOS = {
    "organic-n": organic_N,
    "n2": demo_N2,
    "gaussian": demo_gaussian,
    "rationals": rationals,
    "seq": demo_seq,
    "sets": demo_sets,
    "bool": demo_bool,
    "bool-seq": demo_bool_sequences,
    "fibonacci": demo_fibonacci,
}
