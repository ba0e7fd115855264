"""Worked constructions: organic numbers, their subspaces, sequence spaces,
sets as semilattices, and bounded boolean sequences.

Each demo returns a DemoReport of machine-checked assertions, comparing
engine-level rewriting (where the action is expressible with the installed
builtins) and carrier-level computation against independent arithmetic
oracles (ints, Fraction, complex).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    ProbeSet,
    Verdict,
    apply_to,
    check_associative,
    product,
    product_chain,
    small_probes,
)
from .encoding import lang_atom, word
from .engine import DEFAULT_BUDGET, Budget, Context, Engine
from .lang import parse, render
from .prelude import prelude
from .spacelab import (
    CarrierTable,
    Endo,
    TooManyEndos,
    carrier_from_function,
    classify,
    compose,
    enumerate_endos,
    extract_carrier,
    identity_endo,
    is_commutative,
    is_homomorphism,
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

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self, fmt: str = "text") -> str:
        if fmt == "tsv":
            rows = [
                "\t".join(
                    [self.name, "ok" if a.passed else "FAIL", a.description,
                     a.expected, a.actual]
                )
                for a in self.assertions
            ]
            return "\n".join(rows)
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
    probes: Optional[ProbeSet] = None,
    ctx: Optional[Context] = None,
    cap: int = 5_000,
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
    total = 0
    for k in range(max_len + 1):
        total += len(pool) ** k
    if total > cap:
        raise CapExceeded(f"{total} candidates exceed cap {cap}")
    if probes is None:
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
    if all(c == WORD_A for c in d):
        return len(d)
    return None


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


def organic_N(limit: int = 16) -> DemoReport:
    r = DemoReport("organic-n")
    ctx = prelude()
    n_space = parse(N_SOURCE)

    bad = 0
    for m in range(limit + 1):
        for n in range(limit + 1):
            got = ev_apply(n_space, a_data(m) + a_data(n), ctx)
            if got != a_data(m + n):
                bad += 1
    r.check(f"addition equals natural addition for all m,n <= {limit}", 0, bad)

    triple = parse("ap const a a a")
    r.check("(ap const a a a) : a a is a^6",
            render(a_data(6)), render(ev_apply(triple, a_data(2), ctx)))
    bad = sum(
        1 for n in range(9)
        if ev_apply(triple, a_data(n), ctx) != a_data(3 * n)
    )
    r.check("(ap const a a a) multiplies by 3 for n <= 8", 0, bad)

    h2, h3 = parse("ap const a a"), parse("ap const a a a")
    h6 = product(h2, h3)
    bad = sum(
        1 for n in range(6)
        if ev_apply(h6, a_data(n), ctx) != a_data(6 * n)
    )
    r.check("composition of x2 and x3 acts as x6", 0, bad)

    r.check("(while remove a a a : a^7) reduces to a",
            render(a_data(1)), render(ev(parse("while remove a a a : a a a a a a a"), ctx)))
    r.check("(min a a : a^5) saturates at a^2",
            render(a_data(2)), render(ev(parse("min a a : a a a a a"), ctx)))

    r.check("rem(3,3)(7)", 1, rem_value(3, 3, 7))
    r.check("rem(1,3)(5)", 2, rem_value(1, 3, 5))
    r.check("rem(2,2)(4)", 0, rem_value(2, 2, 4))

    carrier = bounded_n_carrier(limit)
    for p in (2, 3, 5):
        e = rem(p, p, carrier)
        bad = sum(1 for n in range(limit + 1) if e[n] != n % p)
        r.check(f"rem({p},{p}) equals mod {p} on the carrier", 0, bad)
    for p, q in ((3, 3), (1, 3), (2, 4)):
        e = rem(p, q, carrier)
        r.check_true(f"rem({p},{q}) is idempotent", is_idempotent(e))
        r.check_true(f"rem({p},{q}) is a subspace", is_subspace(e, carrier))

    mapping = {k: mult_endo(k, carrier) for k in range(5)}
    verdict = verify_semialgebra(
        carrier, mapping, central=True, units=[identity_endo(carrier)]
    )
    r.check("constants embed as multiplication homomorphisms",
            "holds_on_probes", verdict.status)
    return r


# ---------------------------------------------------------------------------
# N2 = (is a b) and its subspaces

def reduce_int(d: Data) -> int:
    """The reduce normal form of a/b data read as an integer."""
    plus = sum(1 for c in d if c == WORD_A)
    minus = sum(1 for c in d if c == WORD_B)
    return plus - minus


def int_data(z: int) -> Data:
    return a_data(z) if z >= 0 else (WORD_B,) * (-z)


def sort_pair(d: Data) -> Tuple[int, int]:
    return (
        sum(1 for c in d if c == WORD_A),
        sum(1 for c in d if c == WORD_B),
    )


def pair_data(m: int, n: int) -> Data:
    return (WORD_A,) * m + (WORD_B,) * n


def matrix_action(mat: Tuple[int, int, int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    m11, m21, m12, m22 = mat
    m, n = v
    return (m11 * m + m12 * n, m21 * m + m22 * n)


def matrix_hom(mat: Tuple[int, int, int, int], d: Data,
               ctx: Optional[Context] = None) -> Data:
    """Apply the images a -> a^m11 b^m21, b -> a^m12 b^m22 atom by atom,
    then sort through the engine."""
    m11, m21, m12, m22 = mat
    img_a = pair_data(m11, m21)
    img_b = pair_data(m12, m22)
    out: List[Coda] = []
    for c in d:
        out.extend(img_a if c == WORD_A else img_b)
    return ev_apply((word("sort"),), tuple(out), ctx)


def demo_N2(bound: int = 8) -> DemoReport:
    r = DemoReport("n2")
    ctx = prelude()

    r.check("sort of b a a b a", "a a a b b",
            render(ev(parse("sort : b a a b a"), ctx)))

    bad = 0
    for z1 in range(-bound // 2, bound // 2 + 1):
        for z2 in range(-bound // 2, bound // 2 + 1):
            if reduce_int(int_data(z1) + int_data(z2)) != z1 + z2:
                bad += 1
    r.check(f"reduce matches integer addition for |z| <= {bound // 2}", 0, bad)
    r.check("reduce of a^2 b^3 is b", render(int_data(-1)),
            render(int_data(reduce_int(a_data(2) + (WORD_B,) * 3))))

    bad = 0
    for k in range(-3, 4):
        img = int_data(k)
        swapped = tuple(WORD_B if c == WORD_A else WORD_A for c in img)
        for z in range(-4, 5):
            src = int_data(z)
            out: List[Coda] = []
            for c in src:
                out.extend(img if c == WORD_A else swapped)
            if reduce_int(tuple(out)) != k * z:
                bad += 1
    r.check("central homomorphisms of reduce act as integer multiplication", 0, bad)

    got = matrix_hom((1, 1, 1, 0), pair_data(1, 1), ctx)
    r.check("matrix (1 1; 1 0) on a b", "a a b", render(got))
    rng = random.Random(7)
    bad = 0
    for _ in range(40):
        mat = tuple(rng.randrange(5) for _ in range(4))
        v = (rng.randrange(4), rng.randrange(4))
        got = matrix_hom(mat, pair_data(*v), ctx)
        if sort_pair(got) != matrix_action(mat, v):
            bad += 1
    r.check("sort homomorphisms act as 2x2 natural matrices", 0, bad)
    bad = 0
    for _ in range(20):
        mat = tuple(rng.randrange(4) for _ in range(4))
        x = pair_data(rng.randrange(3), rng.randrange(3))
        y = pair_data(rng.randrange(3), rng.randrange(3))
        lhs = matrix_hom(mat, ev_apply((word("sort"),), x + y, ctx), ctx)
        rhs = ev_apply((word("sort"),), matrix_hom(mat, x, ctx) + matrix_hom(mat, y, ctx), ctx)
        if lhs != rhs:
            bad += 1
    r.check("matrix maps distribute over the sorted sum", 0, bad)

    swap = (0, 1, 1, 0)
    sym, asym = (2, 1, 1, 2), (1, 1, 0, 1)
    vs = [(m, n) for m in range(3) for n in range(3)]
    commutes = lambda mat: all(
        matrix_action(mat, matrix_action(swap, v))
        == matrix_action(swap, matrix_action(mat, v))
        for v in vs
    )
    r.check_true("symmetric matrix (2 1; 1 2) commutes with the swap", commutes(sym))
    r.check_true("matrix (1 1; 0 1) does not commute with the swap", not commutes(asym))

    bad = 0
    for n1, a1 in itertools.product(range(5), (0, 1)):
        for n2, a2 in itertools.product(range(5), (0, 1)):
            m, alpha = sort_pair(pair_data(n1, min(a1, 1)) + pair_data(n2, min(a2, 1)))
            if (m, min(alpha, 1)) != (n1 + n2, a1 | a2):
                bad += 1
    r.check("sort with b b collapsed adds as (n+m, alpha or beta)", 0, bad)

    def mediant(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
        m, n = sort_pair(pair_data(*x) + pair_data(*y))
        g = gcd(m, n)
        return (m // g, n // g) if g else (m, n)

    r.check("mediant of 1/2 and 1/3", (2, 5), mediant((1, 2), (1, 3)))
    bad = 0
    for x in [(1, 2), (2, 3), (1, 4), (3, 5)]:
        for y in [(1, 3), (1, 2), (2, 5)]:
            m, n = x[0] + y[0], x[1] + y[1]
            g = gcd(m, n)
            if mediant(x, y) != (m // g, n // g):
                bad += 1
    r.check("mediant sum is the gcd-reduced sum of parts", 0, bad)
    return r


# ---------------------------------------------------------------------------
# Gaussian integers from (is a b c d)

def gauss_add(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    return (x[0] + y[0], x[1] + y[1])


def gauss_mult(u: Tuple[int, int], x: Tuple[int, int]) -> Tuple[int, int]:
    """The central homomorphism for u, a matrix (u0 -u1; u1 u0)."""
    return (u[0] * x[0] - u[1] * x[1], u[0] * x[1] + u[1] * x[0])


def demo_gaussian(bound: int = 4) -> DemoReport:
    r = DemoReport("gaussian")
    ctx = prelude()
    r.check("sort of d a c b", "a b c d", render(ev(parse("sort : d a c b"), ctx)))

    def reduce4(counts: Tuple[int, int, int, int]) -> Tuple[int, int]:
        ca, cb, cc, cd = counts
        return (ca - cb, cc - cd)

    r.check("a b and c d cancel in the reduction", (0, 0), reduce4((1, 1, 1, 1)))

    one_plus_i = (1, 1)
    r.check("(1+i) squared is 2i", (0, 2), gauss_mult(one_plus_i, one_plus_i))
    r.check("identity homomorphism is the unit matrix", (3, -2),
            gauss_mult((1, 0), (3, -2)))

    rng = random.Random(11)
    bad = 0
    for _ in range(20):
        u = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        x = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        oracle = complex(*u) * complex(*x)
        if gauss_mult(u, x) != (int(oracle.real), int(oracle.imag)):
            bad += 1
    r.check(f"20 random products match the Gaussian oracle (|x|,|y| <= {bound})",
            0, bad)

    j = (0, 1)
    bad = 0
    for _ in range(10):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        if gauss_mult(u, gauss_mult(j, x)) != gauss_mult(j, gauss_mult(u, x)):
            bad += 1
    r.check("central homomorphisms commute with J", 0, bad)

    bad = 0
    for _ in range(10):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        y = (rng.randint(-3, 3), rng.randint(-3, 3))
        if gauss_mult(u, gauss_add(x, y)) != gauss_add(gauss_mult(u, x), gauss_mult(u, y)):
            bad += 1
    r.check("multiplication distributes over the sum", 0, bad)
    return r


# ---------------------------------------------------------------------------
# Bespoke rationals

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


def nat_product(n: int, m: int, ctx: Optional[Context] = None) -> int:
    """n*m computed by the rewriting engine: (ap const a^n : a^m)."""
    expr = (word("ap"), word("const")) + a_data(n)
    out = ev_apply(expr, a_data(m), ctx)
    cnt = a_count(out)
    if cnt is None:
        raise ValueError("unexpected product normal form")
    return cnt


def rationals(limit: int = 12) -> DemoReport:
    r = DemoReport("rationals")
    ctx = prelude()

    r.check("(q a a : a a) normalizes to (q a : a)",
            render(QAtom(1, 1).data()), render(QAtom.make(2, 2).data()))
    r.check("(q : a) is removed entirely", "None", str(QAtom.make(0, 1)))

    half, third = QAtom.make(1, 2), QAtom.make(1, 3)
    r.check("1/2 + 1/3", render(QAtom(5, 6).data()), render(q_add(half, third).data()))

    bad = 0
    for n1, d1, n2, d2 in itertools.product(range(limit + 1), range(1, limit + 1),
                                            range(limit + 1), range(1, limit + 1)):
        got = q_add(QAtom.make(n1, d1), QAtom.make(n2, d2))
        want = Fraction(n1, d1) + Fraction(n2, d2)
        if (got.as_fraction() if got else Fraction(0)) != want:
            bad += 1
    r.check(f"sum equals rational addition for num,den <= {limit}", 0, bad)

    bad = 0
    for n1, d1, n2, d2 in [(1, 2, 1, 3), (2, 3, 3, 4), (5, 6, 1, 5), (3, 2, 2, 7)]:
        num = nat_product(n1, d2, ctx) + nat_product(n2, d1, ctx)
        den = nat_product(d1, d2, ctx)
        if QAtom.make(num, den) != q_add(QAtom.make(n1, d1), QAtom.make(n2, d2)):
            bad += 1
    r.check("engine-level cross products reproduce the sum rule", 0, bad)

    rng = random.Random(5)
    bad = 0
    for _ in range(30):
        u = QAtom.make(rng.randint(1, 6), rng.randint(1, 6))
        x = QAtom.make(rng.randint(1, 6), rng.randint(1, 6))
        y = QAtom.make(rng.randint(1, 6), rng.randint(1, 6))
        lhs = q_mult(u, q_add(x, y))
        rhs = q_add(q_mult(u, x), q_mult(u, y))
        if lhs != rhs:
            bad += 1
    r.check("multiplication is a homomorphism of the sum", 0, bad)

    bad = 0
    for _ in range(20):
        u = QAtom.make(rng.randint(1, 9), rng.randint(1, 9))
        inv = QAtom.make(u.denominator, u.numerator)
        x = QAtom.make(rng.randint(1, 9), rng.randint(1, 9))
        if q_mult(inv, q_mult(u, x)) != x:
            bad += 1
    r.check("every sampled nonzero multiplication has an inverse", 0, bad)
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


def fibonacci(k: int, budget: Budget = FIB_BUDGET) -> List[int]:
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
        nxt = ev_apply(step, state, ctx, budget)
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
    return product_chain(
        (word("sort"),), (word("once"),), parse("is a b c")
    )


def _element_set(d: Data) -> frozenset:
    from .encoding import word_text

    return frozenset(word_text(c) for c in d)


def demo_sets() -> DemoReport:
    r = DemoReport("sets")
    ctx = prelude()
    space = sets_space()
    probes = ProbeSet((
        (), (word("a"),), (word("b"),), (word("c"),), parse("a b c"),
    ))
    carrier = extract_carrier(space, probes, cap=16, ctx=ctx)

    r.check("carrier holds the 8 subsets", 8, carrier.size)
    r.check_true("the table is closed", carrier.closed)
    r.check("neutral is the empty set", "()", carrier.label(carrier.neutral))
    r.check("a + b through the engine", "a b",
            render(ev_apply(space, parse("a b"), ctx)))

    sets = [_element_set(e) for e in carrier.elements]
    bad = sum(
        1 for i, j in itertools.product(range(8), range(8))
        if sets[carrier.add[i][j]] != sets[i] | sets[j]
    )
    r.check("the carrier sum is set union on all 64 pairs", 0, bad)
    r.check("every element is sum-idempotent", 0,
            sum(1 for i in range(8) if carrier.add[i][i] != i))
    r.check_true("the sum is commutative", is_commutative(carrier))

    units = [
        p for p in itertools.permutations(range(8))
        if is_homomorphism(p, carrier)
    ]
    r.check("the bijective homomorphisms form S3", 6, len(units))

    bad = 0
    for i, j in itertools.combinations(range(8), 2):
        union_le = carrier.add[i][j] == j
        if union_le != (sets[i] <= sets[j]):
            bad += 1
        union_ge = carrier.add[i][j] == i
        if union_ge != (sets[j] <= sets[i]):
            bad += 1
    r.check("constant order under the sum equals subset inclusion (28 pairs)",
            0, bad)
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
    out: Dict[str, Endo] = {}
    for name, recipe, _ in TABLE_ROWS:
        out[name] = tuple(by_letter[recipe[c]] for c in counts)
    return out


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

    labels = ["0", "T", "F", "TT", "TF", "FT", "FF"]
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
        bad = 0
        for i, elem in enumerate(c2.elements):
            got = ev_apply(e_data, elem, ctx)
            if got != c2.elements[endos8[name][i]]:
                bad += 1
        r.check(f"{name} from engine rewriting matches the table", 0, bad)
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
    endos = enumerate_endos(c)
    return classify(c, endos)


def bool_endo_names(rep) -> List[str]:
    """Name each endofunction by what it does to the two elements."""
    named = {
        (0, 1): "ID",
        (0, 0): "TRUE",
        (1, 1): "FALSE",
        (1, 0): "NOT",
    }
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
    bad = 0
    for i, row in enumerate(BOOL_PRODUCT):
        for j, want in enumerate(row):
            got = rep.product_table[idx[BOOL_NAMES[i]]][idx[BOOL_NAMES[j]]]
            if names[got] != want:
                bad += 1
    r.check("all 16 product entries", 0, bad)
    bad = 0
    for i, row in enumerate(BOOL_SUM):
        for j, want in enumerate(row):
            got = rep.sum_table[idx[BOOL_NAMES[i]]][idx[BOOL_NAMES[j]]]
            if names[got] != want:
                bad += 1
    r.check("all 16 sum entries", 0, bad)
    r.check("units", ["ID", "NOT"], sorted(names[i] for i in rep.units()))
    r.check("constants", ["FALSE", "TRUE"], sorted(names[i] for i in rep.constants()))
    r.check("field criteria agree", (True, True), rep.field)
    return r


def demo_fibonacci(k: int = 10) -> DemoReport:
    r = DemoReport("fibonacci")
    r.check(f"first {k} values", _fib_oracle(k), fibonacci(k))
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
