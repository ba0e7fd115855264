"""Worked constructions: organic numbers, their subspaces, sequence spaces,
sets as semilattices, and bounded boolean sequences.

Each demo returns a DemoReport of machine-checked assertions, comparing
engine-level rewriting and carrier-level computation against independent
oracles (ints, `Fraction`, complex, `matrix_action`).  The integer, 2x2
matrix, Gaussian integer and rational arithmetic runs in the engine: a
homomorphism is data built by `hom` from the images of the generator
words, and its result is normalised by the space's own program, `sort` or
the cancellation built by `reduction`; `reduce_int`, `matrix_hom`,
`gauss_mult` and `sort_pair` only read the normal form.  A positive
rational n/d is N2's pair a^n b^d: adding n/d is the sort homomorphism of
the matrix (d 0; n d), and multiplying by n/d that of (n 0; 0 d).
organic-N's rem and multiplication maps are programs too (`REM_PROGRAMS`,
`ap const a^k` clamped by `first`), induced on the truncated carrier by
`induced_endo` and judged by the single-map checks.  The mediant is the
engine's, `sort` of the two pair data.  The boolean sequences' eight inner
maps are programs too (`TABLE_ROWS`), induced on the truncated carrier.
Only lowest terms are Python: no builtin divides out a gcd, so `QAtom.make`
and `q_add` reduce, and they serve as oracles only.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from .engine import DEFAULT_BUDGET, Budget, Context, evaluate
from .lang import parse, render
from .prelude import prelude
from .spacelab import (
    CarrierTable,
    Endo,
    TooManyEndos,
    _check_fmt,
    carrier_from_function,
    classify,
    enumerate_endos,
    extract_carrier,
    induced_endo,
    is_commutative,
    is_homomorphism,
    is_idempotent,
    is_subspace,
    isomorphisms,
)
from .terms import COLON, CapExceeded, Coda, Data, data_key

WORD_A = word("a")
WORD_B = word("b")


def ev(d: Data, ctx: Optional[Context] = None, budget: Budget = DEFAULT_BUDGET) -> Data:
    """The normal form of `d`; exhausting the budget raises ValueError."""
    out = evaluate(d, ctx or prelude(), budget)
    if not out.normalized:
        raise ValueError(f"{render(d)} exhausts the budget")
    return out.result


def ev_apply(f: Data, x: Data, ctx: Optional[Context] = None,
             budget: Budget = DEFAULT_BUDGET) -> Data:
    return ev(apply_to(f, x), ctx, budget)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Assertion:
    """What a demo expected and what it got, as text; it passes when the two
    texts are equal."""
    description: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass
class DemoReport:
    name: str
    assertions: List[Assertion] = field(default_factory=list)

    def check(self, description: str, expected, actual) -> bool:
        self.assertions.append(Assertion(description, str(expected), str(actual)))
        return self.assertions[-1].passed

    def check_true(self, description: str, condition) -> bool:
        return self.check(description, True, bool(condition))

    def check_none(self, description: str, failures: Iterable) -> bool:
        """A quantified assertion: `failures` yields the failing cases.  It
        passes when there are none, and its actual text is 0; otherwise that
        text says how many there were and the first."""
        count = 0
        for count, case in enumerate(failures, 1):
            if count == 1:
                first = case
        return self.check(description, 0, f"{count} failing, first {first}" if count else 0)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self, fmt: str = "text") -> str:
        """The assertions as text or TSV; any other `fmt` is a ValueError."""
        _check_fmt(fmt)
        if fmt == "tsv":
            return "\n".join(
                "\t".join([self.name, "ok" if a.passed else "FAIL", a.description,
                           a.expected, a.actual])
                for a in self.assertions
            )
        lines = [f"  ok   {a.description}" if a.passed
                 else f"  FAIL {a.description} (expected {a.expected}, got {a.actual})"
                 for a in self.assertions]
        n_ok = sum(a.passed for a in self.assertions)
        return "\n".join([f"demo {self.name}", *lines,
                          f"  {n_ok}/{len(self.assertions)} assertions passed"])


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

    Tokens are the given words, each once, a brace-quoted variant of each
    word, and the literal atom (:).  With no words at all only the literal
    candidates remain.  Counted one length at a time, more than `cap`
    candidates raise CapExceeded.  The probes are `small_probes` over the free
    words, or the first two free letters if none, plus their words of length 2;
    candidates associative on them are reported in canonical order, shortest first.
    """
    ctx = ctx if ctx is not None else prelude()
    words = list(dict.fromkeys(words))
    pool: List[Coda] = [word(w) for w in words]
    pool += [lang_atom(w) for w in words]
    pool.append(COLON)
    totals = itertools.accumulate(len(pool) ** k for k in range(max_len + 1))
    if any(total > cap for total in totals):
        raise CapExceeded(f"more than {cap} candidates")
    free = [w for w in words if not ctx.has_name(w)]
    free = free or [x for x in string.ascii_lowercase if not ctx.has_name(x)][:2]
    pairs = tuple(itertools.product(map(word, free), repeat=2))
    probes = ProbeSet(small_probes(free).probes + pairs, Budget(max_steps=2_000, max_nodes=50_000))
    results: List[SearchResult] = []
    for k in range(max_len + 1):
        for combo in itertools.product(pool, repeat=k):
            cand = tuple(combo)
            verdict = check_associative(cand, probes, ctx)
            if verdict.holds:
                results.append(SearchResult(cand, verdict))
    results.sort(key=lambda r: data_key(r.candidate))
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


# rem(p, q) as a program: each induces rem_value(p, q, .) on the carrier
REM_PROGRAMS: Dict[Tuple[int, int], str] = {
    (2, 2): "while remove a a",
    (3, 3): "while remove a a a",
    (5, 5): "while remove a a a a a",
    (1, 3): "min a a",
    (2, 4): "{min a a (while remove a a : B) : B}",
}


def organic_N() -> DemoReport:
    r = DemoReport("organic-n")
    n_space = parse(N_SOURCE)

    r.check_none("addition equals natural addition for all m,n <= 16", (
        (m, n) for m in range(17) for n in range(17)
        if ev_apply(n_space, a_data(m) + a_data(n)) != a_data(m + n)))

    triple = parse("ap const a a a")
    r.check("(ap const a a a) : a a is a^6",
            render(a_data(6)), render(ev_apply(triple, a_data(2))))
    r.check_none("(ap const a a a) multiplies by 3 for n <= 8", (
        n for n in range(9) if ev_apply(triple, a_data(n)) != a_data(3 * n)))

    h6 = product(parse("ap const a a"), parse("ap const a a a"))
    r.check_none("composition of x2 and x3 acts as x6", (
        n for n in range(6) if ev_apply(h6, a_data(n)) != a_data(6 * n)))

    r.check("(while remove a a a : a^7) reduces to a",
            render(a_data(1)), render(ev(parse("while remove a a a : a a a a a a a"))))
    r.check("(min a a : a^5) saturates at a^2",
            render(a_data(2)), render(ev(parse("min a a : a a a a a"))))

    carrier = bounded_n_carrier()
    rem = {pq: induced_endo(carrier, parse(src)) for pq, src in REM_PROGRAMS.items()}
    r.check("rem(3,3)(7)", 1, rem[3, 3][7])
    r.check("rem(1,3)(5)", 2, rem[1, 3][5])
    r.check("rem(2,2)(4)", 0, rem[2, 2][4])

    for p in (2, 3, 5):
        r.check_none(f"rem({p},{p}) equals mod {p} on the carrier",
                     (n for n in range(carrier.size) if rem[p, p][n] != n % p))
    for p, q in ((3, 3), (1, 3), (2, 4)):
        r.check_true(f"rem({p},{q}) is idempotent", is_idempotent(rem[p, q]))
        r.check_true(f"rem({p},{q}) is a subspace", is_subspace(rem[p, q], carrier))

    # multiplication by k, clamped at the carrier's top by `first`; no
    # centrality check, as the only unit named here is x1, which commutes
    # with every map
    clamp = parse(f"first {carrier.size - 1}")
    mults = [induced_endo(carrier, product(clamp, (word("ap"), word("const")) + a_data(k)))
             for k in range(5)]
    r.check_true("constants embed as multiplication homomorphisms",
                 len(set(mults)) == len(mults)
                 and all(is_homomorphism(m, carrier) for m in mults))
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


def mediant(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    """The mediant of two (numerator, denominator) pairs: the counts of the
    engine's sort of the sum of their pair data, not reduced."""
    return sort_pair(ev_apply(SORT, pair_data(*x) + pair_data(*y)))


def demo_N2() -> DemoReport:
    r = DemoReport("n2")

    r.check("sort of b a a b a", "a a a b b",
            render(ev(parse("sort : b a a b a"))))

    r.check_none("reduce matches integer addition for |z| <= 4", (
        (z1, z2) for z1 in range(-4, 5) for z2 in range(-4, 5)
        if reduce_int(int_data(z1) + int_data(z2)) != z1 + z2))
    r.check("reduce of a^2 b^3 is b", render(int_data(-1)),
            render(ev_apply(Z_REDUCE, parse("a a b b b"))))

    r.check_none("central homomorphisms of reduce act as integer multiplication", (
        (k, z) for k in range(-3, 4) for z in range(-4, 5)
        if reduce_int(apply_to(hom({"a": int_data(k), "b": int_data(-k)}), int_data(z)))
        != k * z))

    got = matrix_hom((1, 1, 1, 0), pair_data(1, 1))
    r.check("matrix (1 1; 1 0) on a b", "a a b", render(got))
    rng = random.Random(7)
    cases = [(tuple(rng.randrange(5) for _ in range(4)), (rng.randrange(4), rng.randrange(4)))
             for _ in range(40)]
    r.check_none("sort homomorphisms act as 2x2 natural matrices", (
        (mat, v) for mat, v in cases
        if matrix_hom(mat, pair_data(*v)) != pair_data(*matrix_action(mat, v))))
    cases = [(tuple(rng.randrange(4) for _ in range(4)),
              pair_data(rng.randrange(3), rng.randrange(3)),
              pair_data(rng.randrange(3), rng.randrange(3))) for _ in range(20)]
    r.check_none("matrix maps distribute over the sorted sum", (
        (mat, x, y) for mat, x, y in cases
        if ev_apply(product(matrix_data(mat), SORT), x + y)
        != ev_apply(SORT, matrix_hom(mat, x) + matrix_hom(mat, y))))

    swap = matrix_data((0, 1, 1, 0))
    commutes = lambda mat: all(
        ev_apply(product(matrix_data(mat), swap), pair_data(m, n))
        == ev_apply(product(swap, matrix_data(mat)), pair_data(m, n))
        for m in range(3) for n in range(3)
    )
    r.check_true("symmetric matrix (2 1; 1 2) commutes with the swap", commutes((2, 1, 1, 2)))
    r.check_true("matrix (1 1; 0 1) does not commute with the swap",
                 not commutes((1, 1, 0, 1)))

    collapsed = (lang_atom("(is a:B) (once : is b:B)"),)
    r.check_none("sort with b b collapsed adds as (n+m, alpha or beta)", (
        (n1, a1, n2, a2)
        for n1, a1, n2, a2 in itertools.product(range(5), (0, 1), range(5), (0, 1))
        if ev_apply(collapsed, pair_data(n1, a1) + pair_data(n2, a2))
        != pair_data(n1 + n2, a1 | a2)))

    r.check("mediant of 1/2 and 1/3", (2, 5), mediant((1, 2), (1, 3)))
    r.check_none("the mediant of x and y is (x0 + y0)/(x1 + y1)", (
        (x, y) for x in [(1, 2), (2, 3), (1, 4), (3, 5)] for y in [(1, 3), (1, 2), (2, 5)]
        if Fraction(*mediant(x, y)) != Fraction(x[0] + y[0], x[1] + y[1])))
    return r


# ---------------------------------------------------------------------------
# Gaussian integers from (is a b c d): a, b, c, d stand for 1, -1, i, -i

def gauss_data(z: Tuple[int, int]) -> Data:
    re, im = z
    return int_data(re) + ((word("c"),) * im if im >= 0 else (word("d"),) * -im)


def gauss_value(d: Data) -> Tuple[int, int]:
    """The engine's reduce normal form of a/b/c/d data, read as re + im i."""
    nf = ev_apply(ZI_REDUCE, d)
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
    r.check("sort of d a c b", "a b c d", render(ev(parse("sort : d a c b"))))
    r.check("a b and c d cancel in the reduction", (0, 0), gauss_value(parse("a b c d")))

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
        if gauss_value(apply_to(product(gauss_hom(u), j), gauss_data(x)))
        != gauss_value(apply_to(product(j, gauss_hom(u)), gauss_data(x)))))

    cases = [(pick(3), pick(3), pick(3)) for _ in range(10)]
    r.check_none("multiplication distributes over the sum", (
        (u, x, y) for u, x, y in cases
        if gauss_value(apply_to(gauss_hom(u), gauss_data(x) + gauss_data(y)))
        != gauss_value(apply_to(gauss_hom(u), gauss_data(x))
                       + apply_to(gauss_hom(u), gauss_data(y)))))
    return r


# ---------------------------------------------------------------------------
# Positive rationals: n/d is the pair data a^n b^d, and sums and products are
# sort homomorphisms.  QAtom and q_add are oracles: they keep lowest terms,
# which no builtin does.

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


def q_add(x: Optional[QAtom], y: Optional[QAtom]) -> Optional[QAtom]:
    if x is None:
        return y
    if y is None:
        return x
    return QAtom.make(
        x.numerator * y.denominator + y.numerator * x.denominator,
        x.denominator * y.denominator,
    )


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
    plus = lambda y: (y[1], 0, y[0], y[1])  # (d 0; n d) adds n/d
    times = lambda u: (u[0], 0, 0, u[1])  # (n 0; 0 d) multiplies by n/d
    value = lambda d: Fraction(*sort_pair(d))

    r.check("1/2 + 1/3", Fraction(5, 6), value(matrix_hom(plus((1, 3)), pair_data(1, 2))))

    rng = random.Random(5)
    pick = lambda: (rng.randint(1, 4), rng.randint(1, 4))
    cases = [(pick(), pick()) for _ in range(10)]
    r.check_none("adding n/d as the matrix (d 0; n d) follows the sum rule", (
        (x, y) for x, y in cases
        if value(matrix_hom(plus(y), pair_data(*x))) != Fraction(*x) + Fraction(*y)))

    cases = [(pick(), pick()) for _ in range(10)]
    r.check_none("multiplying by n/d as the matrix (n 0; 0 d) follows the product rule", (
        (u, x) for u, x in cases
        if value(matrix_hom(times(u), pair_data(*x))) != Fraction(*u) * Fraction(*x)))

    cases = [(pick(), pick(), pick()) for _ in range(5)]
    r.check_none("multiplication is a homomorphism of the sum", (
        (u, x, y) for u, x, y in cases
        if value(matrix_hom(times(u), matrix_hom(plus(y), pair_data(*x))))
        != value(matrix_hom(plus(sort_pair(matrix_hom(times(u), pair_data(*y)))),
                            matrix_hom(times(u), pair_data(*x))))))

    cases = [(pick(), pick()) for _ in range(5)]
    r.check_none("every sampled nonzero multiplication has an inverse", (
        (u, x) for u, x in cases
        if value(matrix_hom(times(u[::-1]), matrix_hom(times(u), pair_data(*x))))
        != Fraction(*x)))
    return r


# ---------------------------------------------------------------------------
# Sequence spaces

def seq(space: Data, marker: str) -> Data:
    """The space of `space`-values stored one per coda `(marker:value)`."""
    m = word(marker)
    chain = product_chain((word("put"), m), tuple(space), (word("get"), m))
    return (word("ap"),) + chain


def inner(space: Data, marker: str, f: Data) -> Data:
    """Let f act on the concatenated contents, returning one `(marker:...)` coda."""
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
    nseq = seq(parse(N_SOURCE), "n")
    step = product(inner(nseq, "n", parse(N_SOURCE)), (word("last"), word("2")))
    state = tuple(parse("(n:a) (n:a)"))
    while len(vals) < k:
        nxt = ev_apply(step, state, budget=FIB_BUDGET)
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
    nseq = seq(parse(N_SOURCE), "n")
    t = parse("(n:a a a) (n:) (n:a a) (n:a) (n:)")

    r.check("the sequence space fixes its own data", render(t),
            render(ev_apply(nseq, t)))
    r.check("sum : T", "(n:a a a a a a)",
            render(ev_apply(inner(nseq, "n", parse(N_SOURCE)), t)))
    r.check("sort : T", "(n:) (n:) (n:a) (n:a a) (n:a a a)",
            render(ev(parse("sort : (n:a a a) (n:) (n:a a) (n:a) (n:)"))))
    r.check("min : T", "(n:)",
            render(ev(parse("min : (n:a a a) (n:) (n:a a) (n:a) (n:)"))))
    r.check("first : T", "(n:a a a)",
            render(ev(parse("first : (n:a a a) (n:) (n:a a) (n:a) (n:)"))))
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
    space = sets_space()
    probes = ProbeSet(((), (word("a"),), (word("b"),), (word("c"),), parse("a b c")))
    carrier = extract_carrier(space, probes, cap=16)

    r.check("carrier holds the 8 subsets", 8, carrier.size)
    r.check_true("the table is closed", carrier.closed)
    r.check("neutral is the empty set", "()", carrier.label(carrier.neutral))
    r.check("a + b through the engine", "a b",
            render(ev_apply(space, parse("a b"))))

    sets = [_element_set(e) for e in carrier.elements]
    r.check_none("the carrier sum is set union on all 64 pairs", (
        (i, j) for i, j in itertools.product(range(8), range(8))
        if sets[carrier.add[i][j]] != sets[i] | sets[j]))
    r.check_none("every element is sum-idempotent",
                 (i for i in range(8) if carrier.add[i][i] != i))
    r.check_true("the sum is commutative", is_commutative(carrier))

    units = list(isomorphisms(carrier, carrier))
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
    return product_chain(lseq, (word("first"), word(str(n))), lseq)


def _bool_probes() -> ProbeSet:
    singles = [(), T_ELEM, F_ELEM]
    pairs = [x + y for x in (T_ELEM, F_ELEM) for y in (T_ELEM, F_ELEM)]
    return ProbeSet(tuple(singles + pairs))


def _colon_count(d: Data) -> int:
    return sum(len(c.right) for c in d)


# each map's program, run on the contents of the b atoms
TABLE_ROWS = [
    ("e1", "const", "always"),
    ("e2", "{bool : remove (:) : B}", "any"),
    ("e3", "{bool : while remove (:) (:) : B}", "even"),
    ("e4", "bool", "all"),
    ("e5", "not", "notall"),
    ("e6", "{not : while remove (:) (:) : B}", "odd"),
    ("e7", "{not : remove (:) : B}", "none"),
    ("e8", "const (:)", "never"),
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
    """The eight inner endomorphisms, each induced on the carrier by the
    inner map of its `TABLE_ROWS` program."""
    space = bool_seq_space()
    return {name: induced_endo(carrier, inner(space, "b", parse(src)))
            for name, src, _ in TABLE_ROWS}


def demo_bool_sequences() -> DemoReport:
    r = DemoReport("bool-seq")
    probes = _bool_probes()

    l1 = bool_seq_truncated(1)
    c1 = extract_carrier(l1, probes, cap=8)
    r.check("L1 carrier elements", 3, c1.size)
    endos = enumerate_endos(c1)
    r.check("L1 endomorphism count", 27, len(endos))
    rep = classify(c1, endos)
    r.check("L1 units", 6, len(rep.units()))
    r.check("L1 constants", 3, len(rep.constants()))

    l2 = bool_seq_truncated(2)
    c2 = extract_carrier(l2, probes, cap=16)
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
    c = extract_carrier(parse("bool"), ProbeSet(((), (COLON,))), cap=4)
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
