"""The `eval` workload: a stream of distinct programs, each parsed,
evaluated and rendered, as `coda eval` and the REPL do.

Every cycle holds the same number of ops from each family (see FAMILIES),
with seeded parameters drawn from strata, so cycles cost about the same
whatever the seed.  Every timed program holds a fresh seeded word or a
seeded word list, so no program repeats within a run; warm-up draws its
words, budgets, depths and Fibonacci states from sets the timed ops never
use.  References are computed in plain Python.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from coda import Budget, add_definition, evaluate, parse, prelude, word
from coda.algebra import apply_to, product
from coda.lang import render
from coda.organic import N_SOURCE, inner, seq

from common import (TIMED_WORD_LEN, WARMUP_WORD_LEN, Op, Problem, expect, fresh_word,
                    random_words, rng_for, strata, words_text)

NAME = "eval"

# ops per cycle of each family; the shares are these over their sum
FAMILIES = {
    "arith": 6,
    "words": 8,
    "template": 6,
    "seq": 2,
    "session": 8,
    "budget": 7,
    "deep": 4,
}

# Seconds one cycle takes on the reference machine (Python 3.11, 2 cores);
# --seconds is turned into a whole number of cycles with it.
CYCLE_SECONDS = 1.0


@dataclass(frozen=True)
class Draws:
    """The parameter sets ops are drawn from; timed and warm-up sets are
    disjoint."""

    word_len: int
    budget_strata: Tuple[Tuple[int, int], ...]
    # Depths sit well below or well above today's recursion limits (pass
    # chains fail in the engine from about 500 and in the parser from
    # about 1000; paren nestings fail in the parser from about 500), so a
    # traced run, whose wrappers add frames, fails on exactly the same ops.
    pass_shallow: Tuple[int, ...]
    pass_deep: Tuple[int, ...]
    paren_shallow: Tuple[int, ...]
    paren_deep: int
    seq_range: Tuple[int, int]  # Fibonacci states (n:x) (n:y) with x, y in it


TIMED = Draws(TIMED_WORD_LEN, tuple((b, b + 1) for b in range(15, 29, 2)),
              (50, 100, 150), (700, 1500, 2000), (50, 100, 150), 700, (1, 60))
WARMUP = Draws(WARMUP_WORD_LEN, tuple((b, b) for b in range(8, 15)),
               (75, 125), (800, 1800), (75, 125), 800, (61, 70))


def _reserved() -> frozenset:
    return frozenset(prelude().names())


def _rep(w: str, n: int) -> str:
    return " ".join([w] * n)


def _program(family: str, src: str, want: str, label: str,
             ctx_of: Callable = prelude, expect_raise=None) -> Op:
    def run():
        out = evaluate(parse(src), ctx_of())
        return render(out.result), out.normalized, out.steps_used

    def check(res) -> Problem:
        text, normalized, steps = res
        if not normalized:
            return ("wrong", f"not normalized after {steps} steps")
        return expect(text, want)

    return Op(family, label, run, check, show=lambda res: res[0], expect_raise=expect_raise)


def _budget_op(steps: int, w: str) -> Op:
    src = f"while {{(B:B)}} : {w}"
    budget = Budget(max_steps=steps)

    def run():
        out = evaluate(parse(src), prelude(), budget)
        return render(out.result), out.normalized, out.steps_used

    def check(res) -> Problem:
        text, normalized, used = res
        if normalized:
            return ("wrong", "while {(B:B)} normalized; it must exhaust its budget")
        if used > steps:
            return ("invariant", f"steps_used {used} > budget {steps}")
        return None

    return Op("budget", f"budget {steps} on {w}", run, check,
              show=lambda res: f"{res[0]} normalized={res[1]} steps={res[2]}")


def _arith(rng: random.Random, draws: Draws, reserved) -> List[Op]:
    """Unary arithmetic, each op counting in its own fresh word."""
    ops = []

    def word():
        return fresh_word(rng, draws.word_len, reserved)

    for n, m in zip(strata(rng, 1, 40, 2), strata(rng, 1, 40, 2)):
        w = word()
        ops.append(_program("arith", f"ap const {_rep(w, n)} : {_rep(w, m)}", words_text([w] * (n * m)),
                            f"ap const {w}^{n} : {w}^{m}"))
    for k, m in zip(strata(rng, 1, 6, 2), strata(rng, 20, 300, 2)):
        w = word()
        ops.append(_program("arith", f"while remove {_rep(w, k)} : {_rep(w, m)}",
                            words_text([w] * (m % k)), f"while remove {w}^{k} : {w}^{m}"))
    for n, m in zip(strata(rng, 1, 500, 2), strata(rng, 1, 500, 2)):
        w = word()
        ops.append(_program("arith", f"min {_rep(w, n)} : {_rep(w, m)}", words_text([w] * min(n, m)),
                            f"min {w}^{n} : {w}^{m}"))
    return ops


def _dedupe(items: Sequence[str]) -> List[str]:
    seen: Dict[str, None] = {}
    for w in items:
        seen.setdefault(w, None)
    return list(seen)


def _word_list(rng: random.Random, n: int, reserved) -> List[str]:
    """n words over a vocabulary of about n/2, so that repeats occur."""
    vocab = random_words(rng, max(2, n // 2), reserved)
    return [rng.choice(vocab) for _ in range(n)]


def _words(rng: random.Random, reserved) -> List[Op]:
    ops = []
    sizes = strata(rng, 10, 500, 8)
    kinds = ["sort", "once", "rev", "first"] * 2
    for kind, n in zip(kinds, sizes):
        ws = _word_list(rng, n, reserved)
        if kind == "sort":
            src, want = "sort : ", sorted(ws)
        elif kind == "once":
            src, want = "once : ", _dedupe(ws)
        elif kind == "rev":
            src, want = "rev : ", ws[::-1]
        else:
            k = rng.randint(1, n)
            src, want = f"first {k} : ", ws[:k]
        ops.append(_program("words", src + " ".join(ws), words_text(want),
                            f"{src.strip()} {n} words"))
    return ops


def _template(rng: random.Random, reserved) -> List[Op]:
    ops = []
    sizes = strata(rng, 10, 2000, 6)
    kinds = ["ap {B B}", "ap {(B:A) (A:B)}", "{B B}"] * 2
    for kind, n in zip(kinds, sizes):
        xs = random_words(rng, n, reserved)
        if kind == "ap {B B}":
            want = " ".join(f"{x} {x}" for x in xs)
        elif kind == "ap {(B:A) (A:B)}":
            want = " ".join(f"({x}:) (:{x})" for x in xs)
        else:
            want = " ".join(xs + xs)
        ops.append(_program("template", f"{kind} : " + " ".join(xs), want,
                            f"{kind} : {n} atoms"))
    return ops


@functools.lru_cache(maxsize=None)
def _fib_step():
    """The sum-of-last-two step of the number-sequence space, built as
    coda.organic.fibonacci builds it."""
    nseq = seq(parse(N_SOURCE), "n")
    return product(inner(nseq, "n", parse(N_SOURCE)), (word("last"), word("2")))


@functools.lru_cache(maxsize=None)
def _seq_states(seed: int, lo: int, hi: int) -> List[Tuple[int, int]]:
    """Every state (x, y) with lo <= x, y <= hi, in seeded order: cycle i
    takes the next ones, so states repeat only after all were used."""
    states = list(itertools.product(range(lo, hi + 1), repeat=2))
    rng_for(NAME, seed, f"seq{lo}-{hi}").shuffle(states)
    return states


def _seq(draws: Draws, seed: int, cycle: int) -> List[Op]:
    states = _seq_states(seed, *draws.seq_range)
    ops = []
    for i in range(FAMILIES["seq"]):
        x, y = states[(cycle * FAMILIES["seq"] + i) % len(states)]
        state = parse(f"(n:{_rep('a', x)}) (n:{_rep('a', y)})")
        src = render(apply_to(_fib_step(), state))
        ops.append(_program("seq", src, f"(n:{_rep('a', x + y)})", f"fibonacci step {x} {y}"))
    return ops


# bodies a session may define: source and the Python reference
BODIES = [
    ("sort", sorted),
    ("rev", lambda ws: ws[::-1]),
    ("once", _dedupe),
    ("{B B}", lambda ws: ws + ws),
    ("first 3", lambda ws: ws[:3]),
    ("pass", list),
]


def _session(rng: random.Random, cycle: int, draws: Draws, reserved) -> List[Op]:
    """REPL-style lines: `def` lines grow the session's context, calls use
    names defined earlier in the same session."""
    state = {"ctx": prelude()}
    defined: List[tuple] = []  # (name, reference)
    ops: List[Op] = []
    for k in range(FAMILIES["session"] // 2):
        name = f"s{cycle}x{k}{fresh_word(rng, draws.word_len, reserved)}"
        if defined and rng.random() < 0.3:
            target, ref = rng.choice(defined)
            body = target
        else:
            body, ref = rng.choice(BODIES)
        ops.append(_define_op(state, name, body))
        defined.append((name, ref))
        callee, ref = rng.choice(defined)
        ws = _word_list(rng, rng.randint(5, 50), reserved)
        ops.append(_program("session", f"{callee} : " + " ".join(ws), words_text(ref(ws)),
                            f"call {callee} on {len(ws)} words", lambda: state["ctx"]))
    return ops


def _define_op(state: dict, name: str, body: str) -> Op:
    line = f"def {name} : {body}"

    def run():
        before = state["ctx"]
        d = parse(line[4:])
        state["ctx"] = add_definition(before, d[0].left[0], d[0].right)
        return before, state["ctx"]

    def check(res) -> Problem:
        before, after = res
        if not after.has_name(name):
            return ("wrong", f"{name} is not bound after `{line}`")
        if len(after.defs) != len(before.defs) + 1:
            return ("invariant", "a def must add exactly one definition")
        return None

    return Op("session", line, run, check, show=lambda res: line)


def _deep(rng: random.Random, cycle: int, seed: int, draws: Draws, reserved) -> List[Op]:
    # Every cycle holds the deep paren nesting: it is the slowest op, so the
    # tail percentile falls inside its cluster rather than on an edge.  The
    # deep pass chain rotates with the cycle, so a run of a few cycles holds
    # each depth.  The innermost word is fresh, so no program repeats.
    # Above the limits the ops raise RecursionError today, by design.
    pass_deep = draws.pass_deep[(cycle + seed) % len(draws.pass_deep)]
    nests = [(rng.choice(draws.pass_shallow), None), (pass_deep, RecursionError)]
    parens = [(rng.choice(draws.paren_shallow), None), (draws.paren_deep, RecursionError)]
    ops = []
    for d, raises in nests:
        w = fresh_word(rng, draws.word_len, reserved)
        ops.append(_program("deep", "pass:" * d + w, w, f"pass chain {d} on {w}", expect_raise=raises))
    for d, raises in parens:
        w = fresh_word(rng, draws.word_len, reserved)
        ops.append(_program("deep", "(" * d + w + ")" * d, w, f"paren nesting {d} on {w}",
                            expect_raise=raises))
    return ops


def _assemble(rng: random.Random, cycle: int, seed: int, draws: Draws) -> List[Op]:
    reserved = _reserved()
    loose = (
        _arith(rng, draws, reserved)
        + _words(rng, reserved)
        + _template(rng, reserved)
        + _seq(draws, seed, cycle)
        + [_budget_op(rng.randint(lo, hi), fresh_word(rng, draws.word_len, reserved))
           for lo, hi in draws.budget_strata]
        + _deep(rng, cycle, seed, draws, reserved)
    )
    rng.shuffle(loose)
    # session lines keep their order; they are spread over the cycle
    session = _session(rng, cycle, draws, reserved)
    total = len(loose) + len(session)
    slots = set(rng.sample(range(total), len(session)))
    it_loose, it_session = iter(loose), iter(session)
    return [next(it_session) if i in slots else next(it_loose) for i in range(total)]


def cycle(seed: int, index: int) -> List[Op]:
    return _assemble(rng_for(NAME, seed, f"cycle{index}"), index, seed, TIMED)


def warmup(seed: int) -> List[Op]:
    """One cycle from a stream the timed cycles never use, with the
    disjoint WARMUP parameter sets."""
    return _assemble(rng_for(NAME, seed, "warmup"), 0, seed, WARMUP)
