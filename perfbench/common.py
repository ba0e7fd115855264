"""Pieces shared by the three workloads: the op record, seeded draws and
the reference helpers that do not touch the engine."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Collection, List, Optional, Sequence, Tuple, Type

# A check returns None when the op's output is correct, otherwise a pair
# (kind, message) where kind is "wrong" (differs from the reference) or
# "invariant" (breaks a rule such as steps_used <= budget).
Problem = Optional[Tuple[str, str]]


@dataclass
class Op:
    """One unit of user work.

    `run` is the only part that is timed.  `label` names the op and its
    parameters; the op-list digest hashes the labels, so the same seed
    must give the same labels.  `show` renders the output for the outputs
    digest and runs outside the timed region, like `check`.
    `expect_raise` names the exception an op is known to raise today (a
    RecursionError above the recursion limits): it still counts as a
    failed op, but any other exception makes the run incorrect.
    """

    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Problem]
    show: Callable[[object], str] = str
    expect_raise: Optional[Type[BaseException]] = None


# Fresh words of timed ops have TIMED_WORD_LEN letters and those of warm-up
# ops WARMUP_WORD_LEN, so warm-up never runs a timed input: a cache that
# lasts across calls cannot win by having seen it.
TIMED_WORD_LEN, WARMUP_WORD_LEN = 5, 6


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """An independent generator per (workload, seed, stream).  String seeds
    are hashed with SHA-512 by `random`, so they do not depend on
    PYTHONHASHSEED."""
    return random.Random(f"coda-bench/{workload}/{seed}/{stream}")


def strata(rng: random.Random, lo: int, hi: int, k: int) -> List[int]:
    """k integers from [lo, hi], one drawn from each of k equal-width
    strata, in random order.  Stratifying keeps the cost of a cycle close
    to its mean whatever the seed."""
    width = (hi - lo + 1) / k
    out = [
        rng.randint(lo + int(i * width), max(lo + int(i * width), lo + int((i + 1) * width) - 1))
        for i in range(k)
    ]
    rng.shuffle(out)
    return out


def expect(got: str, want: str) -> Problem:
    if got == want:
        return None
    return ("wrong", f"expected {_clip(want)!r}, got {_clip(got)!r}")


def _clip(s: str, n: int = 80) -> str:
    return s if len(s) <= n else s[:n] + f"...({len(s)} chars)"


def words_text(items: Sequence[str]) -> str:
    """How coda.lang.render prints a sequence of word atoms."""
    return " ".join(items) if items else "()"


def random_words(rng: random.Random, n: int, reserved: Collection[str]) -> List[str]:
    """n lowercase words of 1-8 letters that name no prelude definition."""
    lengths = rng.choices(range(1, 9), k=n)
    letters = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=sum(lengths)))
    out, at = [], 0
    for k in lengths:
        w = letters[at:at + k]
        at += k
        while w in reserved:
            w = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=k))
        out.append(w)
    return out


def fresh_word(rng: random.Random, length: int, reserved: Collection[str]) -> str:
    """A seeded lowercase word of `length` letters that names no prelude
    definition; with 26^5 or more of them, draws practically never repeat."""
    while True:
        w = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=length))
        if w not in reserved:
            return w
