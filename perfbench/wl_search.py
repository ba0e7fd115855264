"""The `search` workload: one op is one law Verdict, as `coda search` and
the law checkers produce them.

A cycle holds every (known space, checker) pair once, in seeded order,
over default probes with a three-word alphabet, plus every candidate
that `search_spaces` screens, with max_len 2, for five seeded pools of
three words.  Each pool and each cycle's alphabet holds a fresh seeded
word, so no verdict's probes repeat within a run; warm-up words are
longer than timed ones, so warm-up never runs a timed verdict.  Spaces are
parsed while the inputs are generated, so the timed ops do no parsing.
"""

from __future__ import annotations

import itertools
import random
from typing import List

from coda import Budget, check_associative, check_distributive, check_idempotent, parse, prelude, word
from coda.algebra import HOLDS, REFUTED, UNDECIDED, ProbeSet, check_algebraic, default_probes, small_probes
from coda.encoding import lang_atom
from coda.lang import render
from coda.terms import COLON

from common import TIMED_WORD_LEN, WARMUP_WORD_LEN, Op, Problem, fresh_word, rng_for

NAME = "search"

CHECKERS = {
    "associative": check_associative,
    "distributive": check_distributive,
    "idempotent": check_idempotent,
    "algebraic": check_algebraic,
}

# Expected verdicts on default probes, from what each space does to a
# sequence (True: holds on probes, False: refuted).
#   pass        identity: not commutative, everything else holds
#   bool        () or (:) by emptiness: commutative; (:) (:) != (:)
#   not         swaps empty and non-empty: only commutative
#   sort        sorting: commutative, not distributive
#   once        first occurrences: order matters, not distributive
#   rev         reversal: nothing holds; rev.rev is the identity
#   is a b      keeps a and b in order: a filter, so it distributes; it
#               is refuted as commutative only because the alphabet
#               always holds both a and b
#   first 2     prefix of length 2: order matters, not distributive
#   sort once (is a b c)  finite sets under union: commutative
KNOWN = {
    "pass": (True, True, True, False),
    "bool": (True, False, True, True),
    "not": (False, False, False, True),
    "sort": (True, False, True, True),
    "once": (True, False, True, False),
    "rev": (False, False, False, False),
    "is a b": (True, True, True, False),
    "first 2": (True, False, True, False),
    "sort once (is a b c)": (True, False, True, True),
}

# cases a holding verdict runs, for P probes
FULL_CASES = {
    "associative": lambda p: 2 * p * p,
    "distributive": lambda p: p * p,
    "idempotent": lambda p: p,
    "algebraic": lambda p: p * p,
}

# The probe alphabet is a, b and one fresh seeded word that no space keeps.
ALPHABET_FIXED = ("a", "b")
# A cycle pairs up all of POOL_BOUND in seeded order, and each pair takes
# one fresh unbound word: every builtin is screened once per cycle, and
# every screening verdict has 4 probes (each unbound word adds one).
POOL_BOUND = ["pass", "bool", "not", "sort", "once", "rev", "null", "first", "last", "min"]
SCREEN_BUDGET = Budget(max_steps=2_000, max_nodes=50_000)  # as search_spaces uses

CYCLE_SECONDS = 8.5


def _verdict_invariants(v, probes: ProbeSet, full: int) -> Problem:
    """Rules every verdict must keep; a refutation's witness must still
    violate the law when re-evaluated in a fresh engine."""
    if v.status not in (HOLDS, REFUTED, UNDECIDED):
        return ("invariant", f"unknown status {v.status}")
    if v.status == REFUTED:
        if v.witness is None:
            return ("invariant", "refuted without a witness")
        if not v.witness.still_violates(prelude(), probes.budget):
            return ("wrong", "witness no longer violates the law")
        if not 1 <= v.checked <= full:
            return ("invariant", f"refuted after {v.checked} of {full} cases")
    elif v.checked != full:
        return ("invariant", f"{v.status} after {v.checked} of {full} cases")
    return None


def _show(v) -> str:
    out = f"{v.law} {v.status} {v.checked}"
    if v.witness is not None:
        out += f" {render(v.witness.lhs)} | {render(v.witness.rhs)}"
    return out


def _known_op(space_src: str, law: str, probes: ProbeSet) -> Op:
    space = parse(space_src)
    fn = CHECKERS[law]
    want_holds = KNOWN[space_src][list(CHECKERS).index(law)]
    full = FULL_CASES[law](len(probes.probes))

    def check(v) -> Problem:
        bad = _verdict_invariants(v, probes, full)
        if bad:
            return bad
        if v.holds != want_holds or v.status == UNDECIDED:
            want = HOLDS if want_holds else REFUTED
            return ("wrong", f"{law} of {space_src}: expected {want}, got {v.status}")
        return None

    return Op("known", f"{law} {space_src}", lambda: fn(space, probes, prelude()), check, _show)


def _screen_ops(words: List[str]) -> List[Op]:
    """Every candidate search_spaces(words, 2) screens, with its probes."""
    ctx = prelude()
    pool = [word(w) for w in words] + [lang_atom(w) for w in words] + [COLON]
    free = [w for w in words if not ctx.has_name(w)]
    probes = ProbeSet(small_probes(tuple(free)).probes, budget=SCREEN_BUDGET)
    full = 2 * len(probes.probes) ** 2
    ops = []
    for k in range(3):
        for combo in itertools.product(pool, repeat=k):
            cand = tuple(combo)
            ops.append(_screen_op(cand, probes, full, _screen_reference(cand, free)))
    return ops


def _screen_reference(cand, free) -> str:
    """The verdicts that follow from the term model alone: the empty
    candidate and the atoms (:) and `w` for an unbound word w leave
    (cand : X) inert, so distinct probes give distinct atoms (refuted);
    {w} for an unbound w is the constant map to w (holds)."""
    if not cand or cand == (COLON,):
        return REFUTED
    if len(cand) == 1:
        for w in free:
            if cand[0] == word(w):
                return REFUTED
            if cand[0] == lang_atom(w):
                return HOLDS
    return ""


def _screen_op(cand, probes: ProbeSet, full: int, want: str) -> Op:
    def check(v) -> Problem:
        bad = _verdict_invariants(v, probes, full)
        if bad:
            return bad
        if want and v.status != want:
            return ("wrong", f"associativity of {render(cand)}: expected {want}, got {v.status}")
        return None

    return Op("screen", f"screen {render(cand)}",
              lambda: check_associative(cand, probes, prelude()), check, _show)


def _fresh(rng: random.Random, length: int) -> str:
    return fresh_word(rng, length, prelude().names())


def _screens(rng: random.Random, word_len: int) -> List[Op]:
    ops: List[Op] = []
    bound = rng.sample(POOL_BOUND, len(POOL_BOUND))
    for pair in zip(bound[::2], bound[1::2]):
        ops += _screen_ops(list(pair) + [_fresh(rng, word_len)])
    return ops


def cycle(seed: int, index: int) -> List[Op]:
    rng = rng_for(NAME, seed, f"cycle{index}")
    ops = _screens(rng, TIMED_WORD_LEN)
    probes = default_probes(ALPHABET_FIXED + (_fresh(rng, TIMED_WORD_LEN),))
    ops += [_known_op(s, law, probes) for s in KNOWN for law in CHECKERS]
    rng.shuffle(ops)
    return ops


def warmup(seed: int) -> List[Op]:
    """Screening pools and the cheap verdicts (idempotence, commutativity
    of `not`) from a stream the timed cycles never use, with longer fresh
    words, so every checker and every space's builtins have run once."""
    rng = rng_for(NAME, seed, "warmup")
    ops = _screens(rng, WARMUP_WORD_LEN)
    probes = default_probes(ALPHABET_FIXED + (_fresh(rng, WARMUP_WORD_LEN),))
    ops += [_known_op(s, "idempotent", probes) for s in KNOWN]
    ops += [_known_op("not", law, probes) for law in CHECKERS]
    return ops
