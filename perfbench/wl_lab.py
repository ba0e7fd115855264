"""The `lab` workload: one op is one analysis call, made the way
`coda space analyze` and `coda demo` users make it.

A cycle holds carrier extractions, enumerate/classify/render triples on
carriers of at most four elements, field checks on Z_n and saturation
carriers (n <= 7) and on L2, and the nine demos.  The seed shuffles the
op order, the probe order of each extraction and the element order of the
carriers that are classified, and draws the three words of the sets space
afresh in every cycle.  The rest is a fixed catalogue that every cycle
repeats by design, as users analyse the same known spaces: the bool, L1-L3
and `first 2` spaces, the oracle tables and the demos.  A cache that lasts
across calls would win on lab for that reason alone, so such a change must
show its gain on eval and search, whose inputs never repeat.  Warm-up uses
only spaces and carriers that no timed op uses.
classify(Z5) is left out: it takes about 80 s, longer than a whole run,
and Z4 runs the same code path.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from typing import List, Optional, Sequence

from coda import classify, enumerate_endos, extract_carrier, field_check, parse, prelude
from coda import cli
from coda.algebra import ProbeSet, default_probes, product_chain
from coda.encoding import word
from coda.organic import DEMOS, F_ELEM, T_ELEM, bool_seq_truncated
from coda.spacelab import carrier_from_function, render_report
from coda.terms import COLON

from common import TIMED_WORD_LEN, Op, Problem, fresh_word, rng_for

NAME = "lab"
CYCLE_SECONDS = 9.4


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# Oracle carriers: (name, values, add, neutral, expected field verdict,
# expected commutativity).  The field verdicts follow from the algebra:
# Z_n is a field exactly when n is prime; saturation q >= 3 has the
# non-constant, non-bijective homomorphism x -> (0 if x == 0 else q-1);
# in L1 and L2 the map x -> (x with every letter set to T) is one too.
def _zn(n):
    return (f"Z{n}", list(range(n)), lambda x, y: (x + y) % n, 0, (_is_prime(n),) * 2, True)


def _sat(q):
    return (f"sat{q}", list(range(q)), lambda x, y: min(x + y, q - 1), 0, (q == 2,) * 2, True)


def _seqs(n):
    """Boolean sequences of length <= n >= 1 under truncated concatenation."""
    values = [tuple(p) for k in range(n + 1) for p in itertools.product("TF", repeat=k)]
    return (f"L{n}", values, lambda x, y: (x + y)[:n], (), (False, False), False)


CLASSIFY_CARRIERS = [_zn(2), _zn(3), _zn(4), _sat(2), _sat(3), _sat(4), _seqs(1)]
FIELD_CARRIERS = [_zn(n) for n in range(2, 8)] + [_sat(q) for q in range(2, 8)] + [_seqs(2)]


def _label(v) -> str:
    return ("".join(v) or "0") if isinstance(v, tuple) else str(v)


def _carrier(spec, rng: Optional[random.Random] = None):
    """The oracle carrier, with its elements shuffled when `rng` is given."""
    name, values, add, neutral, _, _ = spec
    order = list(values)
    if rng is not None:
        rng.shuffle(order)
    return carrier_from_function(order, add, neutral, to_data=lambda v: (word(_label(v)),),
                                 labels=[_label(v) for v in order])


def _classify_unit(spec, rng: random.Random) -> List[Op]:
    name, values, _, _, field, commutative = spec
    n = len(values)
    carrier = _carrier(spec, rng)
    state = {}

    def enumerate_run():
        state["endos"] = enumerate_endos(carrier)
        return state["endos"]

    def classify_run():
        state["report"] = classify(carrier, state["endos"])
        return state["report"]

    def check_enum(endos) -> Problem:
        return None if len(endos) == n ** n else ("wrong", f"{len(endos)} endos, expected {n ** n}")

    def check_report(rep) -> Problem:
        got = (len(rep.endos), len(rep.constants()), len(rep.units()), rep.field, rep.algebraic)
        want = (n ** n, n, math.factorial(n), field, commutative)
        return None if got == want else ("wrong", f"(endos, constants, units, field, algebraic) {got} != {want}")

    def check_text(text) -> Problem:
        lines = text.split("\n")
        if f"endomorphisms: {n ** n}" not in lines or len(lines) != 2 * n ** n + 15:
            return ("wrong", f"report has {len(lines)} lines, expected {2 * n ** n + 15}")
        return None

    def show_report(rep) -> str:
        return f"{rep.units()} {rep.constants()} {rep.homomorphisms()} {rep.subspaces()} {rep.field}"

    return [
        Op("enumerate", f"enumerate_endos {name}", enumerate_run, check_enum, show=lambda e: str(len(e))),
        Op("classify", f"classify {name}", classify_run, check_report, show=show_report),
        Op("render", f"render_report {name}", lambda: render_report(state["report"]), check_text),
    ]


def _field_op(spec) -> Op:
    # natural element order: field_check stops early on a failing criterion,
    # so its cost depends on the order (sat7 by a factor of five)
    name, _, _, _, field, _ = spec
    carrier = _carrier(spec)

    def check(got) -> Problem:
        return None if got == field else ("wrong", f"field_check {name} = {got}, expected {field}")

    return Op("field", f"field_check {name}", lambda: field_check(carrier), check)


def _extract_op(name: str, space, probes: Sequence, cap: int, size: int, rng: random.Random,
                labels: Sequence[str] = ()) -> Op:
    probes = list(probes)
    rng.shuffle(probes)
    ps = ProbeSet(tuple(probes))

    def check(c) -> Problem:
        got = [c.label(i) for i in range(c.size)]
        if c.size != size or not c.closed:
            return ("wrong", f"carrier of {name}: size {c.size} closed {c.closed}, expected {size} closed")
        if labels and got != list(labels):
            return ("wrong", f"carrier of {name}: elements {got}, expected {list(labels)}")
        return None

    def show(c) -> str:
        return f"{[c.label(i) for i in range(c.size)]} {c.add}"

    return Op("extract", f"extract_carrier {name}", lambda: extract_carrier(space, ps, cap=cap), check, show)


BOOL_SEQ_PROBES = [(), T_ELEM, F_ELEM] + [x + y for x in (T_ELEM, F_ELEM) for y in (T_ELEM, F_ELEM)]


def _sets_op(rng: random.Random) -> Op:
    """The sets demo's space `sort once (is a b c)` and probes, over three
    fresh words: the 2^3 subsets of them."""
    reserved = prelude().names()
    names = set()
    while len(names) < 3:
        names.add(fresh_word(rng, TIMED_WORD_LEN, reserved))
    names = sorted(names)
    xs = " ".join(names)
    space = product_chain((word("sort"),), (word("once"),), parse(f"is {xs}"))
    probes = [()] + [(word(n),) for n in names] + [parse(xs)]
    return _extract_op(f"sort once (is {xs})", space, probes, 16, 8, rng)


def _extract_ops(rng: random.Random) -> List[Op]:
    return [
        _extract_op("bool", parse("bool"), [(), (COLON,)], 4, 2, rng, ["()", "(:)"]),
        _sets_op(rng),
        # boolean sequences of length <= n: 2^(n+1) - 1 of them
        _extract_op("L1", bool_seq_truncated(1), BOOL_SEQ_PROBES, 8, 3, rng),
        _extract_op("L2", bool_seq_truncated(2), BOOL_SEQ_PROBES, 16, 7, rng),
        _extract_op("L3", bool_seq_truncated(3), BOOL_SEQ_PROBES, 64, 15, rng),
        # first 2 fixes every probe: the 1 + 9 + 81 pure data of width and depth <= 2
        _extract_op("first 2", parse("first 2"), default_probes().probes, 64, 91, rng),
    ]


def _demo_op(name: str) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["demo", name])
        return rc, buf.getvalue()

    def check(res) -> Problem:
        rc, text = res
        last = text.rstrip("\n").rsplit("\n", 1)[-1].split()
        passed, _, total = last[0].partition("/") if last else ("", "", "")
        if rc != 0 or not total or passed != total:
            return ("wrong", f"demo {name} exited {rc}: {last}")
        return None

    return Op("demo", f"demo {name}", run, check, show=lambda res: res[1])


def cycle(seed: int, index: int) -> List[Op]:
    rng = rng_for(NAME, seed, f"cycle{index}")
    units: List[List[Op]] = [[op] for op in _extract_ops(rng)]
    units += [_classify_unit(spec, rng) for spec in CLASSIFY_CARRIERS]
    units += [[_field_op(spec)] for spec in FIELD_CARRIERS]
    units += [[_demo_op(name)] for name in sorted(DEMOS)]
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def _chain(n: int):
    """{0..n-1} under max: a carrier no timed op uses."""
    return (f"max{n}", list(range(n)), max, 0, (n == 2,) * 2, True)


def warmup(seed: int) -> List[Op]:
    """Every lab code path once, on inputs the timed cycles never use: a
    four-subset space, max-semilattice chains, and `coda count` for the
    CLI.  The demos have no inputs, so they are not warmed up."""
    rng = rng_for(NAME, seed, "warmup")
    ab = [(), (word("a"),), (word("b"),), parse("a b")]
    ops = [_extract_op("sort once (is a b)", parse("sort once (is a b)"), ab, 8, 4, rng)]
    ops += _classify_unit(_chain(3), rng)
    ops.append(_field_op(_chain(5)))

    def count():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["count", "--width", "2", "--depth", "2"])

    ops.append(Op("cli", "count 2 2", count, lambda rc: None if rc == 0 else ("wrong", f"exit {rc}")))
    return ops
