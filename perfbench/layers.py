"""Per-layer tracing, installed from outside the package.

`Tracer.install()` wraps the public entry points of each coda module (and
the builtins' `Definition.apply` in the prelude context) with spans.  A
span has a name, start, end, parent span and op id; spans are kept in
memory, in compact arrays, and written out when the run ends.  Per-layer
times are folded in as each span closes, so they stay exact even past
SPAN_CAP, after which spans are only counted as dropped.

A layer's self time is its spans' durations minus the time their child
spans cover.  Re-entering the layer that is already on top of the stack
(the engine recursing into itself, cmp_data into cmp_coda) opens no new
span, so only layer boundaries are recorded.

Nothing here runs unless --trace 1 is given: the end-to-end run imports
this module but never installs it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

LAYERS = ("op", "cli", "organic", "spacelab", "algebra", "lang", "engine", "prelude", "encoding", "terms")
SPAN_CAP = 1_000_000

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  Counts of work are better lower: the same ops
# done with fewer steps, codas or cases.  The order is the output order.
METRICS = {
    "terms.coda_new": ("count", "lower", "peak_rss_mb and ops_per_s on search"),
    "terms.cmp_calls": ("count", "lower", "op_p50_ms on lab"),
    "terms.cmp_s": ("s", "lower", "op_p50_ms on lab"),
    "encoding.decode_calls": ("count", "lower", "ops_per_s on eval (words, template)"),
    "encoding.decode_s": ("s", "lower", "ops_per_s on eval (words, template)"),
    "lang.parse_calls": ("count", "lower", "op_tail_ms on eval"),
    "lang.parse_s": ("s", "lower", "op_tail_ms on eval"),
    "lang.parse_bytes_per_s": ("B/s", "higher", "op_tail_ms on eval"),
    "lang.template_calls": ("count", "lower", "ops_per_s on eval"),
    "lang.template_s": ("s", "lower", "ops_per_s on eval"),
    "lang.render_s": ("s", "lower", "op_p50_ms on eval"),
    "lang.recursion_errors": ("count", "lower", "failed ops on eval"),
    "engine.evaluations": ("count", "lower", "ops_per_s on eval and search"),
    "engine.steps": ("count", "lower", "ops_per_s on eval and search"),
    "engine.self_s": ("s", "lower", "ops_per_s on eval and search"),
    "engine.steps_per_s": ("1/s", "higher", "ops_per_s on eval and search"),
    "engine.normalized_ratio": ("ratio", "higher", "op_tail_ms on eval"),
    "engine.tri_equal_calls": ("count", "lower", "ops_per_s on search"),
    "engine.tri_equal_s": ("s", "lower", "ops_per_s on search"),
    "engine.binds": ("count", "lower", "op_p50_ms on eval"),
    "engine.bind_s": ("s", "lower", "op_p50_ms on eval"),
    "engine.recursion_errors": ("count", "lower", "failed ops on eval"),
    "prelude.rewrites": ("count", "lower", "ops_per_s on eval"),
    "prelude.self_s": ("s", "lower", "ops_per_s on eval"),
    "prelude.stuck_ratio": ("ratio", "lower", "ops_per_s on eval"),
    "algebra.verdicts": ("count", "lower", "ops_per_s on search"),
    "algebra.cases": ("count", "lower", "ops_per_s on search"),
    "algebra.self_s": ("s", "lower", "ops_per_s on search"),
    "algebra.decided_ratio": ("ratio", "higher", "ops_per_s on search"),
    "spacelab.extract_s": ("s", "lower", "ops_per_s on lab"),
    "spacelab.normalizations": ("count", "lower", "ops_per_s on lab"),
    "spacelab.enumerate_s": ("s", "lower", "op_tail_ms and ops_per_s on lab"),
    "spacelab.classify_s": ("s", "lower", "op_tail_ms and ops_per_s on lab"),
    "spacelab.field_check_s": ("s", "lower", "op_tail_ms and ops_per_s on lab"),
    "spacelab.endos_classified": ("count", "lower", "op_tail_ms and ops_per_s on lab"),
    "spacelab.render_s": ("s", "lower", "op_tail_ms and ops_per_s on lab"),
    "organic.demo_s": ("s", "lower", "op_p50_ms on lab"),
    "cli.self_s": ("s", "lower", "op_p50_ms on lab"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced / untraced time per cycle"),
}

# Counts that must repeat exactly for the same seed and cycle count.
EXACT_COUNTS = (
    "terms.coda_new", "terms.cmp_calls", "encoding.decode_calls", "lang.parse_calls",
    "lang.template_calls", "lang.recursion_errors", "engine.evaluations", "engine.steps",
    "engine.tri_equal_calls", "engine.binds", "engine.recursion_errors", "prelude.rewrites",
    "algebra.verdicts", "algebra.cases", "spacelab.normalizations", "spacelab.endos_classified",
)


def layer_of_file(filename: str) -> Optional[str]:
    """The coda layer a source file belongs to, or None outside the package."""
    p = Path(filename)
    if p.parent.name == "coda" and p.stem in LAYERS:
        return p.stem
    return None


def recursion_layer(exc: BaseException) -> str:
    """The layer that recursed: the one owning most traceback frames."""
    layers = Counter(
        layer_of_file(frame.filename) for frame in traceback.extract_tb(exc.__traceback__)
    )
    layers.pop(None, None)
    return layers.most_common(1)[0][0] if layers else "op"


class Tracer:
    def __init__(self):
        self.active = False
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.stack: List[list] = []  # [name id, layer id, start, child time, span index]
        self.self_s = [0.0] * len(LAYERS)
        self.layer_outer_s = [0.0] * len(LAYERS)
        self.layer_depth = [0] * len(LAYERS)
        self.name_outer_s: List[float] = []
        self.name_depth: List[int] = []
        self.counts: Counter = Counter()
        self.engines: list = []
        self.op_id = -1
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.dropped = 0
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.name_layer.append(LAYERS.index(name.split(".")[0]))
            self.name_outer_s.append(0.0)
            self.name_depth.append(0)
        return self.names.index(name)

    def enter(self, nid: int) -> None:
        stack = self.stack
        parent = stack[-1][4] if stack else -1
        now = perf_counter()
        idx = len(self.sp_start)
        if idx < SPAN_CAP:
            self.sp_name.append(nid)
            self.sp_start.append(now)
            self.sp_end.append(now)
            self.sp_parent.append(parent)
            self.sp_op.append(self.op_id)
        else:
            idx = -1
            self.dropped += 1
        layer = self.name_layer[nid]
        self.name_depth[nid] += 1
        self.layer_depth[layer] += 1
        stack.append([nid, layer, now, 0.0, idx])

    def exit(self) -> None:
        now = perf_counter()
        nid, layer, start, child, idx = self.stack.pop()
        dur = now - start
        self.self_s[layer] += dur - child
        self.name_depth[nid] -= 1
        if not self.name_depth[nid]:
            self.name_outer_s[nid] += dur
        self.layer_depth[layer] -= 1
        if not self.layer_depth[layer]:
            self.layer_outer_s[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        if idx >= 0:
            self.sp_end[idx] = now

    def span(self, fn, name: str, merge: bool = False, counter: Optional[str] = None, hook=None):
        """Wrap `fn` in a span called `name`.  With `merge`, a call made
        while the same layer is on top of the stack opens no span.
        `counter` counts every call; `hook(caller, args, result)` runs
        after each call that opened a span."""
        nid = self.name_id(name)
        layer = self.name_layer[nid]
        tracer = self
        stack = self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
            if merge and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            caller = stack[-1][1] if stack else None
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(caller, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run one op under a root span, then fold its engines' meters."""
        self.op_id = op_id
        root = self.name_id("op.run")
        self.active = True
        self.enter(root)
        try:
            return fn()
        except RecursionError as exc:
            self.counts[f"{recursion_layer(exc)}.recursion_errors"] += 1
            raise
        finally:
            # a wrapper whose exit() itself hit the recursion limit left its
            # frame open; the op's root frame closes whatever is left
            while len(self.stack) > 1:
                self.exit()
            self.exit()
            self.active = False
            engines = self.engines
            self.counts["engine.evaluations"] += len(engines)
            self.counts["engine.steps"] += sum(e.steps for e in engines)
            self.counts["engine.normalized"] += sum(not e.exhausted for e in engines)
            engines.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # `coda.prelude` is the function; the modules come from sys.modules
        algebra, cli, encoding, engine, lang, organic, prelude, spacelab, terms = (
            importlib.import_module(f"coda.{name}") for name in
            ("algebra", "cli", "encoding", "engine", "lang", "organic", "prelude", "spacelab", "terms"))
        here = Path(__file__).resolve().parent
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "coda" or name.startswith("coda.")
            or Path(getattr(m, "__file__", None) or "/").resolve().parent == here
        ]
        undo = self._undo

        def patch(owner, attr, wrapped):
            """Replace owner.attr (a module or a class attribute) and every
            module-level alias of it, in coda and in the benchmark."""
            original = getattr(owner, attr)
            for m in [owner] + modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        undo.append((setattr, m, key, original))

        def patch_item(mapping, key, wrapped):
            undo.append((mapping.__setitem__, key, mapping[key]))
            mapping[key] = wrapped

        counts = self.counts
        tracer = self

        # terms: Coda construction is counted, comparisons are spans
        coda_init = terms.Coda.__init__

        def counted_init(c, left=(), right=()):
            if tracer.active:
                counts["terms.coda_new"] += 1
            coda_init(c, left, right)

        patch(terms.Coda, "__init__", counted_init)
        patch(terms, "cmp_data", self.span(terms.cmp_data, "terms.cmp", merge=True, counter="terms.cmp_calls"))
        patch(terms, "cmp_coda", self.span(terms.cmp_coda, "terms.cmp", merge=True))

        patch(encoding, "decode_bytes",
              self.span(encoding.decode_bytes, "encoding.decode", merge=True, counter="encoding.decode_calls"))

        def parsed(caller, args, result):
            counts["lang.parse_calls"] += 1
            counts["lang.parse_bytes"] += len(args[0].encode("utf-8"))

        patch(lang, "parse", self.span(lang.parse, "lang.parse", hook=parsed))
        patch(lang, "eval_lang_atom",
              self.span(lang.eval_lang_atom, "lang.template", counter="lang.template_calls"))
        patch(lang, "render", self.span(lang.render, "lang.render"))

        # engine: every method other layers call; internal recursion merges
        Engine = engine.Engine
        engine_init = Engine.__init__
        extract_nid = self.name_id("spacelab.extract")

        def counted_engine_init(eng, *args, **kwargs):
            engine_init(eng, *args, **kwargs)
            if tracer.active:
                tracer.engines.append(eng)
                if tracer.stack and tracer.stack[-1][0] == extract_nid:
                    counts["spacelab.normalizations"] += 1

        patch(Engine, "__init__", counted_engine_init)
        for method in ("eval_data", "eval_coda", "is_atom", "is_invariant", "emptiness", "tri_compare"):
            patch(Engine, method, self.span(getattr(Engine, method), "engine.eval", merge=True))

        def judged(caller, args, result):
            if caller is not None and LAYERS[caller] == "algebra":
                counts["algebra.cases"] += 1
                if not args[0].exhausted and result is not engine.TriBool.UNDECIDED:
                    counts["algebra.decided"] += 1

        patch(Engine, "tri_equal", self.span(Engine.tri_equal, "engine.tri_equal",
                                             counter="engine.tri_equal_calls", hook=judged))
        for fn in ("evaluate", "step", "equal", "classify_atom"):
            patch(engine, fn, self.span(getattr(engine, fn), "engine.eval", merge=True))
        patch(engine, "add_definition", self.span(engine.add_definition, "engine.bind"))
        patch(engine.Context, "bind", self.span(engine.Context.bind, "engine.bind", counter="engine.binds"))

        # prelude: each builtin's branch function in the shared context
        def applied(caller, args, result):
            counts["prelude.calls"] += 1
            if result is None:
                counts["prelude.stuck"] += 1

        ctx = prelude.prelude()
        for trigger, d in list(ctx.defs.items()):
            if d.apply is not None:
                patch_item(ctx.defs, trigger,
                           replace(d, apply=self.span(d.apply, f"prelude.{d.name}", hook=applied)))

        def verdict(caller, args, result):
            counts["algebra.verdicts"] += 1

        for fn in ("check_associative", "check_distributive", "check_idempotent", "check_algebraic",
                   "check_left_distributivity", "check_right_distributivity"):
            patch(algebra, fn, self.span(getattr(algebra, fn), "algebra.check", hook=verdict))

        def classified(caller, args, result):
            counts["spacelab.endos_classified"] += len(args[1])

        patch(spacelab, "extract_carrier", self.span(spacelab.extract_carrier, "spacelab.extract"))
        patch(spacelab, "enumerate_endos", self.span(spacelab.enumerate_endos, "spacelab.enumerate"))
        patch(spacelab, "classify", self.span(spacelab.classify, "spacelab.classify", hook=classified))
        patch(spacelab, "field_check", self.span(spacelab.field_check, "spacelab.field_check"))
        patch(spacelab, "render_report", self.span(spacelab.render_report, "spacelab.render"))

        for name, fn in list(organic.DEMOS.items()):
            patch_item(organic.DEMOS, name, self.span(fn, "organic.demo"))
        patch(cli, "main", self.span(cli.main, "cli.main"))

    def uninstall(self) -> None:
        """Put back every original install() replaced."""
        while self._undo:
            restore, *where = self._undo.pop()
            restore(*where)

    # -- results -----------------------------------------------------------

    def _outer(self, name: str) -> float:
        return self.name_outer_s[self.names.index(name)] if name in self.names else 0.0

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        c = self.counts
        layer = {name: i for i, name in enumerate(LAYERS)}
        parse_s = self._outer("lang.parse")
        engine_s = self.layer_outer_s[layer["engine"]]
        ratio = lambda a, b: a / b if b else 0.0
        return {
            "terms.coda_new": c["terms.coda_new"],
            "terms.cmp_calls": c["terms.cmp_calls"],
            "terms.cmp_s": self._outer("terms.cmp"),
            "encoding.decode_calls": c["encoding.decode_calls"],
            "encoding.decode_s": self._outer("encoding.decode"),
            "lang.parse_calls": c["lang.parse_calls"],
            "lang.parse_s": parse_s,
            "lang.parse_bytes_per_s": ratio(c["lang.parse_bytes"], parse_s),
            "lang.template_calls": c["lang.template_calls"],
            "lang.template_s": self._outer("lang.template"),
            "lang.render_s": self._outer("lang.render"),
            "lang.recursion_errors": c["lang.recursion_errors"],
            "engine.evaluations": c["engine.evaluations"],
            "engine.steps": c["engine.steps"],
            "engine.self_s": self.self_s[layer["engine"]],
            "engine.steps_per_s": ratio(c["engine.steps"], engine_s),
            "engine.normalized_ratio": ratio(c["engine.normalized"], c["engine.evaluations"]),
            "engine.tri_equal_calls": c["engine.tri_equal_calls"],
            "engine.tri_equal_s": self._outer("engine.tri_equal"),
            "engine.binds": c["engine.binds"],
            "engine.bind_s": self._outer("engine.bind"),
            "engine.recursion_errors": c["engine.recursion_errors"],
            "prelude.rewrites": c["prelude.calls"] - c["prelude.stuck"],
            "prelude.self_s": self.self_s[layer["prelude"]],
            "prelude.stuck_ratio": ratio(c["prelude.stuck"], c["prelude.calls"]),
            "algebra.verdicts": c["algebra.verdicts"],
            "algebra.cases": c["algebra.cases"],
            "algebra.self_s": self.self_s[layer["algebra"]],
            "algebra.decided_ratio": ratio(c["algebra.decided"], c["algebra.cases"]),
            "spacelab.extract_s": self._outer("spacelab.extract"),
            "spacelab.normalizations": c["spacelab.normalizations"],
            "spacelab.enumerate_s": self._outer("spacelab.enumerate"),
            "spacelab.classify_s": self._outer("spacelab.classify"),
            "spacelab.field_check_s": self._outer("spacelab.field_check"),
            "spacelab.endos_classified": c["spacelab.endos_classified"],
            "spacelab.render_s": self._outer("spacelab.render"),
            "organic.demo_s": self._outer("organic.demo"),
            "cli.self_s": self.self_s[layer["cli"]],
            "trace.overhead_ratio": overhead_ratio,
        }

    def write_spans(self, path: Path) -> int:
        """Write every kept span as TSV: span, parent, op, name, start, end
        (seconds on the perf_counter clock).  Returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.sp_start)):
                out.write(f"{i}\t{self.sp_parent[i]}\t{self.sp_op[i]}\t{names[self.sp_name[i]]}\t"
                          f"{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n")
        return len(self.sp_start)
