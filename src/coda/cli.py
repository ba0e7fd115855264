"""Command-line surface: evaluator, REPL, counter, space search and
analysis, and the demo runner.

Every subcommand is a thin adapter over the library; the primary output is
exactly what the corresponding API call renders.  Exit codes: 0 success,
1 demo assertion failure or an output pipe closed by its reader, 2 cap or
overflow refusal, or a malformed option, CODA_BUDGET or definition file.
Cap defaults are the library's; every refusal is a `terms.CapExceeded`,
reported in one place, `main`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .algebra import ProbeSet, default_probes
from .engine import Budget, Context, add_definition, evaluate
from .lang import parse, render
from .organic import DEFAULT_SEARCH_CAP, DEMOS, SearchResult, search_spaces
from .prelude import prelude
from .spacelab import (
    DEFAULT_CARRIER_CAP,
    DEFAULT_ENDO_CAP,
    classify,
    enumerate_endos,
    extract_carrier,
    render_report,
)
from .terms import DEFAULT_ENUM_CAP, CapExceeded, SizeBound, count_pure_data, enumerate_pure_data

BUDGET_ENV = "CODA_BUDGET"


def _steps_budget(steps: int) -> Budget:
    return Budget(max_steps=steps, max_nodes=max(10 * steps, 1))


def _natural(text: str) -> int:
    """argparse type: a non-negative integer, else a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _budget(args) -> Budget:
    steps = args.budget
    if steps is None:
        raw = os.environ.get(BUDGET_ENV)
        try:
            steps = _natural(raw) if raw else None
        except (ValueError, argparse.ArgumentTypeError):
            print(f"coda: {BUDGET_ENV} must be a non-negative integer, not {raw!r}", file=sys.stderr)
            raise SystemExit(2)
    if steps is None:
        return Budget()
    return _steps_budget(steps)


def _load_preludes(paths: List[str]) -> Context:
    ctx = prelude()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"coda: {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            raise SystemExit(2)
        for line in map(str.strip, lines):
            if line and not line.startswith("#"):
                ctx = _define(ctx, line) or ctx
    return ctx


def _define(ctx: Context, line: str) -> Optional[Context]:
    """Handle a `def name : body` line; None when it is not one."""
    if not line.startswith("def "):
        return None
    d = parse(line[4:])
    if len(d) == 1 and len(d[0].left) == 1:
        return add_definition(ctx, d[0].left[0], d[0].right)
    print(f"ignored malformed definition: {line}", file=sys.stderr)
    return ctx


def cmd_eval(args) -> int:
    src = args.expr
    if src == "-":
        src = sys.stdin.read()
    ctx = _load_preludes(args.prelude)
    out = evaluate(parse(src), ctx, _budget(args))
    print(render(out.result))
    if not out.normalized:
        print("budget exhausted; partial form shown", file=sys.stderr)
    return 0


def cmd_repl(args) -> int:
    ctx = _load_preludes(args.prelude)
    budget = _budget(args)
    print("coda repl; :quit to leave, :defs, :budget N", file=sys.stderr)
    while True:
        try:
            line = input("coda> ")
        except EOFError:
            print(file=sys.stderr)
            return 0
        except KeyboardInterrupt:
            print(file=sys.stderr)
            return 0
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(":"):
            parts = stripped.split()
            if parts[0] == ":quit":
                return 0
            if parts[0] == ":defs":
                print(" ".join(ctx.names()))
            elif parts[0] == ":budget" and len(parts) == 2 and parts[1].isdigit():
                steps = int(parts[1])
                budget = _steps_budget(steps)
                print(f"budget set to {steps} steps", file=sys.stderr)
            else:
                print(f"unknown meta-command: {stripped}", file=sys.stderr)
            continue
        new_ctx = _define(ctx, stripped)
        if new_ctx is not None:
            ctx = new_ctx
            continue
        out = evaluate(parse(line), ctx, budget)
        print(render(out.result))
        if not out.normalized:
            print("budget exhausted; partial form shown", file=sys.stderr)


def cmd_count(args) -> int:
    bound = SizeBound(args.width, args.depth)
    n = count_pure_data(bound)
    if args.format == "tsv":
        print(f"{args.width}\t{args.depth}\t{n}")
    else:
        print(n)
    if args.enumerate:
        seen = sum(1 for _ in enumerate_pure_data(bound, cap=args.cap))
        if seen != n:
            print(f"enumeration mismatch: {seen} != {n}", file=sys.stderr)
            return 1
        print(f"enumeration cross-check: {seen}", file=sys.stderr)
    return 0


def _print_search(results: List[SearchResult], fmt: str) -> None:
    for r in results:
        if fmt == "tsv":
            print(f"{r.source}\t{r.verdict.status}\t{r.verdict.checked}")
        else:
            print(f"{r.source}  [{r.verdict.status}, {r.verdict.checked} cases]")


def cmd_search(args) -> int:
    ctx = _load_preludes(args.prelude)
    results = search_spaces(args.words, args.max_len, ctx=ctx, cap=args.cap)
    _print_search(results, args.format)
    return 0


def cmd_space(args) -> int:
    ctx = _load_preludes(args.prelude)
    space = parse(args.expr)
    probes = ProbeSet(default_probes().probes, budget=_budget(args))
    carrier = extract_carrier(space, probes, cap=args.cap, ctx=ctx,
                              on_overflow="raise")
    endos = enumerate_endos(carrier, cap=args.endo_cap)
    report = classify(carrier, endos)
    print(render_report(report, fmt=args.format))
    return 0


def cmd_demo(args) -> int:
    report = DEMOS[args.name]()
    print(report.render(args.format))
    return 0 if report.passed else 1


_COMMON = {
    "format": dict(choices=("text", "tsv"), default="text",
                   help="output format (default text)"),
    "budget": dict(type=_natural, default=None,
                   help=f"step budget (default {BUDGET_ENV} or 100000)"),
    "prelude": dict(action="append", default=[], metavar="FILE",
                    help="definition file loaded before the command; repeatable"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Give `p` the shared options it reads, named as in `_COMMON`."""
    for name in names:
        p.add_argument("--" + name, **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coda", description="evaluate, analyze and demo coda spaces"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression ('-' reads stdin)")
    p.add_argument("expr")
    _add_common(p, "budget", "prelude")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("repl", help="interactive session")
    _add_common(p, "budget", "prelude")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("count", help="count pure data within a size bound")
    p.add_argument("--width", type=_natural, required=True)
    p.add_argument("--depth", type=_natural, required=True)
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check the count by enumeration")
    p.add_argument("--cap", type=_natural, default=DEFAULT_ENUM_CAP)
    _add_common(p, "format")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("search", help="screen token sequences for associativity")
    p.add_argument("--words", nargs="*", default=[])
    p.add_argument("--max-len", type=_natural, default=2)
    p.add_argument("--cap", type=_natural, default=DEFAULT_SEARCH_CAP)
    _add_common(p, "format", "prelude")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("space", help="carrier and endomorphism analysis")
    p.add_argument("action", choices=("analyze",))
    p.add_argument("expr")
    p.add_argument("--cap", type=_natural, default=DEFAULT_CARRIER_CAP,
                   help="cap on the elements sums add (neutral and probes are kept)")
    p.add_argument("--endo-cap", type=_natural, default=DEFAULT_ENDO_CAP)
    _add_common(p, "format", "budget", "prelude")
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("demo", help="run a worked construction")
    p.add_argument("name", choices=sorted(DEMOS))
    _add_common(p, "format")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except CapExceeded as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so that
        # the flush at exit neither fails nor prints "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
