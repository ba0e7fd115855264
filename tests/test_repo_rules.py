"""Rules the repository keeps about itself: the acceptance gate is frozen,
src/ holds no import and no top-level name or method that is never read,
src/ compiles no source it rendered from data, and the benchmark's seed-7
traced runs print what CI pins."""
import ast
import contextlib
import hashlib
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coda"
GATE = ROOT / "tests" / "test_acceptance.py"
# a PR that adds a criterion re-pins this and says why in CHANGES.md
GATE_SHA256 = "ab91f786961a5af1b52169bd3c29a45e94a9205a0a930e613ec60c1a405e01a0"
CI = ROOT / ".github" / "workflows" / "tests.yml"


def test_the_acceptance_gate_is_unchanged():
    assert hashlib.sha256(GATE.read_bytes()).hexdigest() == GATE_SHA256


def test_every_import_in_src_is_used():
    # a name imported in src/coda/*.py that is read nowhere else in its file
    # fails; __init__'s re-exports pass because __all__ names them
    dead = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for n in nodes:
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__":
                for a in n.names:
                    name = (a.asname or a.name).split(".")[0]
                    if name not in used:
                        dead.append(f"{path.name}:{n.lineno}: {name} is imported and never used")
    assert not dead, "\n".join(dead)


def test_every_top_level_name_and_method_in_src_is_used():
    # a function, class or constant defined at the top of src/coda/*.py, or a
    # method of a class there, that src/, perfbench/ and the acceptance gate
    # never read (as a name or an attribute), import, or name in a string
    # fails, so src/ keeps no name that only the other tests use; the names
    # in __all__ are strings there, so the API passes, and dunder methods,
    # which Python calls itself, are exempt
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"), GATE]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [n.name]
            elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{n.lineno}: {name} is defined and never used"
                     for name in names if name != "__all__" and name not in used]
            if isinstance(n, ast.ClassDef):
                dead += [f"{path.name}:{m.lineno}: {n.name}.{m.name} is defined and never used"
                         for m in n.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (m.name.startswith("__") and m.name.endswith("__"))
                         and m.name not in used]
    assert not dead, "\n".join(dead)


def test_no_source_in_src_is_rendered_from_data():
    # a call to lang_atom(...) or parse(...) in src/coda/*.py with a
    # render(...) call anywhere among its arguments fails: data that is to
    # act goes in as data, not as source text to be compiled again
    def name(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call) and name(n) in ("lang_atom", "parse"):
                args = [*n.args, *(k.value for k in n.keywords)]
                if any(isinstance(m, ast.Call) and name(m) == "render"
                       for arg in args for m in ast.walk(arg)):
                    found.append(f"{path.name}:{n.lineno}: {name(n)} of rendered data")
    assert not found, "\n".join(found)


def test_seed_7_traced_runs_match_the_ci_pins():
    # the pins are the `for pin in ...` words of CI's bench-selfcheck job,
    # workload:outputs digest:engine.steps:prelude.rewrites.  The three runs
    # overlap: on two CPUs that took 4.7-6.0 s, against 6.5-7.4 s one after
    # another.  A run still going when the test leaves is killed
    words = re.search(r"for pin in (.*?); do", CI.read_text(encoding="utf-8"), re.S).group(1)
    pins = {w: rest for w, *rest in (pin.split(":") for pin in words.split() if pin != "\\")}
    assert sorted(pins) == ["eval", "lab", "search"]
    with contextlib.ExitStack() as stack:
        runs = {}
        for w in pins:
            runs[w] = stack.enter_context(subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "7",
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            stack.callback(runs[w].kill)
        outs = {w: (run.communicate(timeout=120), run.returncode) for w, run in runs.items()}
    for w, ((out, err), code) in outs.items():
        assert code == 0, err
        fields = [line.split() for line in out.splitlines()]
        counts = {f[0]: f"{float(f[1]):.0f}" for f in fields
                  if f[:1] in (["engine.steps"], ["prelude.rewrites"])}
        got = [re.search(r"outputs digest ([0-9a-f]+)", out).group(1),
               counts["engine.steps"], counts["prelude.rewrites"]]
        assert got == pins[w], w
