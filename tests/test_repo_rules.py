"""Rules the repository keeps about itself: the acceptance gate is frozen,
and src/ holds no import and no top-level name or method that is never
read."""
import ast
import hashlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coda"
GATE = ROOT / "tests" / "test_acceptance.py"
# a PR that adds a criterion re-pins this and says why in CHANGES.md
GATE_SHA256 = "ab91f786961a5af1b52169bd3c29a45e94a9205a0a930e613ec60c1a405e01a0"


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
