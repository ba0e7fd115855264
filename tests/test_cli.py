import io
import os
import pathlib
import subprocess
import sys

import pytest

import coda
from coda.cli import main
from coda.organic import DEMOS
from coda.spacelab import enumerate_endos, zn_carrier


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "pass : a b")
    assert code == 0 and out == "a b\n"


def test_eval_language_atom(capsys):
    code, out, _ = run(capsys, "eval", "{B B} : 1 2 3")
    assert code == 0 and out == "1 2 3 1 2 3\n"


def test_eval_empty(capsys):
    code, out, _ = run(capsys, "eval", "")
    assert code == 0 and out == "()\n"


def test_eval_undecodable_argument(capsys):
    # Python hands an argv byte that is not UTF-8 over as a lone surrogate;
    # the word holding it renders structurally
    code, out, err = run(capsys, "eval", "a \udcff")
    assert code == 0 and out.startswith("a (((:):(:)):") and not err


def test_eval_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("null : x"))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0 and out == "()\n"


def test_closed_pipe_is_quiet():
    # over 64 KiB of output, more than a pipe holds, so the CLI is still
    # writing when the reader closes its end
    src = "pass : " + " ".join(f"w{i}" for i in range(15000))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(coda.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "coda.cli", "eval", "-"], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdin.write(src.encode())
        proc.stdin.close()
        assert proc.stdout.read(50) == src[7:57].encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_eval_budget_note(capsys):
    code, out, err = run(capsys, "eval", "while {B B} : x", "--budget", "10")
    assert code == 0
    assert "budget exhausted" in err


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CODA_BUDGET", "10")
    code, out, err = run(capsys, "eval", "while {B B} : x")
    assert code == 0 and "budget exhausted" in err


def test_budget_env_malformed(capsys, monkeypatch):
    monkeypatch.setenv("CODA_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "pass : a"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "CODA_BUDGET" in err and "Traceback" not in err


def repl(capsys, monkeypatch, *lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    return run(capsys, "repl")


def test_repl_budget(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, ":budget 3", "while {(B:B)} : a")
    assert code == 0 and "budget set to 3 steps" in err and "budget exhausted" in err


def test_repl_definitions(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, "def twice : {B B}", "twice : x", ":defs")
    # a def line prints its normal form; the prompts go to stderr, one per
    # line read and the last one answered by the end of input
    defined, result, names, rest = out.split("\n")
    assert (code, defined, result, rest) == (0, "()", "x x", "") and "twice" in names.split()
    assert err.count("coda> ") == 4


def test_repl_keeps_every_word_the_calculus_binds(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, "(def twice : {B B})", "twice : x",
                          "def\tthrice : {B B B}", "thrice : y", "def (pass:z) : w", "z : v")
    assert (code, out) == (0, "()\nx x\n()\ny y y\n()\n(w:v)\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [":nope", ":budget", ":budget -1", ":budget ²"])
def test_repl_unknown_meta_command(capsys, monkeypatch, line):
    # "²" is a digit, but not a decimal, so `int` would refuse it
    code, _, err = repl(capsys, monkeypatch, line)
    assert code == 0 and f"unknown meta-command: {line}\n" in err


def test_repl_end_of_input(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch)
    assert (code, out) == (0, "") and err.endswith("coda> \n")


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--width", "2", "--depth", "2")
    assert code == 0 and out == "91\n"


def test_count_enumerate_cross_check(capsys):
    code, out, err = run(capsys, "count", "--width", "2", "--depth", "2",
                         "--enumerate")
    assert code == 0 and out == "91\n"
    assert "cross-check: 91" in err


def test_count_enumerate_cap(capsys):
    code, _, err = run(capsys, "count", "--width", "3", "--depth", "3",
                       "--enumerate", "--cap", "10")
    assert code == 2 and err.startswith("CapExceeded: ")


def test_count_tsv(capsys):
    code, out, _ = run(capsys, "count", "--width", "1", "--depth", "1",
                       "--format", "tsv")
    assert code == 0 and out == "1\t1\t2\n"


@pytest.mark.parametrize("width, depth", [("-1", "1"), ("1", "-1")])
def test_count_negative_bound_is_a_usage_error(capsys, width, depth):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--width", width, "--depth", depth, "--enumerate"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "must not be negative: -1" in out.err


def test_search(capsys):
    code, out, _ = run(capsys, "search", "--words", "pass", "bool",
                       "--max-len", "1")
    assert code == 0
    assert "pass" in out and "bool" in out
    # a verdict counts cases: 2 * 3 * 3 associativity forms over 3 probes
    assert "bool  [holds_on_probes, 18 cases]" in out


def test_search_cap(capsys):
    code, _, err = run(capsys, "search", "--words", "a", "b", "c",
                       "--max-len", "5", "--cap", "10")
    assert code == 2 and err.startswith("CapExceeded: ")


def test_space_analyze(capsys):
    code, out, _ = run(capsys, "space", "analyze", "bool")
    assert code == 0
    assert "endomorphisms: 4" in out
    assert "field" in out


def test_space_analyze_overflow(capsys):
    code, _, err = run(capsys, "space", "analyze", "pass", "--cap", "3")
    assert code == 2 and err.startswith("CarrierOverflow: ")


def _capped_demo():
    return enumerate_endos(zn_carrier(8))  # 8^8 endofunctions


@pytest.mark.parametrize("argv, prefix", [
    (("space", "analyze", "first", "--endo-cap", "2"), "TooManyEndos: "),
    (("demo", "bool"), "TooManyEndos: "),
], ids=["endo-cap", "demo"])
def test_cap_refusal(capsys, monkeypatch, argv, prefix):
    # every refusal is reported by main, as its class name and message
    monkeypatch.setitem(DEMOS, "bool", _capped_demo)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(prefix)


def test_demo(capsys):
    code, out, _ = run(capsys, "demo", "bool")
    assert code == 0
    assert "9/9 assertions passed" in out


def test_demo_unknown_name():
    with pytest.raises(SystemExit):
        main(["demo", "no-such-demo"])


def test_options_a_subcommand_ignores_are_usage_errors(capsys):
    # demo reads no definition file, so it takes no --prelude
    with pytest.raises(SystemExit) as exc:
        main(["demo", "bool", "--prelude", "/nonexistent"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prelude" in capsys.readouterr().err


def test_prelude_file(capsys, tmp_path):
    f = tmp_path / "defs.coda"
    f.write_text("# session helpers\ndef dup : ap {B B}\n")
    code, out, _ = run(capsys, "eval", "dup : x y", "--prelude", str(f))
    assert code == 0 and out == "x x y y\n"


def test_prelude_lines_are_evaluated(capsys, tmp_path):
    # any def form the calculus accepts binds; a line whose normal form is
    # not () is named on stderr and leaves the context as it was
    f = tmp_path / "defs.coda"
    f.write_text("deff t : x\n(def u : {B B})\ndef (pass:z) : w\n")
    code, out, err = run(capsys, "eval", "u : a", "--prelude", str(f))
    assert (code, out) == (0, "a a\n")
    assert err == "ignored malformed definition: deff t : x\n"


@pytest.mark.parametrize("argv", [
    ("eval", "a", "--budget", "-3"),
    ("search", "--max-len", "-1"),
    ("search", "--cap", "-1"),
    ("count", "--width", "1", "--depth", "1", "--cap", "-1"),
    ("space", "analyze", "bool", "--cap", "-1"),
    ("space", "analyze", "bool", "--endo-cap", "-1"),
], ids=["eval-budget", "search-max-len", "search-cap", "count-cap", "space-cap", "endo-cap"])
def test_negative_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "must not be negative: -" in out.err and "Traceback" not in out.err


def test_budget_env_negative(capsys, monkeypatch):
    monkeypatch.setenv("CODA_BUDGET", "-3")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "pass : a"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "coda: CODA_BUDGET must be a non-negative integer, not '-3'\n"


@pytest.mark.parametrize("content", [None, b"\xff\xfedef x : a\n"], ids=["missing", "not-utf-8"])
def test_unreadable_prelude_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "defs.coda"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "a", "--prelude", str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"coda: {path}: ") and out.err.count("\n") == 1
