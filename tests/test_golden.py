"""The CLI's and the demos' output, byte for byte, against ``tests/golden/``.

Each command of ``COMMANDS`` runs in process through ``cli.main`` in
``tests/golden/inputs/``, so file names in its output are relative; each
demo runs as a script, once, in its own test case, which also asserts that
it exits 0. Every run is written as one file: the command, its exit code,
its stdout and its stderr. A change to a report then shows up as a diff of
these files.

To rewrite the files after an intended change, run::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_golden.py

To write them elsewhere, say to compare the output under two hash seeds::

    PYTHONPATH=src python tests/test_golden.py OUTPUT_DIR
"""

import contextlib
import difflib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bimonoid_automata import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# (file name, argv); the automaton and algebra files are in tests/golden/inputs
COMMANDS = [
    # eval and support on word automata: NatPlusMin, a NatPlusPlus[3] table, PentagonN5
    ("eval-natplusmin-init", ["eval", "--automaton", "natplusmin.json", "--input", "abab"]),
    ("eval-natplusmin-run", ["eval", "--automaton", "natplusmin.json", "--input", "a, b, b, a", "--semantics", "run"]),
    ("eval-natplusmin-json", ["eval", "--automaton", "natplusmin.json", "--input", "abba", "--format", "json"]),
    ("eval-npp3-empty", ["eval", "--automaton", "npp3.json", "--input", "", "--semantics", "init"]),
    ("eval-pentagon-init-json", ["eval", "--automaton", "pentagon.json", "--input", "abbabaab", "--format", "json"]),
    ("eval-pentagon-run", ["eval", "--automaton", "pentagon.json", "--input", "abbabaab", "--semantics", "run"]),
    ("support-natplusmin", ["support", "--automaton", "natplusmin.json", "--input", "ba"]),
    ("support-pentagon-run-json", ["support", "--automaton", "pentagon.json", "--input", "bbab", "--semantics", "run",
                                   "--format", "json"]),
    # eval and support on tree automata: a PentagonN5 spine alphabet, a NatPlusMin branching one
    ("eval-spine-init", ["eval", "--automaton", "spine.json", "--input", "a(b(b(a(e))))"]),
    ("eval-spine-run-json", ["eval", "--automaton", "spine.json", "--input", "a(b(b(a(e))))", "--semantics", "run",
                             "--format", "json"]),
    ("eval-tree-init-json", ["eval", "--automaton", "tree.json", "--input", "f(g(a),f(b,g(f(a,a))))",
                             "--format", "json"]),
    ("eval-tree-run", ["eval", "--automaton", "tree.json", "--input", "f(g(a),f(b,g(f(a,a))))", "--semantics", "run"]),
    ("support-tree-json", ["support", "--automaton", "tree.json", "--input", "g(f(b,b))", "--format", "json"]),
    ("support-spine", ["support", "--automaton", "spine.json", "--input", "b(e)", "--semantics", "run"]),
    # counted operation profiles
    ("profile-natplusmin", ["profile", "--automaton", "natplusmin.json", "--input", "abab"]),
    ("profile-natplusmin-json", ["profile", "--automaton", "natplusmin.json", "--input", "abab", "--format", "json"]),
    ("profile-pentagon-json", ["profile", "--automaton", "pentagon.json", "--input", "abbab", "--format", "json"]),
    ("profile-tree", ["profile", "--automaton", "tree.json", "--input", "f(g(a),f(b,a))"]),
    ("profile-spine-json", ["profile", "--automaton", "spine.json", "--input", "a(b(a(e)))", "--format", "json"]),
    # property reports of bundled algebras and of algebra files
    *((f"props-{re.sub(r'[^a-z0-9]', '', name.lower())}", ["props", "--algebra", name])
      for name in ("Boole", "PentagonN5", "Hexagon", "Diamond", "B4", "B3prime", "NatPlusPlus[3]", "TruncFun(2)")),
    ("props-b4-json", ["props", "--algebra", "B4", "--format", "json"]),
    ("props-truncfun3-json", ["props", "--algebra", "TruncFun(3)", "--format", "json"]),
    ("props-s", ["props", "--algebra", "s.json"]),
    ("props-z2-json", ["props", "--algebra", "z2.json", "--format", "json"]),
    # every check target
    ("check-supports-words-pentagon-json", ["check", "supports-words", "--algebra", "pentagon", "--trials", "2",
                                            "--max-len", "2", "--format", "json"]),
    ("check-supports-words-truncfun2", ["check", "supports-words", "--algebra", "TruncFun(2)", "--max-len", "6",
                                        "--trials", "5"]),
    ("check-supports-words-b4", ["check", "supports-words", "--algebra", "B4", "--trials", "4",
                                 "--word-alphabet", "x,y", "--states", "2", "--seed", "7"]),
    ("check-supports-words-z2", ["check", "supports-words", "--algebra", "z2.json", "--trials", "3"]),
    ("check-supports-trees-pentagon-json", ["check", "supports-trees", "--algebra", "pentagon", "--tree-alphabet",
                                            "alpha:0,gamma:1,sigma:2", "--max-size", "7", "--trials", "3",
                                            "--format", "json"]),
    ("check-supports-trees-b3prime", ["check", "supports-trees", "--algebra", "B3prime", "--trials", "3"]),
    ("check-images-words-b4", ["check", "images-words", "--algebra", "B4"]),
    ("check-images-words-boole-json", ["check", "images-words", "--algebra", "Boole", "--format", "json"]),
    ("check-images-trees-pentagon-json", ["check", "images-trees", "--algebra", "pentagon", "--format", "json"]),
    ("check-images-trees-s", ["check", "images-trees", "--algebra", "s.json"]),
    # image sets on bounded inputs
    ("image-natplusmin", ["image", "--automaton", "natplusmin.json", "--max-len", "3"]),
    ("image-pentagon-json", ["image", "--automaton", "pentagon.json", "--max-len", "3", "--format", "json"]),
    ("image-tree-json", ["image", "--automaton", "tree.json", "--max-size", "4", "--format", "json"]),
    ("image-spine", ["image", "--automaton", "spine.json"]),
    # conversions both ways
    ("convert-natplusmin-word-to-tree", ["convert", "--automaton", "natplusmin.json", "--direction", "word-to-tree"]),
    ("convert-spine-tree-to-word", ["convert", "--automaton", "spine.json", "--direction", "tree-to-word"]),
    # usage errors
    ("error-eval-unknown-symbol", ["eval", "--automaton", "tree.json", "--input", "f(a,h)"]),
    ("error-props-duplicate-names", ["props", "--algebra", "dup.json"]),
    ("error-props-truncfun9", ["props", "--algebra", "TruncFun(9)"]),
    ("error-image-wrong-bound", ["image", "--automaton", "natplusmin.json", "--max-size", "3"]),
    ("error-convert-wrong-kind", ["convert", "--automaton", "spine.json", "--direction", "word-to-tree"]),
]


def _record(argv: list, code, out: str, err: str) -> str:
    return f"$ {shlex.join(argv)}\nexit code: {code}\n--- stdout\n{out}--- stderr\n{err}"


def _run_command(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _record(["bimaut", *argv], code, out.getvalue(), err.getvalue())


def _run_demo(demo: Path) -> tuple:
    """(exit code, recorded run) of one demo."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=120)
    return result.returncode, _record(["python", f"demos/{demo.name}"], result.returncode, result.stdout,
                                      result.stderr)


def _demo_file(demo: Path) -> str:
    return f"demo-{demo.stem}.txt"


def command_outputs() -> dict:
    """File name -> recorded run, for every command."""
    here = os.getcwd()
    os.chdir(INPUTS)
    try:
        return {f"{name}.txt": _run_command(argv) for name, argv in COMMANDS}
    finally:
        os.chdir(here)


def outputs() -> dict:
    """File name -> recorded run, for every command and every demo."""
    runs = command_outputs()
    runs.update({_demo_file(demo): _run_demo(demo)[1] for demo in DEMOS})
    return runs


def write(directory: Path, runs: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in runs.items():
        (directory / name).write_text(text, encoding="utf-8")


def _assert_golden(runs: dict) -> None:
    """Each run equals its file in tests/golden, which ``GOLDEN_UPDATE``
    first rewrites."""
    if os.environ.get("GOLDEN_UPDATE"):
        write(GOLDEN, runs)
    stored = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in runs if (GOLDEN / name).exists()}
    differing = [name for name in runs if runs[name] != stored.get(name, "")]
    diff = "".join(
        line
        for name in differing
        for line in difflib.unified_diff(stored.get(name, "").splitlines(True), runs[name].splitlines(True),
                                         f"golden/{name}", "this run")
    )
    assert not differing, f"{len(differing)} outputs differ from tests/golden:\n{diff}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_matches_golden_file(demo):
    code, run = _run_demo(demo)
    assert code == 0, run
    _assert_golden({_demo_file(demo): run})


def test_outputs_match_golden_files():
    runs = command_outputs()
    names = set(runs) | {_demo_file(demo) for demo in DEMOS}
    assert len(names) == len(COMMANDS) + len(DEMOS), "two runs write one file name"
    if os.environ.get("GOLDEN_UPDATE"):
        for stale in set(p.name for p in GOLDEN.glob("*.txt")) - names:
            (GOLDEN / stale).unlink()
    _assert_golden(runs)
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(names), \
        "golden files without a run, or runs without a file"


if __name__ == "__main__":
    write(Path(sys.argv[1]), outputs())
