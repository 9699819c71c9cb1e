"""Mutated algebra and automaton files against the loaders and every command.

Each example edits a valid file once or twice (a value replaced by another
value of the file or by an arbitrary JSON value, or a key or item dropped) and feeds it to ``algebra_from_dict``
or ``automaton_from_dict`` and to ``cli.main``. A loader either returns or
raises ``ValueError``; a command exits 0 or 2, or 1 for ``check`` alone,
which means an unexpected counterexample; nothing exits 3 (internal error).
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import cli, fileio
from bimonoid_automata import trees as T
from bimonoid_automata import words as W

ALGEBRA = fileio.algebra_to_dict(ba.b4())
# the files name the bundled algebra, so edits land on the automaton; INLINE
# holds the algebra's tables, so edits reach them through an automaton too
INLINE = fileio.automaton_to_dict(W.probe_automaton(ba.b4(), 2, 2, 2))
WORD = {**INLINE, "algebra": "B4"}
TREE = {
    **fileio.automaton_to_dict(
        T.branching_probe_automaton(ba.b4(), 2, 2, 3, 2, T.RankedAlphabet({"alpha": 0, "sigma": 2}))
    ),
    "algebra": "B4",
}

# leaves lean toward the names the files use, so edits stay near valid
LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=2)
    | st.sampled_from(["0", "1", "2", "3", "p", "q", "r", "gamma", "alpha", "sigma", "B4", "Boole"])
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "p", "from", "to"]), inner, max_size=2),
    max_leaves=6,
)

COMMANDS = {
    "word": [
        ["eval", "--input", "gamma"], ["support", "--input", "gamma", "--semantics", "run"],
        ["profile", "--input", "gamma"], ["image", "--max-len", "2"],
        ["convert", "--direction", "word-to-tree"],
    ],
    "tree": [
        ["eval", "--input", "sigma(alpha,sigma(alpha,alpha))"], ["profile", "--input", "alpha"],
        ["image", "--max-size", "3"], ["convert", "--direction", "tree-to-word"],
    ],
    "algebra": [
        ["props"],
        ["check", "supports-words", "--trials", "2", "--max-len", "2"],
        ["check", "supports-trees", "--trials", "2", "--max-size", "3"],
        ["check", "images-words"],
    ],
}


def _slots(doc):
    """Every (container, key) pair in a JSON document, outermost first."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["swap", "swap", "replace", "drop"]))
        if edit == "drop":
            del node[key]
        else:
            # a swap moves a value of the file elsewhere, so it often still loads
            leaves = [n[k] for n, k in slots if not isinstance(n[k], (dict, list))]
            node[key] = draw(st.sampled_from(leaves) if edit == "swap" else JSON)
    return doc


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


FUZZ = settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.data(), st.sampled_from([("word", WORD), ("tree", TREE), ("word", INLINE)]), st.booleans())
def test_mutated_automaton_files(data, base, allow_invalid):
    kind, doc = base[0], data.draw(mutated(base[1]))
    flag = ["--allow-invalid"] if allow_invalid else []
    try:
        fileio.automaton_from_dict(doc, allow_invalid=allow_invalid)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "automaton.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS[kind]:
            assert _run([*argv, "--automaton", path, *flag]) in (0, 2), argv


@FUZZ
@given(mutated(ALGEBRA), st.booleans())
def test_mutated_algebra_files(doc, allow_invalid):
    flag = ["--allow-invalid"] if allow_invalid else []
    try:
        fileio.algebra_from_dict(doc, allow_invalid=allow_invalid)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS["algebra"]:
            allowed = (0, 1, 2) if argv[0] == "check" else (0, 2)
            assert _run([*argv, "--algebra", path, *flag]) in allowed, argv
