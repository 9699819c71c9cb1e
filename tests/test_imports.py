"""Which modules a fresh interpreter loads for the package and each command.

The package resolves its re-exports on first access, and each ``bimaut``
command imports only the layers it runs, so starting a command does not
compile modules it never calls.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import bimonoid_automata as ba
from bimonoid_automata import algebra, fileio, properties
from bimonoid_automata import words as W

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the code in argv[1] and prints every loaded module.
PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

# Runs ``python -m bimonoid_automata`` with the arguments in argv[2].
COMMAND = """
import contextlib, io, runpy
sys.argv = ["bimaut", *json.loads(sys.argv[2])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("bimonoid_automata", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
"""

# Every public name of the package namespace before it resolved names lazily.
PUBLIC_NAMES = (
    "ADJOINED_ZERO", "AlphabetClass", "BUILTIN_NAMES", "BimonoidProperty",
    "CarrierNotClosedError", "CheckReport", "CountingAlgebra", "FiniteTableAlgebra",
    "HalfCondition", "HierarchyInconsistencyError", "INFINITY", "InfiniteCarrierError",
    "MalformedTableError", "Polynomial", "PropertyReport", "PropertyVerdict",
    "RankedAlphabet", "Semantics", "Tabulation", "TheoremCheckConfig", "Tree",
    "TreeAutomaton", "UnknownAlgebraError", "ValidationReport", "WeightAlgebra",
    "WordAutomaton", "algebra", "all_cuts", "all_words", "b3prime", "b4", "boole",
    "branching_probe_automaton", "bridge", "builtin", "bundled_finite_algebras", "check",
    "check_image_theorem", "check_support_theorem_trees",
    "check_support_theorem_words", "check_theorem", "classify", "classify_alphabet", "cost_profile",
    "cut_partial_product", "diamond", "doubled_probe_tree", "enumerate_trees", "expand",
    "harness", "hexagon", "is_normal_form", "lattice_algebra", "leaves_cut", "merge",
    "mixed_prefix_product", "nat_plus_min", "nat_plus_plus", "nat_plus_plus_table", "parse",
    "pentagon", "poly_monome", "positions", "postorder", "probe_automaton", "properties",
    "random_tree_automaton", "random_word_automaton", "restrict_to_nullary",
    "string_alphabet", "string_wta_to_wsa", "subtree_at", "tabulate", "tree_to_word",
    "trees", "trunc_fun", "validate_axioms", "word_to_tree", "words", "wsa_to_wta",
)


def all_modules(code: str, *argv) -> set:
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", PROBE, code, *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def loaded_modules(code: str, *argv) -> set:
    """The package's submodules that running ``code`` loads."""
    prefix = "bimonoid_automata."
    return {m[len(prefix):] for m in all_modules(code, *argv) if m.startswith(prefix)}


def command_modules(*argv) -> set:
    return loaded_modules(COMMAND, json.dumps(argv))


@pytest.fixture
def word_file(tmp_path):
    path = str(tmp_path / "probe.json")
    fileio.save_automaton(W.probe_automaton(ba.b4(), 2, 2, 2), path)
    return path


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import bimonoid_automata") == set()


def test_props_loads_no_semantics_layer():
    loaded = command_modules("props", "--algebra", "B4", "--format", "json")
    assert "properties" in loaded
    assert not loaded & {"trees", "words", "bridge", "harness"}


@pytest.mark.parametrize("argv", [
    ["eval", "--input", "gamma"],
    ["support", "--input", "gamma", "--semantics", "run"],
    ["image", "--max-len", "2"],
    ["profile", "--input", "gamma"],
], ids=["eval", "support", "image", "profile"])
def test_word_commands_do_not_load_trees(argv, word_file):
    loaded = command_modules(*argv, "--automaton", word_file, "--format", "json")
    assert "words" in loaded
    assert not loaded & {"trees", "bridge", "harness", "properties"}


@pytest.mark.parametrize("argv", [
    ["props", "--algebra", "B4"],
    ["eval", "--automaton", "WORD", "--input", "gamma"],
    ["check", "supports-words", "--algebra", "B4"],
], ids=["props", "eval", "check"])
def test_commands_load_no_code_generator_or_traceback(argv, word_file):
    # dataclasses imports inspect (with dis and ast) and execs generated
    # source per class; traceback serves only the internal-error exit. A
    # bare interpreter's modules are subtracted, in case its site loads them.
    argv = [word_file if arg == "WORD" else arg for arg in argv]
    loaded = all_modules(COMMAND, json.dumps(argv)) - all_modules("")
    assert not loaded & {"dataclasses", "inspect", "traceback"}


def test_modules_held_across_a_reimport_keep_working(tmp_path):
    # a caller may drop the package from sys.modules and import it again while
    # holding the old modules (the benchmark's set-ups do); a function-level
    # import then finds the new modules, so the old ones must not mix the two
    # generations' classes, enums or tables
    code = f"""
import importlib
def fresh():
    for m in [m for m in sys.modules if m.split(".")[0] == "bimonoid_automata"]:
        del sys.modules[m]
    return [importlib.import_module("bimonoid_automata." + m) for m in ("algebra", "fileio", "harness", "words")]
A, F, H, W = fresh()
fresh()
for alg in (A.b4(), A.pentagon(), A.trunc_fun(2)):
    for mode in ("words", "trees"):
        assert H.check_image_theorem(alg, mode).as_predicted
    config = H.TheoremCheckConfig(algebra=alg, num_automata=3)
    assert H.check_support_theorem_words(config).as_predicted
    assert H.check_support_theorem_trees(config).as_predicted
    F.save_automaton(W.probe_automaton(alg, alg.one, alg.one, alg.one), {str(tmp_path / "p.json")!r})
    loaded = F.load_automaton({str(tmp_path / "p.json")!r})
    assert W.initial_semantics(loaded, ("gamma",)) == W.run_semantics(loaded, ("gamma",), prune=True)
    assert H.cost_profile(loaded, ("gamma",)).init_counts == W.word_init_cost(3, 1)
"""
    loaded_modules(code)


def test_every_public_name_still_resolves():
    code = f"import bimonoid_automata as ba\nfor name in {PUBLIC_NAMES!r}: getattr(ba, name)"
    assert loaded_modules(code) >= {"algebra", "bridge", "harness", "properties", "trees", "words"}


def test_star_import_gives_each_name_from_its_home_module():
    namespace: dict = {}
    exec("from bimonoid_automata import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES) | {"config"} == set(ba.__all__)
    for name, home in ba._HOME.items():
        assert namespace[name] is getattr(importlib.import_module(f"bimonoid_automata.{home}"), name)
    for name in ba._EXPORTS:
        assert namespace[name] is importlib.import_module(f"bimonoid_automata.{name}")
    assert set(ba.__all__) <= set(dir(ba))
    assert properties.HierarchyInconsistencyError is algebra.HierarchyInconsistencyError


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        ba.nonexistent
