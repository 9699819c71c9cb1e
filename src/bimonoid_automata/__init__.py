"""Weighted word and tree automata over strong bimonoids.

The package compares two evaluation strategies for nondeterministic weighted
automata whose weight structure need not be distributive: the run semantics
(sum over all state labelings) and the initial-algebra semantics (structural
state-vector recursion). It bundles the zero-sum-freeness property hierarchy
that governs when the two strategies have the same support, and a harness
that verifies those characterizations exhaustively at desk scale.

The names below are imported from their home module on first access
(PEP 562), so importing the package, or running one ``bimaut`` command,
loads only the modules that are used.
"""

from importlib import import_module as _import_module

# home module -> the public names the package re-exports from it
_EXPORTS = {
    "algebra": (
        "ADJOINED_ZERO", "BUILTIN_NAMES", "CarrierNotClosedError", "CountingAlgebra",
        "FiniteTableAlgebra", "HierarchyInconsistencyError", "INFINITY",
        "InfiniteCarrierError", "MalformedTableError", "Polynomial", "Semantics",
        "Tabulation", "UnknownAlgebraError", "ValidationReport", "WeightAlgebra",
        "b3prime", "b4", "boole", "builtin", "bundled_finite_algebras", "diamond",
        "hexagon", "lattice_algebra", "nat_plus_min", "nat_plus_plus",
        "nat_plus_plus_table", "pentagon", "poly_monome", "tabulate", "trunc_fun",
        "validate_axioms",
    ),
    "bridge": (
        "string_alphabet", "string_wta_to_wsa", "tree_to_word", "word_to_tree", "wsa_to_wta",
    ),
    "properties": (
        "BimonoidProperty", "HalfCondition", "PropertyReport", "PropertyVerdict",
        "check", "classify",
    ),
    "trees": (
        "AlphabetClass", "RankedAlphabet", "Tree", "TreeAutomaton", "all_cuts",
        "branching_probe_automaton", "classify_alphabet", "cut_partial_product",
        "doubled_probe_tree", "enumerate_trees", "expand", "is_normal_form",
        "leaves_cut", "merge", "parse", "positions", "postorder",
        "restrict_to_nullary", "subtree_at",
    ),
    "words": ("WordAutomaton", "all_words", "mixed_prefix_product", "probe_automaton"),
    "config": ("TheoremCheckConfig",),
    "harness": (
        "CheckReport", "check_image_theorem", "check_support_theorem_trees",
        "check_support_theorem_words", "check_theorem", "cost_profile",
        "random_tree_automaton", "random_word_automaton",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
