"""Weighted word and tree automata over strong bimonoids.

The package compares two evaluation strategies for nondeterministic weighted
automata whose weight structure need not be distributive: the run semantics
(sum over all state labelings) and the initial-algebra semantics (structural
state-vector recursion). It bundles the zero-sum-freeness property hierarchy
that governs when the two strategies have the same support, and a harness
that verifies those characterizations exhaustively at desk scale.
"""

from .algebra import (
    ADJOINED_ZERO,
    BUILTIN_NAMES,
    CarrierNotClosedError,
    CountingAlgebra,
    FiniteTableAlgebra,
    INFINITY,
    InfiniteCarrierError,
    MalformedTableError,
    Polynomial,
    Semantics,
    Tabulation,
    UnknownAlgebraError,
    ValidationReport,
    WeightAlgebra,
    b3prime,
    b4,
    boole,
    builtin,
    bundled_finite_algebras,
    diamond,
    hexagon,
    lattice_algebra,
    nat_plus_min,
    nat_plus_plus,
    nat_plus_plus_table,
    pentagon,
    poly_monome,
    tabulate,
    trunc_fun,
    validate_axioms,
)
from .bridge import string_alphabet, string_wta_to_wsa, tree_to_word, word_to_tree, wsa_to_wta
from .properties import (
    BimonoidProperty,
    HalfCondition,
    HierarchyInconsistencyError,
    PropertyReport,
    PropertyVerdict,
    check,
    check_half,
    classify,
)
from .trees import (
    AlphabetClass,
    RankedAlphabet,
    Tree,
    TreeAutomaton,
    all_cuts,
    branching_probe_automaton,
    classify_alphabet,
    cut_partial_product,
    doubled_probe_tree,
    enumerate_trees,
    expand,
    is_normal_form,
    leaves_cut,
    merge,
    parse,
    positions,
    postorder,
    restrict_to_nullary,
    subtree_at,
)
from .words import WordAutomaton, all_words, mixed_prefix_product, probe_automaton
from .harness import (
    CheckReport,
    TheoremCheckConfig,
    check_image_theorem,
    check_support_theorem_trees,
    check_support_theorem_words,
    cost_profile,
    random_tree_automaton,
    random_word_automaton,
)

__version__ = "0.1.0"
