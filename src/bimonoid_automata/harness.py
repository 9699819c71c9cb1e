"""Desk-scale verification of the support and image theorems.

Each check decides the algebra-side hypothesis exhaustively, then either
sweeps random automata over bounded inputs expecting agreement, or builds the
probe automaton from the property checker's witness and confirms the
predicted one-sided support failure. A check never concludes that a theorem
is false: an unexpected outcome is reported as inconsistent and treated as an
implementation bug signal by callers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from . import trees as T
from . import words as W
from .algebra import CountingAlgebra, Semantics, WeightAlgebra, tabulate
from .bridge import word_to_tree, wsa_to_wta
from .properties import (
    BimonoidProperty,
    HalfCondition,
    HierarchyInconsistencyError,
    check,
    check_half,
)
from .trees import RankedAlphabet, Tree, TreeAutomaton, classify_alphabet
from .words import WordAutomaton

DEFAULT_WORD_ALPHABET = ("a", "b")
DEFAULT_TREE_ALPHABET = {"alpha": 0, "sigma": 2}


@dataclass
class TheoremCheckConfig:
    """Bounds, trial counts and seeding for one theorem check."""

    algebra: WeightAlgebra
    word_alphabet: tuple = DEFAULT_WORD_ALPHABET
    tree_alphabet: Optional[RankedAlphabet] = None
    max_word_len: int = 4
    max_tree_size: int = 7
    num_automata: int = 100
    max_states: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.tree_alphabet is None:
            self.tree_alphabet = RankedAlphabet(dict(DEFAULT_TREE_ALPHABET))
        if min(self.max_word_len, self.max_tree_size, self.num_automata, self.max_states) < 1:
            raise ValueError("bounds and trial counts must be >= 1")


@dataclass
class CheckWitness:
    automaton: object
    input: object
    run_value: str
    init_value: str
    direction: str  # "run-only" | "init-only" | "values-differ"
    params: Optional[tuple] = None

    def to_dict(self):
        label = str(self.input) if isinstance(self.input, Tree) else " ".join(self.input) or "<empty>"
        d = {
            "input": label,
            "run": self.run_value,
            "init": self.init_value,
            "direction": self.direction,
        }
        if self.params is not None:
            d["params"] = list(self.params)
        return d


@dataclass
class CheckReport:
    theorem: str
    algebra: str
    verdict: str  # "consistent" | "counterexample"
    as_predicted: bool
    hypothesis: dict
    witness: Optional[CheckWitness] = None
    stats: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_dict(self):
        d = {
            "theorem": self.theorem,
            "algebra": self.algebra,
            "verdict": self.verdict,
            "as_predicted": self.as_predicted,
            "hypothesis": self.hypothesis,
            "stats": self.stats,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d

    def __str__(self):
        lines = [f"{self.theorem} on {self.algebra}: {self.verdict}"
                 + ("" if self.as_predicted else "  ** NOT AS PREDICTED **")]
        for k, v in self.hypothesis.items():
            lines.append(f"  hypothesis {k}: {v}")
        if self.witness is not None:
            w = self.witness.to_dict()
            lines.append(
                f"  witness input={w['input']} run={w['run']} init={w['init']} ({w['direction']})"
            )
            if "params" in w:
                lines.append(f"  witness params: {', '.join(w['params'])}")
        for k, v in self.stats.items():
            lines.append(f"  {k}: {v}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Random automata (zero-biased weights make support differences findable)


def random_weight(rng: random.Random, carrier, zero):
    if rng.random() < 0.5:
        return zero
    return carrier[rng.randrange(len(carrier))]


def random_word_automaton(
    rng: random.Random,
    algebra: WeightAlgebra,
    alphabet,
    max_states: int = 3,
) -> WordAutomaton:
    carrier = list(algebra.elements())
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    draw = lambda: random_weight(rng, carrier, algebra.zero)
    initial = tuple(draw() for _ in states)
    final = tuple(draw() for _ in states)
    matrices = {
        a: [[draw() for _ in states] for _ in states] for a in alphabet
    }
    return WordAutomaton(algebra, alphabet, states, initial, final, matrices)


def random_tree_automaton(
    rng: random.Random,
    algebra: WeightAlgebra,
    alphabet: RankedAlphabet,
    max_states: int = 3,
) -> TreeAutomaton:
    carrier = list(algebra.elements())
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    draw = lambda: random_weight(rng, carrier, algebra.zero)
    quads = []
    for sym in alphabet.symbols:
        k = alphabet.rank(sym)
        for sw in itertools.product(states, repeat=k):
            for q in states:
                w = draw()
                if not algebra.is_zero(w):
                    quads.append((sw, sym, q, w))
    final = tuple(draw() for _ in states)
    return TreeAutomaton(algebra, alphabet, states, quads, final)


# --------------------------------------------------------------------------
# Support theorems


def _supports_differ(alg, run_val, init_val) -> Optional[str]:
    run_in, init_in = not alg.is_zero(run_val), not alg.is_zero(init_val)
    if run_in == init_in:
        return None
    return "run-only" if run_in else "init-only"


def _values_differ(alg, run_val, init_val) -> Optional[str]:
    return None if alg.equal(run_val, init_val) else "values-differ"


def _sweep(theorem, config, hypothesis, mod, random_automaton, inputs, compare) -> CheckReport:
    """Evaluate both semantics of ``config.num_automata`` random automata on
    every input of ``inputs()`` (one ``mod.values`` stream per automaton), and
    report the first input on which ``compare(alg, run_value, init_value)``
    names a direction."""
    alg = config.algebra
    rng = random.Random(config.seed)
    checked = 0
    for trial in range(config.num_automata):
        automaton = random_automaton(rng)
        for inp, run_val, init_val in mod.values(automaton, inputs()):
            checked += 1
            direction = compare(alg, run_val, init_val)
            if direction is not None:
                witness = CheckWitness(
                    automaton, inp, alg.describe(run_val), alg.describe(init_val), direction
                )
                return CheckReport(
                    theorem, alg.name, "counterexample", False, hypothesis, witness,
                    {"automata_checked": trial + 1, "inputs_checked": checked}, config.seed,
                )
    return CheckReport(
        theorem, alg.name, "consistent", True, hypothesis, None,
        {"automata_checked": config.num_automata, "inputs_checked": checked}, config.seed,
    )


# The halves of each support hypothesis, run-to-init first.
_WORD_HALVES = (HalfCondition.RUN_TO_INIT, HalfCondition.INIT_TO_RUN)
_TREE_HALVES = (HalfCondition.TREE_RUN_TO_INIT, HalfCondition.TREE_INIT_TO_RUN)


def _first_failing_half(tables, halves):
    """First failing half-condition, checked in the given order."""
    for half in halves:
        verdict = check_half(tables, half)
        if not verdict.holds:
            return half, verdict
    # a hypothesis fails only through one of its halves in a strong bimonoid
    raise HierarchyInconsistencyError(
        f"{tables.algebra.name}: a support hypothesis fails but neither of its halves does"
    )


def _probe(theorem, config, hypothesis, half, verdict, mod, automaton, inp) -> CheckReport:
    """Evaluate the probe built from a failing half's witness and confirm the
    one-sided support difference that half predicts."""
    alg = config.algebra
    [(_, run_val, init_val)] = mod.values(automaton, [inp])
    run_to_init = half in (HalfCondition.RUN_TO_INIT, HalfCondition.TREE_RUN_TO_INIT)
    expected = "run-only" if run_to_init else "init-only"
    witness = CheckWitness(
        automaton, inp, alg.describe(run_val), alg.describe(init_val),
        expected, verdict.witness_labels,
    )
    return CheckReport(
        theorem, alg.name, "counterexample",
        _supports_differ(alg, run_val, init_val) == expected,
        {**hypothesis, "failing-half": half.value}, witness,
        {"automata_checked": 1, "inputs_checked": 1}, config.seed,
    )


def check_support_theorem_words(config: TheoremCheckConfig) -> CheckReport:
    """Supports of the two word semantics coincide iff the algebra is strongly
    zero-sum-free: sweep when the hypothesis holds, probe when it fails."""
    alg = config.algebra
    alphabet = config.word_alphabet
    tables = tabulate(alg)
    strongly = check(tables, BimonoidProperty.STRONGLY_ZSF)
    hypothesis = {"strongly-zero-sum-free": strongly.holds}

    if strongly.holds:
        return _sweep(
            "supports-words", config, hypothesis, W,
            lambda rng: random_word_automaton(rng, alg, alphabet, config.max_states),
            lambda: W.all_words(alphabet, config.max_word_len),
            _supports_differ,
        )

    half, verdict = _first_failing_half(tables, _WORD_HALVES)
    a, b, c = verdict.witness
    gamma = alphabet[0]
    automaton = W.probe_automaton(alg, a, b, c, gamma, alphabet)
    return _probe("supports-words", config, hypothesis, half, verdict, W, automaton, (gamma,))


def check_support_theorem_trees(config: TheoremCheckConfig) -> CheckReport:
    """Tree-support analogue, sensitive to the alphabet class: trivial
    alphabets are always consistent, monadic ones test the word condition,
    branching ones test bi-strong zero-sum-freeness."""
    alg = config.algebra
    alphabet = config.tree_alphabet
    cls = classify_alphabet(alphabet)

    def sweep(hypothesis, max_size, compare):
        test_trees = list(T.enumerate_trees(alphabet, max_size))
        return _sweep(
            "supports-trees", config, hypothesis, T,
            lambda rng: random_tree_automaton(rng, alg, alphabet, config.max_states),
            lambda: test_trees,
            compare,
        )

    if cls.trivial:
        # every tree is a single leaf, on which the two semantics coincide
        return sweep({"alphabet-class": "trivial"}, 1, _values_differ)

    if cls.monadic:
        hypothesis_prop = BimonoidProperty.STRONGLY_ZSF
        label = "monadic"
    else:
        hypothesis_prop = BimonoidProperty.BI_STRONGLY_ZSF
        label = "branching"
    tables = tabulate(alg)
    hyp = check(tables, hypothesis_prop)
    hypothesis = {"alphabet-class": label, hypothesis_prop.value: hyp.holds}

    if hyp.holds:
        return sweep(hypothesis, config.max_tree_size, _supports_differ)

    if cls.monadic:
        # word-style failure lifted through the unary spine
        half, verdict = _first_failing_half(tables, _WORD_HALVES)
        a, b, c = verdict.witness
        unary, alpha = alphabet.of_rank(1), alphabet.of_rank(0)[0]
        automaton = wsa_to_wta(W.probe_automaton(alg, a, b, c, unary[0], unary), alpha)
        t = word_to_tree((unary[0],), alpha)
    else:
        half, verdict = _first_failing_half(tables, _TREE_HALVES)
        a, b, bp, c = verdict.witness
        automaton = T.branching_probe_automaton(alg, a, b, bp, c, alphabet)
        t = T.doubled_probe_tree(alphabet)
    return _probe("supports-trees", config, hypothesis, half, verdict, T, automaton, t)


# --------------------------------------------------------------------------
# Image theorem


def check_image_theorem(alg: WeightAlgebra, mode: str) -> CheckReport:
    """Image equality of the two semantics across the probe family matches the
    distributivity verdicts: right-distributivity for words; right and left
    for trees over a branching alphabet (the tree probe, taken with c = one,
    pins down the left law)."""
    tables = tabulate(alg)
    if mode == "words":
        props = (BimonoidProperty.RIGHT_DISTRIBUTIVE,)
        probe = lambda a, b, c: W.probe_automaton(alg, a, b, c)
        mod, inp, bound = W, ("gamma",), 1
    elif mode == "trees":
        props = (BimonoidProperty.RIGHT_DISTRIBUTIVE, BimonoidProperty.LEFT_DISTRIBUTIVE)
        alphabet = RankedAlphabet(dict(DEFAULT_TREE_ALPHABET))
        probe = lambda a, b, bp: T.branching_probe_automaton(alg, a, b, bp, alg.one, alphabet)
        mod, inp = T, T.doubled_probe_tree(alphabet)
        bound = T.size(inp)
    else:
        raise ValueError("mode must be 'words' or 'trees'")
    hypothesis = {prop.value: check(tables, prop).holds for prop in props}

    witness = None
    checked = 0
    for params in itertools.product(tables.elements, repeat=3):
        automaton = probe(*params)
        images = mod.images_up_to(automaton, bound)
        im_run, im_init = images[Semantics.RUN], images[Semantics.INIT]
        checked += 1
        if set(im_run) != set(im_init):
            witness = CheckWitness(
                automaton,
                inp,
                "{" + ", ".join(alg.describe(v) for v in im_run) + "}",
                "{" + ", ".join(alg.describe(v) for v in im_init) + "}",
                "values-differ",
                tuple(alg.describe(p) for p in params),
            )
            break
    images_all_equal = witness is None
    return CheckReport(
        f"images-{mode}",
        alg.name,
        "consistent" if images_all_equal else "counterexample",
        all(hypothesis.values()) == images_all_equal,
        hypothesis,
        witness,
        {"tuples_checked": checked},
    )


# --------------------------------------------------------------------------
# Cost profiling


def word_run_cost(n_states: int, length: int) -> dict:
    """Closed-form operation counts for the unpruned run enumeration."""
    runs = n_states ** (length + 1)
    return {"muls": runs * (length + 1), "adds": runs - 1}


def word_init_cost(n_states: int, length: int) -> dict:
    """Exact counts for the vector-matrix evolution plus the final fold."""
    return {
        "muls": length * n_states * n_states + n_states,
        "adds": length * n_states * (n_states - 1) + (n_states - 1),
    }


def tree_init_cost_bound(n_states: int, max_rank: int, tree_size: int) -> int:
    """Linear upper bound on total operations of the bottom-up recursion."""
    return (max_rank + 5) * n_states ** (max_rank + 1) * tree_size


@dataclass
class CostProfile:
    kind: str  # "word" | "tree"
    input_label: str
    n_states: int
    input_size: int
    run_counts: dict
    init_counts: dict
    run_value: str
    init_value: str
    predicted: dict

    def to_dict(self):
        return {
            "kind": self.kind,
            "input": self.input_label,
            "states": self.n_states,
            "size": self.input_size,
            "run": self.run_counts,
            "init": self.init_counts,
            "run_value": self.run_value,
            "init_value": self.init_value,
            "predicted": self.predicted,
        }

    def __str__(self):
        lines = [
            f"cost profile ({self.kind}, |Q|={self.n_states}, input {self.input_label})",
            f"  run : {self.run_counts['adds']} adds, {self.run_counts['muls']} muls -> {self.run_value}",
            f"  init: {self.init_counts['adds']} adds, {self.init_counts['muls']} muls -> {self.init_value}",
        ]
        for k, v in self.predicted.items():
            lines.append(f"  predicted {k}: {v}")
        return "\n".join(lines)


def cost_profile(automaton, inp) -> CostProfile:
    """Evaluate both semantics under a counting wrapper and report totals next
    to the closed-form predictions (words) or the linear bound (trees)."""
    counting = CountingAlgebra(automaton.algebra)
    shadow = automaton.with_algebra(counting)
    n_states = len(automaton.states)
    if isinstance(automaton, WordAutomaton):
        mod, inp = W, shadow.check_word(inp)
    else:
        mod, inp = T, shadow.check_tree(inp)

    def measured(semantics):
        counting.reset_counts()
        value = mod.evaluate(shadow, inp, semantics)
        return dict(zip(("adds", "muls"), counting.read_counts())), automaton.algebra.describe(value)

    run_counts, run_value = measured(Semantics.RUN)
    init_counts, init_value = measured(Semantics.INIT)

    if mod is W:
        kind, label, size = "word", " ".join(inp) or "<empty>", len(inp)
        predicted = {
            "run": word_run_cost(n_states, size),
            "init": word_init_cost(n_states, size),
        }
    else:
        kind, label, size = "tree", str(inp), T.size(inp)
        predicted = {
            "runs_enumerated": n_states ** size,
            "init_ops_bound": tree_init_cost_bound(n_states, automaton.alphabet.max_rank, size),
        }
    return CostProfile(
        kind, label, n_states, size, run_counts, init_counts, run_value, init_value, predicted
    )
