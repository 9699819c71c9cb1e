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
from typing import NamedTuple, Optional

from . import trees as T
from . import words as W
from .algebra import CostProfile, HierarchyInconsistencyError, Semantics, WeightAlgebra, _count_cycle, tabulate
from .bridge import word_to_tree, wsa_to_wta
from .config import DEFAULT_TREE_ALPHABET, TheoremCheckConfig
from .properties import BimonoidProperty, HalfCondition, check, check_half
from .trees import RankedAlphabet, Tree, TreeAutomaton, classify_alphabet
from .words import WordAutomaton


class CheckWitness(NamedTuple):
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


class _CheckReportFields(NamedTuple):
    theorem: str
    algebra: str
    verdict: str  # "consistent" | "counterexample"
    as_predicted: bool
    hypothesis: dict
    witness: Optional[CheckWitness] = None
    stats: Optional[dict] = None
    seed: Optional[int] = None


class CheckReport(_CheckReportFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # a report built without stats gets an empty dict of its own
        report = super().__new__(cls, *args, **kwargs)
        return report if report.stats is not None else report._replace(stats={})

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


def _random_states(rng: random.Random, algebra: WeightAlgebra, max_states: int) -> tuple:
    """Between 1 and ``max_states`` states named q0, q1, ..., and a sampler
    of zero-biased weights from the algebra's carrier."""
    carrier = list(algebra.elements())
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    return states, lambda: random_weight(rng, carrier, algebra.zero)


def random_word_automaton(
    rng: random.Random,
    algebra: WeightAlgebra,
    alphabet,
    max_states: int = 3,
) -> WordAutomaton:
    states, draw = _random_states(rng, algebra, max_states)
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
    states, draw = _random_states(rng, algebra, max_states)
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
    return None if run_val == init_val else "values-differ"


def _sweep(theorem, config, hypothesis, random_automaton, explore, n_inputs, compare) -> CheckReport:
    """Decide both semantics of ``config.num_automata`` random automata on
    ``n_inputs`` inputs each, and report the first input on which
    ``compare(alg, run_value, init_value)`` names a direction. Inputs of one
    configuration share their values, and ``explore(automaton)`` yields
    ``(rank, input, run value, init value)`` by rank for the first input of
    each, so its first hit is the first failing input."""
    alg = config.algebra
    rng = random.Random(config.seed)
    configurations = 0
    for trial in range(config.num_automata):
        automaton = random_automaton(rng)
        for rank, inp, run_val, init_val in explore(automaton):
            configurations += 1
            direction = compare(alg, run_val, init_val)
            if direction is not None:
                witness = CheckWitness(
                    automaton, inp, alg.describe(run_val), alg.describe(init_val), direction
                )
                stats = {"automata_checked": trial + 1, "inputs_checked": trial * n_inputs + rank + 1,
                         "configurations": configurations}
                return CheckReport(
                    theorem, alg.name, "counterexample", False, hypothesis, witness, stats, config.seed
                )
    stats = {"automata_checked": config.num_automata, "inputs_checked": config.num_automata * n_inputs,
             "configurations": configurations}
    return CheckReport(theorem, alg.name, "consistent", True, hypothesis, None, stats, config.seed)


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
    run_val = mod.evaluate(automaton, inp, Semantics.RUN, prune=True)
    init_val = mod.evaluate(automaton, inp, Semantics.INIT)
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
        max_len, cycle = config.max_word_len, _count_cycle(tables)
        return _sweep(
            "supports-words", config, hypothesis,
            lambda rng: random_word_automaton(rng, alg, alphabet, config.max_states),
            lambda automaton: W.explore(automaton, max_len, cycle),
            sum(len(alphabet) ** n for n in range(max_len + 1)),
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

    def sweep(hypothesis, max_size, compare, cycle=None):
        test_trees = list(T.enumerate_trees(alphabet, max_size))
        # a symbol of rank max_size or more occurs in no tree of max_size
        # nodes, so the automata draw no weights for it
        drawn = RankedAlphabet({s: k for s, k in alphabet.to_dict().items() if k < max_size})
        return _sweep(
            "supports-trees", config, hypothesis,
            lambda rng: random_tree_automaton(rng, alg, drawn, config.max_states),
            lambda automaton: T.explore(automaton, test_trees, cycle),
            len(test_trees),
            compare,
        )

    if cls.trivial:
        # every tree is a single leaf, on which the two semantics coincide;
        # no tables are built, so counts stay exact
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
        return sweep(hypothesis, config.max_tree_size, _supports_differ, _count_cycle(tables))

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


def cost_profile(automaton, inp) -> CostProfile:
    """The cost profile of ``inp`` from the automaton's own module: closed
    forms for words, the linear bound for trees."""
    return (W if automaton.kind == "word" else T).cost_profile(automaton, inp)
