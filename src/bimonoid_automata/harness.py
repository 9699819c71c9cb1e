"""Desk-scale verification of the support and image theorems.

Each check decides the algebra-side hypothesis exhaustively, then either
sweeps seeded random automata over bounded inputs expecting agreement, or
builds one probe from the first failing condition's witness and confirms the
predicted difference: one-sided supports for a half-condition, different
values for a distributive law. A check never concludes that a theorem is
false: an unexpected outcome is reported as inconsistent and treated as an
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
from .config import TheoremCheckConfig
from .properties import _HALVES, BimonoidProperty, HalfCondition, check
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
                if w != algebra.zero:
                    quads.append((sw, sym, q, w))
    final = tuple(draw() for _ in states)
    return TreeAutomaton(algebra, alphabet, states, quads, final)


# --------------------------------------------------------------------------
# Support theorems


def _supports_differ(alg, run_val, init_val) -> Optional[str]:
    run_in, init_in = run_val != alg.zero, init_val != alg.zero
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


def _sweep_words(theorem, config, hypothesis, compare, cycle) -> CheckReport:
    """``_sweep`` over every word of at most ``config.max_word_len`` symbols."""
    alphabet, max_len = config.word_alphabet, config.max_word_len
    return _sweep(
        theorem, config, hypothesis,
        lambda rng: random_word_automaton(rng, config.algebra, alphabet, config.max_states),
        lambda automaton: W.explore(automaton, max_len, cycle),
        sum(len(alphabet) ** n for n in range(max_len + 1)),
        compare,
    )


def _sweep_trees(theorem, config, hypothesis, compare, cycle=None) -> CheckReport:
    """``_sweep`` over every tree of at most ``config.max_tree_size`` nodes,
    all automata walking one node table."""
    alphabet, max_size = config.tree_alphabet, config.max_tree_size
    test_trees = list(T.enumerate_trees(alphabet, max_size))
    # a symbol of rank max_size or more occurs in no tree of max_size
    # nodes, so the automata draw no weights for it
    drawn = RankedAlphabet({s: k for s, k in alphabet.to_dict().items() if k < max_size})
    table = T.NodeTable(drawn, test_trees)
    return _sweep(
        theorem, config, hypothesis,
        lambda rng: random_tree_automaton(rng, config.algebra, drawn, config.max_states),
        lambda automaton: T.explore(automaton, table, cycle),
        len(test_trees),
        compare,
    )


def _first_failing_half(tables, hypothesis):
    """Verdict of the first failing half of a support hypothesis, run-to-init first."""
    for half in _HALVES[hypothesis]:
        verdict = check(tables, half)
        if not verdict.holds:
            return verdict
    # a hypothesis fails only through one of its halves in a strong bimonoid
    raise HierarchyInconsistencyError(
        f"{tables.algebra.name}: a support hypothesis fails but neither of its halves does"
    )


def _probe(theorem, config, hypothesis, verdict, automaton, inp) -> CheckReport:
    """Evaluate the probe built from a failing verdict's witness and confirm
    what it predicts: a failing half, the one-sided support difference of
    that half; a failing law, different values."""
    alg, mod = config.algebra, W if automaton.kind == "word" else T
    run_val = mod.evaluate(automaton, inp, Semantics.RUN, prune=True)
    init_val = mod.evaluate(automaton, inp, Semantics.INIT)
    failing = verdict.property
    if isinstance(failing, HalfCondition):
        run_to_init = failing in (HalfCondition.RUN_TO_INIT, HalfCondition.TREE_RUN_TO_INIT)
        expected, compare, key = "run-only" if run_to_init else "init-only", _supports_differ, "failing-half"
    else:
        expected, compare, key = "values-differ", _values_differ, "failing-law"
    witness = CheckWitness(
        automaton, inp, alg.describe(run_val), alg.describe(init_val),
        expected, verdict.witness_labels,
    )
    return CheckReport(
        theorem, alg.name, "counterexample",
        compare(alg, run_val, init_val) == expected,
        {**hypothesis, key: failing.value}, witness,
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
        return _sweep_words("supports-words", config, hypothesis, _supports_differ, _count_cycle(tables))

    verdict = _first_failing_half(tables, BimonoidProperty.STRONGLY_ZSF)
    a, b, c = verdict.witness
    gamma = alphabet[0]
    automaton = W.probe_automaton(alg, a, b, c, gamma, alphabet)
    return _probe("supports-words", config, hypothesis, verdict, automaton, (gamma,))


def check_support_theorem_trees(config: TheoremCheckConfig) -> CheckReport:
    """Tree-support analogue, sensitive to the alphabet class: trivial
    alphabets are always consistent, monadic ones test the word condition,
    branching ones test bi-strong zero-sum-freeness."""
    alg = config.algebra
    alphabet = config.tree_alphabet
    cls = classify_alphabet(alphabet)

    if cls.trivial:
        # every tree is a single leaf, on which the two semantics coincide;
        # no tables are built, so counts stay exact
        return _sweep_trees("supports-trees", config, {"alphabet-class": "trivial"}, _values_differ)

    label, hypothesis_prop = (("monadic", BimonoidProperty.STRONGLY_ZSF) if cls.monadic
                              else ("branching", BimonoidProperty.BI_STRONGLY_ZSF))
    tables = tabulate(alg)
    hyp = check(tables, hypothesis_prop)
    hypothesis = {"alphabet-class": label, hypothesis_prop.value: hyp.holds}

    if hyp.holds:
        return _sweep_trees("supports-trees", config, hypothesis, _supports_differ, _count_cycle(tables))

    verdict = _first_failing_half(tables, hypothesis_prop)
    if cls.monadic:
        # word-style failure lifted through the unary spine
        a, b, c = verdict.witness
        unary, alpha = alphabet.of_rank(1), alphabet.of_rank(0)[0]
        automaton = wsa_to_wta(W.probe_automaton(alg, a, b, c, unary[0], unary), alpha)
        t = word_to_tree((unary[0],), alpha)
    else:
        a, b, bp, c = verdict.witness
        automaton = T.branching_probe_automaton(alg, a, b, bp, c, alphabet)
        t = T.doubled_probe_tree(alphabet)
    return _probe("supports-trees", config, hypothesis, verdict, automaton, t)


# --------------------------------------------------------------------------
# Image theorem


def check_image_theorem(alg: WeightAlgebra, mode: str) -> CheckReport:
    """Images of the two semantics agree for every automaton iff the algebra
    is right-distributive (words), or right- and left-distributive (trees).
    Decide the laws, then sweep as the support checks do, at
    :class:`TheoremCheckConfig`'s defaults, or probe the first failing law's
    witness (a, b, c) on the probe's one input of nonzero value, where
    different values are different images. The tree probe, x*y*z + x*y'*z
    against x*(y+y')*z, takes (one, a, b, c) for the right law and
    (c, a, b, one) for the left."""
    if mode not in ("words", "trees"):
        raise ValueError("mode must be 'words' or 'trees'")
    config, tables, theorem = TheoremCheckConfig(algebra=alg), tabulate(alg), f"images-{mode}"
    laws = (BimonoidProperty.RIGHT_DISTRIBUTIVE, BimonoidProperty.LEFT_DISTRIBUTIVE)
    verdicts = [check(tables, law) for law in laws[: 1 if mode == "words" else 2]]
    hypothesis = {v.property.value: v.holds for v in verdicts}
    failing = next((v for v in verdicts if not v.holds), None)
    if failing is None:
        sweep = _sweep_words if mode == "words" else _sweep_trees
        return sweep(theorem, config, hypothesis, _values_differ, _count_cycle(tables))

    a, b, c = failing.witness
    if mode == "words":
        return _probe(theorem, config, hypothesis, failing, W.probe_automaton(alg, a, b, c), ("gamma",))
    x, z = (alg.one, c) if failing.property is laws[0] else (c, alg.one)
    automaton = T.branching_probe_automaton(alg, x, a, b, z, config.tree_alphabet)
    return _probe(theorem, config, hypothesis, failing, automaton, T.doubled_probe_tree(config.tree_alphabet))


# --------------------------------------------------------------------------
# Cost profiling


def cost_profile(automaton, inp) -> CostProfile:
    """The cost profile of ``inp`` from the automaton's own module: closed
    forms for words, the linear bound for trees."""
    return (W if automaton.kind == "word" else T).cost_profile(automaton, inp)
