"""Desk-scale verification of the support and image theorems.

Each theorem is a row of ``_THEOREMS``: a sweep, a comparison, hypothesis
conditions, and a ladder of (condition, probe builder) pairs.
:func:`check_theorem` decides the hypothesis exhaustively, then either sweeps
seeded random automata over bounded inputs expecting agreement, or builds one
probe from the first failing ladder condition's witness and confirms the
predicted difference: one-sided supports for a half-condition, different
values for a distributive law. A check never concludes that a theorem is
false: an unexpected outcome is reported as inconsistent and treated as an
implementation bug signal by callers.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple, Optional

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
# Theorem checks: sweeps, probes, and the theorems as data


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


def _word_probe(config, witness):
    """The word probe from (a, b, c) on the alphabet's first symbol."""
    gamma = config.word_alphabet[0]
    return W.probe_automaton(config.algebra, *witness, gamma, config.word_alphabet), (gamma,)


def _monadic_probe(config, witness):
    """The word probe from (a, b, c) lifted through the unary spine."""
    unary, alpha = config.tree_alphabet.of_rank(1), config.tree_alphabet.of_rank(0)[0]
    automaton = wsa_to_wta(W.probe_automaton(config.algebra, *witness, unary[0], unary), alpha)
    return automaton, word_to_tree((unary[0],), alpha)


def _branching_probe(config, witness):
    """The doubled-tree probe from (a, b, b', c)."""
    alphabet = config.tree_alphabet
    return T.branching_probe_automaton(config.algebra, *witness, alphabet), T.doubled_probe_tree(alphabet)


class _Theorem(NamedTuple):
    sweep: Callable  # _sweep_words or _sweep_trees
    compare: Callable  # _supports_differ or _values_differ
    hypothesis: tuple  # the conditions that must all hold for a sweep
    ladder: tuple  # (condition, probe builder): the first failing condition is probed


def _support(sweep, hypothesis, probe) -> _Theorem:
    """A support theorem, whose ladder is its hypothesis's halves."""
    return _Theorem(sweep, _supports_differ, (hypothesis,), tuple((half, probe) for half in _HALVES[hypothesis]))


_RIGHT, _LEFT = BimonoidProperty.RIGHT_DISTRIBUTIVE, BimonoidProperty.LEFT_DISTRIBUTIVE

# Each theorem under its ``bimaut check`` target. The alphabet class picks
# the row of supports-trees: a trivial alphabet's trees are single leaves,
# where the two semantics coincide, so its row decides nothing and builds no
# tables (counts stay exact). The image tree probe, x*y*z + x*y'*z against
# x*(y+y')*z, takes (one, a, b, c) for the right law and (c, a, b, one) for the left.
_THEOREMS = {
    "supports-words": _support(_sweep_words, BimonoidProperty.STRONGLY_ZSF, _word_probe),
    "supports-trees": {
        "trivial": _Theorem(_sweep_trees, _values_differ, (), ()),
        "monadic": _support(_sweep_trees, BimonoidProperty.STRONGLY_ZSF, _monadic_probe),
        "branching": _support(_sweep_trees, BimonoidProperty.BI_STRONGLY_ZSF, _branching_probe),
    },
    "images-words": _Theorem(_sweep_words, _values_differ, (_RIGHT,), (
        (_RIGHT, lambda config, w: (W.probe_automaton(config.algebra, *w), ("gamma",))),
    )),
    "images-trees": _Theorem(_sweep_trees, _values_differ, (_RIGHT, _LEFT), (
        (_RIGHT, lambda config, w: _branching_probe(config, (config.algebra.one, *w))),
        (_LEFT, lambda config, w: _branching_probe(config, (w[2], w[0], w[1], config.algebra.one))),
    )),
}


def check_theorem(name: str, config: TheoremCheckConfig) -> CheckReport:
    """Check the theorem ``name`` of ``_THEOREMS`` on ``config``: tabulate once,
    decide each condition at most once, then sweep or probe."""
    if name not in _THEOREMS:
        raise ValueError(f"unknown theorem {name!r}; expected one of {', '.join(_THEOREMS)}")
    theorem, hypothesis = _THEOREMS[name], {}
    if isinstance(theorem, dict):
        cls = classify_alphabet(config.tree_alphabet)
        label = "trivial" if cls.trivial else "monadic" if cls.monadic else "branching"
        theorem, hypothesis = theorem[label], {"alphabet-class": label}
    tables = tabulate(config.algebra) if theorem.hypothesis else None
    verdicts = {cond: check(tables, cond) for cond in theorem.hypothesis}
    hypothesis.update((cond.value, verdict.holds) for cond, verdict in verdicts.items())
    if all(verdict.holds for verdict in verdicts.values()):
        return theorem.sweep(name, config, hypothesis, theorem.compare, tables and _count_cycle(tables))
    for cond, build in theorem.ladder:
        verdict = verdicts.get(cond) or check(tables, cond)
        if not verdict.holds:
            return _probe(name, config, hypothesis, verdict, *build(config, verdict.witness))
    # a hypothesis fails only through one of its halves in a strong bimonoid
    raise HierarchyInconsistencyError(
        f"{config.algebra.name}: a support hypothesis fails but neither of its halves does")


def check_support_theorem_words(config: TheoremCheckConfig) -> CheckReport:
    """Supports of the two word semantics coincide iff the algebra is strongly zero-sum-free."""
    return check_theorem("supports-words", config)


def check_support_theorem_trees(config: TheoremCheckConfig) -> CheckReport:
    """Supports of the two tree semantics coincide iff the algebra meets its alphabet class's condition."""
    return check_theorem("supports-trees", config)


def check_image_theorem(alg: WeightAlgebra, mode: str) -> CheckReport:
    """Images of the two semantics agree iff the algebra is right-distributive
    (words), or right- and left-distributive (trees); at the config defaults."""
    if mode not in ("words", "trees"):
        raise ValueError("mode must be 'words' or 'trees'")
    return check_theorem(f"images-{mode}", TheoremCheckConfig(algebra=alg))


# --------------------------------------------------------------------------
# Cost profiling


def cost_profile(automaton, inp) -> CostProfile:
    """The cost profile of ``inp`` from the automaton's own module: closed
    forms for words, the linear bound for trees."""
    return (W if automaton.kind == "word" else T).cost_profile(automaton, inp)
