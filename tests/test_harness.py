import random
import re

import pytest

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import properties
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import _count_cycle
from conftest import per_input_sweep


def config(alg, **kw):
    kw.setdefault("num_automata", 15)
    return H.TheoremCheckConfig(algebra=alg, **kw)


def revalidate(report):
    """A stored counterexample must reproduce its recorded values."""
    w = report.witness
    alg = w.automaton.algebra
    if isinstance(w.automaton, W.WordAutomaton):
        run_val = W.run_semantics(w.automaton, w.input, prune=True)
        init_val = W.initial_semantics(w.automaton, w.input)
    else:
        run_val = T.run_semantics(w.automaton, w.input, prune=True)
        init_val = T.initial_semantics(w.automaton, w.input)
    assert alg.describe(run_val) == w.run_value
    assert alg.describe(init_val) == w.init_value


def test_words_consistent_on_strongly_zsf():
    for alg in (ba.pentagon(), ba.boole()):
        report = H.check_support_theorem_words(config(alg))
        assert report.verdict == "consistent" and report.as_predicted
        assert report.stats["automata_checked"] == 15


def test_words_counterexample_on_b4():
    report = H.check_support_theorem_words(config(ba.b4()))
    assert report.verdict == "counterexample" and report.as_predicted
    assert report.hypothesis["failing-half"] == "init-to-run"
    assert report.witness.direction == "init-only"
    assert report.witness.run_value == "0" and report.witness.init_value == "2"
    assert report.witness.params == ("2", "2", "2")
    revalidate(report)


def test_words_counterexample_on_b3prime():
    report = H.check_support_theorem_words(config(ba.b3prime()))
    assert report.verdict == "counterexample" and report.as_predicted
    assert report.hypothesis["failing-half"] == "run-to-init"
    assert report.witness.direction == "run-only"
    assert report.witness.run_value == "2'" and report.witness.init_value == "0'"
    revalidate(report)


def test_trees_trivial_alphabet_always_consistent():
    alph = T.RankedAlphabet({"alpha": 0, "beta": 0})
    for alg in (ba.b4(), ba.trunc_fun(2)):
        report = H.check_support_theorem_trees(config(alg, tree_alphabet=alph))
        assert report.verdict == "consistent" and report.as_predicted


def test_trees_branching_consistent_on_pentagon():
    report = H.check_support_theorem_trees(config(ba.pentagon()))
    assert report.verdict == "consistent" and report.as_predicted
    assert report.hypothesis["bi-strongly-zero-sum-free"] is True


def test_trees_branching_counterexample_on_trunc_fun():
    report = H.check_support_theorem_trees(config(ba.trunc_fun(2)))
    assert report.verdict == "counterexample" and report.as_predicted
    assert report.hypothesis["failing-half"] == "tree-run-to-init"
    assert report.witness.direction == "run-only"
    alg = ba.trunc_fun(2)
    assert report.witness.init_value == alg.describe(alg.zero)
    assert report.witness.run_value != alg.describe(alg.zero)
    revalidate(report)


def test_trees_monadic_counterexample_on_b4():
    alph = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1})
    report = H.check_support_theorem_trees(config(ba.b4(), tree_alphabet=alph))
    assert report.verdict == "counterexample" and report.as_predicted
    assert report.hypothesis["alphabet-class"] == "monadic"
    assert report.witness.direction == "init-only"
    revalidate(report)


@pytest.mark.parametrize("max_size, rank", [(7, 30), (3, 3)])
def test_tree_sweep_draws_no_weights_for_symbols_too_big_to_occur(max_size, rank):
    # a rank-k symbol needs k + 1 nodes, so no swept tree holds "big": the
    # automata draw the same weights, and the report is the same, as without
    # it. Drawing weights for "big" at rank 30 would take 3^31 per automaton.
    small = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    big = T.RankedAlphabet({"alpha": 0, "sigma": 2, "big": rank})
    reports = [
        H.check_support_theorem_trees(config(ba.pentagon(), tree_alphabet=alph, max_tree_size=max_size))
        for alph in (small, big)
    ]
    assert reports[1].to_dict() == reports[0].to_dict()
    assert reports[1].hypothesis["alphabet-class"] == "branching"


def test_determinism_under_fixed_seed():
    r1 = H.check_support_theorem_words(config(ba.hexagon(), seed=7))
    r2 = H.check_support_theorem_words(config(ba.hexagon(), seed=7))
    assert r1.to_dict() == r2.to_dict()


def test_image_theorem_words():
    boole = H.check_image_theorem(ba.boole(), "words")
    assert boole.verdict == "consistent" and boole.as_predicted
    pent = H.check_image_theorem(ba.pentagon(), "words")
    assert pent.verdict == "counterexample" and pent.as_predicted
    assert pent.witness is not None
    # the two recorded image sets genuinely differ
    assert pent.witness.run_value != pent.witness.init_value
    with pytest.raises(ValueError, match="^mode must be 'words' or 'trees'$"):
        H.check_image_theorem(ba.boole(), "graphs")


def test_image_theorem_trees_matches_distributivity(finite_algebras):
    from bimonoid_automata.properties import BimonoidProperty as P
    from bimonoid_automata.properties import check

    for alg in finite_algebras:
        for mode in ("words", "trees"):
            report = H.check_image_theorem(alg, mode)
            assert report.as_predicted, (alg.name, mode, str(report))
            if mode == "words":
                expected = check(alg, P.RIGHT_DISTRIBUTIVE).holds
            else:
                expected = (
                    check(alg, P.RIGHT_DISTRIBUTIVE).holds
                    and check(alg, P.LEFT_DISTRIBUTIVE).holds
                )
            assert (report.verdict == "consistent") == expected


def test_cost_profile_word_closed_forms():
    rng = random.Random(103)
    automaton = H.random_word_automaton(rng, ba.pentagon(), ("a",), 3)
    while len(automaton.states) != 3:
        automaton = H.random_word_automaton(rng, ba.pentagon(), ("a",), 3)
    ratios = []
    for n in range(1, 9):
        profile = H.cost_profile(automaton, ("a",) * n)
        assert profile.init_counts["muls"] == 9 * n + 3
        assert profile.init_counts == profile.predicted["init"]
        assert profile.run_counts["muls"] == 3 ** (n + 1) * (n + 1)
        assert profile.run_counts["adds"] == 3 ** (n + 1) - 1
        ratios.append(profile.run_counts["muls"] / profile.init_counts["muls"])
    assert all(a < b for a, b in zip(ratios, ratios[1:]))  # exponential vs linear


def test_cost_profile_zero_length_word():
    rng = random.Random(107)
    automaton = H.random_word_automaton(rng, ba.b4(), ("a",), 3)
    profile = H.cost_profile(automaton, ())
    n_states = len(automaton.states)
    assert profile.run_counts["muls"] == n_states
    assert profile.init_counts["muls"] == n_states


def test_cost_profile_tree_linear_bound():
    rng = random.Random(109)
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    automaton = H.random_tree_automaton(rng, ba.pentagon(), alph, 3)
    spine = T.Tree("alpha")
    sizes, totals = [], []
    for _ in range(4):
        spine = T.Tree("sigma", (spine, T.Tree("alpha")))
        profile = H.cost_profile(automaton, spine)
        total = profile.init_counts["adds"] + profile.init_counts["muls"]
        assert total <= profile.predicted["init_ops_bound"]
        sizes.append(profile.input_size)
        totals.append(total)
    # growth is linear in tree size: per-node cost stays bounded
    per_node = [t / s for t, s in zip(totals, sizes)]
    assert max(per_node) <= 2 * min(per_node) + 1


def test_random_generation_respects_bounds():
    rng = random.Random(113)
    for _ in range(20):
        automaton = H.random_word_automaton(rng, ba.b4(), ("a", "b"), 3)
        assert 1 <= len(automaton.states) <= 3
    tree_automaton = H.random_tree_automaton(
        rng, ba.b4(), T.RankedAlphabet({"alpha": 0, "sigma": 2}), 3
    )
    assert 1 <= len(tree_automaton.states) <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        H.TheoremCheckConfig(algebra=ba.b4(), num_automata=0)
    # the word probe takes the alphabet's first symbol: an empty one is refused
    # here, not met as an IndexError in the sweep
    with pytest.raises(ValueError, match="word alphabet must be nonempty"):
        H.TheoremCheckConfig(algebra=ba.b4(), word_alphabet=())


def test_unexpected_counterexample_is_flagged():
    # Z2 is a field, not zero-sum-free: the probe's predicted direction fails,
    # which the harness must surface as not-as-predicted rather than hide.
    z2 = ba.FiniteTableAlgebra(
        "Z2", ("0", "1"), ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1
    )
    assert ba.validate_axioms(z2).ok
    report = H.check_support_theorem_words(config(z2))
    assert report.verdict == "counterexample"
    assert not report.as_predicted


def _disagree_once(monkeypatch, mod, target, automaton_number, run_value, init_value):
    """Patch ``mod.explore`` so that on the n-th automaton the sweep explores,
    the row of ``target`` (there the first input of its configuration)
    carries the given values."""
    real = mod.explore
    seen = []

    def explore(automaton, *args):
        seen.append(automaton)
        for rank, inp, run, init in real(automaton, *args):
            if len(seen) == automaton_number and inp == target:
                alg = automaton.algebra
                run, init = alg.parse(run_value), alg.parse(init_value)
            yield rank, inp, run, init

    monkeypatch.setattr(mod, "explore", explore)


def test_word_sweep_reports_unexpected_counterexample(monkeypatch, capsys):
    # words up to length 2 over (a, b): (), a, b, aa, ab, ba, bb, so "ba" is
    # the 6th input of each automaton and the 27th input overall on the
    # fourth; the automata before it reach 1, 3 and 1 configurations, and
    # the fourth reaches (), b, ba first
    _disagree_once(monkeypatch, W, ("b", "a"), 4, "1", "0")
    report = H.check_support_theorem_words(config(ba.boole(), max_word_len=2))
    assert report.verdict == "counterexample" and report.as_predicted is False
    assert report.witness.direction == "run-only"
    assert report.witness.input == ("b", "a")
    assert (report.witness.run_value, report.witness.init_value) == ("1", "0")
    assert report.stats == {"automata_checked": 4, "inputs_checked": 27, "configurations": 8}

    from bimonoid_automata import cli

    monkeypatch.undo()
    _disagree_once(monkeypatch, W, ("b", "a"), 4, "1", "0")
    code = cli.main(["check", "supports-words", "--algebra", "Boole", "--max-len", "2"])
    assert code == 1 and "NOT AS PREDICTED" in capsys.readouterr().out


def test_tree_sweep_reports_unexpected_counterexample(monkeypatch):
    # trees up to 3 nodes over {alpha:0, sigma:2}: alpha, sigma(alpha,alpha);
    # the third automaton sends both to one configuration, the fourth does not
    target = T.parse("sigma(alpha,alpha)")
    _disagree_once(monkeypatch, T, target, 4, "0", "1")
    report = H.check_support_theorem_trees(config(ba.pentagon(), max_tree_size=3))
    assert report.verdict == "counterexample" and report.as_predicted is False
    assert report.witness.direction == "init-only"
    assert report.witness.input == target
    assert report.stats == {"automata_checked": 4, "inputs_checked": 8, "configurations": 7}


SWEEP_TREE_ALPHABET = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})


@pytest.mark.parametrize("alg", ba.bundled_finite_algebras(), ids=lambda alg: alg.name)
def test_sweep_reports_match_the_per_input_oracle(alg):
    # one walk per automaton over distinct configurations, counts reduced
    # by the add table's cycle, reports what deciding every input reports
    cycle = _count_cycle(ba.tabulate(alg))
    words = list(W.all_words(("a", "b"), 4))
    table = T.NodeTable(SWEEP_TREE_ALPHABET, 5)
    counterexamples = []
    for seed in range(20):
        cfg = config(alg, num_automata=10, seed=seed)
        for compare in (H._supports_differ, H._values_differ):
            for theorem, mod, inputs, draw, explore in (
                ("supports-words", W, words,
                 lambda rng: H.random_word_automaton(rng, alg, ("a", "b"), 3),
                 lambda automaton: W.explore(automaton, 4, cycle)),
                ("supports-trees", T, table.trees,
                 lambda rng: H.random_tree_automaton(rng, alg, SWEEP_TREE_ALPHABET, 3),
                 lambda automaton: T.explore(automaton, table, cycle)),
            ):
                report = H._sweep(theorem, cfg, {}, draw, explore, len(inputs), compare).to_dict()
                assert 1 <= report["stats"].pop("configurations") <= report["stats"]["inputs_checked"]
                assert report == per_input_sweep(theorem, cfg, draw, mod, inputs, compare), (seed, theorem)
                if report["verdict"] == "counterexample":
                    counterexamples.append((theorem, compare.__name__))
    # B4 and B3' fail strong zero-sum-freeness, TruncFun(2) only its
    # branching-tree form: random automata find support differences there
    if alg.name in ("B4", "B3prime", "TruncFun(2)"):
        assert ("supports-trees", "_supports_differ") in counterexamples
    if alg.name in ("B4", "B3prime"):
        assert ("supports-words", "_supports_differ") in counterexamples


MONADIC = T.RankedAlphabet({"alpha": 0, "gamma": 1})
TRIVIAL = T.RankedAlphabet({"alpha": 0, "beta": 0})
# The halves a support check decides after its hypothesis fails, word form
# and tree form, on the bundled algebras that fail one: up to the first
# failing half. On the others the hypothesis holds and no half is decided.
HALVES_DECIDED = {
    "B4": (("run-to-init", "init-to-run"), ("tree-run-to-init", "tree-init-to-run")),
    "B3prime": (("run-to-init",), ("tree-run-to-init",)),
    "TruncFun(2)": ((), ("tree-run-to-init",)),
}


@pytest.mark.parametrize("alg", ba.bundled_finite_algebras(), ids=lambda alg: alg.name)
def test_check_theorem_decides_each_condition_once(monkeypatch, alg):
    # recorded where check decides a verdict it has not kept: the image
    # checks decide both laws as their hypothesis and probe from those
    # verdicts; a trivial tree alphabet decides nothing
    decided = []
    real = properties._decide
    monkeypatch.setattr(properties, "_decide", lambda tables, cond: decided.append(cond.value) or real(tables, cond))
    word_halves, tree_halves = HALVES_DECIDED.get(alg.name, ((), ()))
    for name, tree_alphabet, expected in (
        ("supports-words", None, ("strongly-zero-sum-free", *word_halves)),
        ("supports-trees", None, ("bi-strongly-zero-sum-free", *tree_halves)),
        ("supports-trees", MONADIC, ("strongly-zero-sum-free", *word_halves)),
        ("supports-trees", TRIVIAL, ()),
        ("images-words", None, ("right-distributive",)),
        ("images-trees", None, ("right-distributive", "left-distributive")),
    ):
        decided.clear()
        report = H.check_theorem(name, config(alg, tree_alphabet=tree_alphabet, num_automata=1))
        assert report.as_predicted, (name, str(report))
        assert tuple(decided) == expected, (name, tree_alphabet)


def test_check_theorem_takes_exactly_the_cli_targets(capsys):
    from bimonoid_automata import cli

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["check", "--help"])
    targets = re.search(r"{([^}]*)}", capsys.readouterr().out).group(1).split(",")
    assert targets == list(H._THEOREMS) == ["supports-words", "supports-trees", "images-words", "images-trees"]
    with pytest.raises(ValueError, match="^unknown theorem 'supports-graphs'; expected one of supports-words,"
                                         " supports-trees, images-words, images-trees$"):
        H.check_theorem("supports-graphs", config(ba.boole()))
