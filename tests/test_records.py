"""The result records keep the contract they had as dataclasses: the same
reprs, construction, defaults, equality and hashing, and frozen records
refuse assignment."""

import copy
import json
import pickle

import pytest

from bimonoid_automata import algebra as A
from bimonoid_automata import harness as H
from bimonoid_automata import properties as P
from bimonoid_automata import trees as T
from bimonoid_automata.config import TheoremCheckConfig

TREE = T.Tree("sigma", (T.Tree("alpha"), T.Tree("gamma", (T.Tree("alpha"),))))

# Each record's repr as its dataclass printed it.
REPRS = [
    (A.CostProfile("word", "a b", 2, 2, {"adds": 3, "muls": 4}, {"adds": 1, "muls": 2}, "1", "0", {"run": 5}),
     "CostProfile(kind='word', input_label='a b', n_states=2, input_size=2, run_counts={'adds': 3, 'muls': 4},"
     " init_counts={'adds': 1, 'muls': 2}, run_value='1', init_value='0', predicted={'run': 5})"),
    (A.AxiomCheck("add-assoc", False, (1, 2, 3), ("a", "b", "c")),
     "AxiomCheck(axiom='add-assoc', holds=False, witness=(1, 2, 3), witness_labels=('a', 'b', 'c'))"),
    (A.ValidationReport("B4", False, (A.AxiomCheck("mul-assoc", True),)),
     "ValidationReport(algebra='B4', ok=False, checks=(AxiomCheck(axiom='mul-assoc', holds=True, witness=None,"
     " witness_labels=None),))"),
    (H.CheckWitness("automaton", ("a",), "1", "0", "run-only", ("x", "y")),
     "CheckWitness(automaton='automaton', input=('a',), run_value='1', init_value='0', direction='run-only',"
     " params=('x', 'y'))"),
    (H.CheckReport("supports-words", "B4", "counterexample", True, {"strongly-zero-sum-free": False}, None,
                   {"automata_checked": 1}, 42),
     "CheckReport(theorem='supports-words', algebra='B4', verdict='counterexample', as_predicted=True,"
     " hypothesis={'strongly-zero-sum-free': False}, witness=None, stats={'automata_checked': 1}, seed=42)"),
    (H.CheckReport("images-words", "B4", "consistent", True, {}),
     "CheckReport(theorem='images-words', algebra='B4', verdict='consistent', as_predicted=True, hypothesis={},"
     " witness=None, stats={}, seed=None)"),
    (P.PropertyVerdict(P.BimonoidProperty.POSITIVE, False, (1, 2), ("a", "b")),
     "PropertyVerdict(property=<BimonoidProperty.POSITIVE: 'positive'>, holds=False, witness=(1, 2),"
     " witness_labels=('a', 'b'))"),
    (P.PropertyReport("B4", {}, {}), "PropertyReport(algebra='B4', verdicts={}, halves={})"),
    (T.AlphabetClass(False, True, True, False),
     "AlphabetClass(trivial=False, monadic=True, string_ranked=True, branching=False)"),
    (TREE,
     "Tree(symbol='sigma', children=(Tree(symbol='alpha', children=()), Tree(symbol='gamma',"
     " children=(Tree(symbol='alpha', children=()),))))"),
    (A.Polynomial((1, 0, 2)), "Polynomial(coeffs=(1, 0, 2))"),
    (TheoremCheckConfig(algebra=None, word_alphabet=("x",), max_word_len=2, seed=7),
     "TheoremCheckConfig(algebra=None, word_alphabet=('x',), tree_alphabet=RankedAlphabet({alpha:0, sigma:2}),"
     " max_word_len=2, max_tree_size=7, num_automata=100, max_states=3, seed=7)"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("make", [lambda: TREE, lambda: A.Polynomial((1, 0, 2))], ids=["Tree", "Polynomial"])
def test_values_are_frozen_hashable_and_not_tuples(make):
    value, twin = make(), copy.copy(make())
    assert value == twin and hash(value) == hash(twin)
    assert pickle.loads(pickle.dumps(value)) == value
    # PolyMonomeAlgebra.parse branches on tuple
    assert not isinstance(value, tuple)
    field = "symbol" if isinstance(value, T.Tree) else "coeffs"
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1


def test_polynomial_equality_and_hashing():
    assert A.Polynomial.of([1, 2, 0]) == A.Polynomial((1, 2))
    assert A.Polynomial((1,)) != A.Polynomial((1, 1))
    assert A.Polynomial((1, 2)) != (1, 2)
    assert len({A.Polynomial((1, 2)), A.Polynomial.of([1, 2]), A.Polynomial(())}) == 2


def test_theorem_check_config_defaults_and_bounds():
    config = TheoremCheckConfig(algebra=None)
    assert (config.word_alphabet, config.max_word_len, config.max_tree_size) == (("a", "b"), 4, 7)
    assert (config.num_automata, config.max_states, config.seed) == (100, 3, 42)
    assert config.tree_alphabet == T.RankedAlphabet({"alpha": 0, "sigma": 2})
    # the class attributes are the defaults the CLI reads
    assert TheoremCheckConfig.max_word_len == 4 and TheoremCheckConfig.seed == 42
    assert config == TheoremCheckConfig(None, ("a", "b"), T.RankedAlphabet({"alpha": 0, "sigma": 2}))
    assert config != TheoremCheckConfig(algebra=None, seed=1)
    for bound in ("max_word_len", "max_tree_size", "num_automata", "max_states"):
        with pytest.raises(ValueError, match=">= 1"):
            TheoremCheckConfig(algebra=None, **{bound: 0})


def test_check_reports_do_not_share_a_stats_dict():
    first = H.CheckReport("t", "B4", "consistent", True, {})
    second = H.CheckReport(theorem="t", algebra="B4", verdict="consistent", as_predicted=True, hypothesis={})
    assert first.stats == second.stats == {} and first.stats is not second.stats
    assert H.CheckReport("t", "B4", "consistent", True, {}, stats={"n": 1}).stats == {"n": 1}


def test_cost_profile_json_is_unchanged():
    profile = REPRS[0][0]
    assert json.dumps(profile.to_dict()) == (
        '{"kind": "word", "input": "a b", "states": 2, "size": 2, "run": {"adds": 3, "muls": 4},'
        ' "init": {"adds": 1, "muls": 2}, "run_value": "1", "init_value": "0", "predicted": {"run": 5}}'
    )
