import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import bridge as BR
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import Semantics


def test_word_to_tree_examples():
    assert BR.word_to_tree(()) == T.Tree("e")
    assert BR.word_to_tree(("a", "b")) == T.parse("b(a(e))")
    assert str(BR.word_to_tree(("a", "b", "c"))) == "c(b(a(e)))"


def test_round_trip_up_to_length_five():
    for w in W.all_words(("a", "b"), 5):
        assert BR.tree_to_word(BR.word_to_tree(w), "e") == w


def test_tree_to_word_rejects_non_spines():
    with pytest.raises(ValueError):
        BR.tree_to_word(T.parse("sigma(e,e)"))
    with pytest.raises(ValueError):
        BR.tree_to_word(T.parse("a(f)"), "e")


def test_string_alphabet_collision():
    with pytest.raises(ValueError):
        BR.string_alphabet(("a", "e"), "e")


def test_probe_transfer_values():
    alg = ba.pentagon()
    p, r = alg.parse("p"), alg.parse("r")
    automaton = W.probe_automaton(alg, p, r, alg.one)
    converted = BR.wsa_to_wta(automaton)
    gamma_tree = T.parse("gamma(e)")
    assert T.run_semantics(converted, gamma_tree) == alg.add(alg.mul(p, alg.one), alg.mul(r, alg.one))
    # empty word: sum of initial*final
    eps_expected = W.initial_semantics(automaton, ())
    assert T.initial_semantics(converted, T.Tree("e")) == eps_expected


def test_semantics_commute_with_encoding(finite_algebras):
    rng = random.Random(79)
    for alg in finite_algebras:
        for _ in range(6):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            converted = BR.wsa_to_wta(automaton)
            for w in W.all_words(("a", "b"), 4):
                t = BR.word_to_tree(w)
                assert (
                    W.run_semantics(automaton, w, prune=True) == T.run_semantics(converted, t, prune=True)
                ), (alg.name, w)
                assert W.initial_semantics(automaton, w) == T.initial_semantics(converted, t), (alg.name, w)


def test_support_transfer_on_pentagon_and_hexagon():
    rng = random.Random(83)
    for alg in (ba.pentagon(), ba.hexagon()):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        converted = BR.wsa_to_wta(automaton)
        for w in W.all_words(("a", "b"), 4):
            t = BR.word_to_tree(w)
            for sem in (Semantics.RUN, Semantics.INIT):
                assert W.in_support(automaton, w, sem) == T.in_support(converted, t, sem)


def test_conversion_round_trip_is_structural_identity():
    rng = random.Random(89)
    for alg in (ba.b4(), ba.trunc_fun(2)):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        back = BR.string_wta_to_wsa(BR.wsa_to_wta(automaton))
        assert back.states == automaton.states
        assert back.alphabet == automaton.alphabet
        assert back.initial == automaton.initial
        assert back.final == automaton.final
        assert back.transitions == automaton.transitions


def test_reverse_round_trip_preserves_stored_transitions():
    rng = random.Random(91)
    alph = BR.string_alphabet(("a", "b"))
    for alg in (ba.pentagon(), ba.b4()):
        tree_automaton = H.random_tree_automaton(rng, alg, alph, 3)
        rebuilt = BR.wsa_to_wta(BR.string_wta_to_wsa(tree_automaton))
        assert rebuilt.states == tree_automaton.states
        assert rebuilt.alphabet == tree_automaton.alphabet
        assert rebuilt.root_weights == tree_automaton.root_weights
        assert list(rebuilt.stored_transitions()) == list(tree_automaton.stored_transitions())


def test_wta_to_wsa_needs_string_ranked_alphabet():
    rng = random.Random(97)
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    automaton = H.random_tree_automaton(rng, ba.boole(), alph, 2)
    with pytest.raises(ValueError):
        BR.string_wta_to_wsa(automaton)


def test_random_string_wta_transfer_on_b4():
    rng = random.Random(101)
    alph = BR.string_alphabet(("a", "b"))
    for _ in range(5):
        tree_automaton = H.random_tree_automaton(rng, ba.b4(), alph, 3)
        word_automaton = BR.string_wta_to_wsa(tree_automaton)
        alg = ba.b4()
        for w in W.all_words(("a", "b"), 4):
            t = BR.word_to_tree(w)
            assert T.initial_semantics(tree_automaton, t) == W.initial_semantics(word_automaton, w)
            assert (
                T.run_semantics(tree_automaton, t, prune=True) == W.run_semantics(word_automaton, w, prune=True)
            )
