"""Counted run semantics and the ``values`` streams against the literal run
enumerator (``prune=False``) and ``initial_semantics``, and the operation
counts of the default-config support sweeps that use them."""

import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import ADJOINED_ZERO, INFINITY, CountingAlgebra, Polynomial

FINITE = ba.bundled_finite_algebras()
WORDS = list(W.all_words(("a", "b"), 4))
TREE_ALPHABET = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2})


def _names(alg):
    return alg.name


def assert_word_rows(automaton, words):
    """``values`` yields every word in order, with the literal run value and
    the exact init value, and pruned ``run_semantics`` agrees."""
    alg = automaton.algebra
    rows = list(W.values(automaton, words))
    assert [row[0] for row in rows] == list(words)
    for word, run, init in rows:
        literal = W.run_semantics(automaton, word)
        assert alg.equal(run, literal), (alg.name, word)
        assert alg.equal(W.run_semantics(automaton, word, prune=True), literal), (alg.name, word)
        assert init == W.initial_semantics(automaton, word), (alg.name, word)
    return rows


def assert_tree_rows(automaton, trees):
    alg = automaton.algebra
    rows = list(T.values(automaton, trees))
    assert [row[0] for row in rows] == list(trees)
    for t, run, init in rows:
        literal = T.run_semantics(automaton, t)
        assert alg.equal(run, literal), (alg.name, str(t))
        assert alg.equal(T.run_semantics(automaton, t, prune=True), literal), (alg.name, str(t))
        assert init == T.initial_semantics(automaton, t), (alg.name, str(t))


@pytest.mark.parametrize("alg", FINITE, ids=_names)
def test_word_values_match_enumerator(alg):
    rng = random.Random(11)
    for _ in range(4):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        rows = assert_word_rows(automaton, WORDS)
        # not prefix-closed, longest first, with repeats: each word resumes
        # from its longest prefix seen so far, or from the empty word
        shuffled = WORDS[::-1] + WORDS[5:9]
        assert list(W.values(automaton, shuffled)) == rows[::-1] + rows[5:9]


def _word_automaton(rng, alg, pool, n_states, alphabet=("a", "b")):
    def draw():
        return alg.zero if rng.random() < 0.3 else rng.choice(pool)

    states = tuple(f"q{i}" for i in range(n_states))
    return W.WordAutomaton(
        alg, alphabet, states,
        [draw() for _ in states], [draw() for _ in states],
        {a: [[draw() for _ in states] for _ in states] for a in alphabet},
    )


@pytest.mark.parametrize(
    "alg, pool, max_len",
    [
        (ba.nat_plus_min(), [0, 1, 2, 5, INFINITY], 4),
        (ba.nat_plus_plus(), [ADJOINED_ZERO, 0, 1, 2], 4),
        (ba.poly_monome(), [Polynomial.of(c) for c in ((1,), (0, 1), (1, 1), (2,), (0, 0, 1))], 3),
    ],
    ids=lambda x: x.name if isinstance(x, ba.WeightAlgebra) else "",
)
def test_word_values_match_enumerator_on_infinite_carriers(alg, pool, max_len):
    rng = random.Random(13)
    words = list(W.all_words(("a", "b"), max_len))
    for _ in range(4):
        assert_word_rows(_word_automaton(rng, alg, pool, 3), words)


def _tree_inputs():
    shared = T.parse("gamma(alpha)")
    return [
        *T.enumerate_trees(TREE_ALPHABET, 4),
        T.Tree("sigma", (shared, shared)),  # one subtree object twice
        T.parse("sigma(gamma(beta),gamma(beta))"),  # equal, distinct subtrees
        T.parse("gamma(sigma(alpha,alpha))"),
        T.parse("alpha"),  # an input seen before
    ]


@pytest.mark.parametrize("alg", FINITE, ids=_names)
def test_tree_values_match_enumerator(alg):
    rng = random.Random(17)
    trees = _tree_inputs()
    for _ in range(3):
        automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 3)
        assert_tree_rows(automaton, trees)


def test_values_check_their_inputs():
    alg = ba.b4()
    rng = random.Random(19)
    words = W.values(H.random_word_automaton(rng, alg, ("a", "b"), 2), [("a",), ("a", "c")])
    assert next(words)[0] == ("a",)
    with pytest.raises(ValueError, match="unknown symbol 'c'"):
        next(words)
    automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 2)
    with pytest.raises(ValueError, match="rank 2 but 1 children"):
        list(T.values(automaton, [T.parse("sigma(alpha)")]))
    with pytest.raises(ValueError, match="unknown symbol 'delta'"):
        T.run_semantics(automaton, T.parse("gamma(delta)"), prune=True)


def test_pruned_run_semantics_of_a_long_word():
    # 10^5 symbols and 2^(10^5 + 1) runs; Boole is distributive, so the run
    # value equals the init value. A depth-first run sweep cannot go this deep.
    alg = ba.boole()
    automaton = W.WordAutomaton(
        alg, ("a", "b"), ("p", "q"), (1, 1), (0, 1),
        {"a": [[1, 1], [1, 1]], "b": [[1, 0], [0, 1]]},
    )
    word = tuple(random.Random(23).choice("ab") for _ in range(10**5))
    assert W.run_semantics(automaton, word, prune=True) == 1
    assert W.initial_semantics(automaton, word) == 1


def test_count_fold_uses_double_and_add():
    # 2^12 runs of weight 1 over NatPlusPlus: the fold of 4096 summands
    # takes 12 additions, not 4095
    alg = CountingAlgebra(ba.nat_plus_plus())  # one is 0, mul is + on N
    word = ("a",) * 11
    automaton = W.WordAutomaton(alg, ("a",), ("p", "q"), (1, 1), (0, 0), {"a": [[0, 0], [0, 0]]})
    assert W.run_semantics(automaton, word, prune=True) == 2**12
    adds, _ = alg.read_counts()
    assert adds == 12


# Operation counts of the default-config sweeps (100 automata, words up to
# length 4, trees up to 7 nodes, seed 42), tabulation included. Evaluating
# each input from scratch with depth-first pruned runs cost, in adds/muls:
# PentagonN5 words 32,550/72,381 and trees 7,060/27,847; Hexagon words
# 27,942/65,180 and trees 8,297/28,766.
SWEEP_COUNTS = {
    ("PentagonN5", "words"): (12437, 23570),
    ("PentagonN5", "trees"): (3526, 10621),
    ("Hexagon", "words"): (10661, 21427),
    ("Hexagon", "trees"): (4088, 11396),
}


@pytest.mark.parametrize("key", SWEEP_COUNTS, ids="/".join)
def test_default_sweep_operation_counts(key):
    name, structure = key
    counting = CountingAlgebra(ba.builtin(name))
    config = H.TheoremCheckConfig(algebra=counting)
    if structure == "words":
        report = H.check_support_theorem_words(config)
        assert report.stats["inputs_checked"] == 3100
    else:
        report = H.check_support_theorem_trees(config)
        assert report.stats["inputs_checked"] == 900
    assert report.verdict == "consistent" and report.as_predicted
    assert counting.read_counts() == SWEEP_COUNTS[key]
