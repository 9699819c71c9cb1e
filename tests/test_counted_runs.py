"""Counted run semantics and the ``explore`` walks against the literal run
enumerator (``prune=False``) and ``initial_semantics``, and the operation
counts of the default-config support sweeps that use them."""

import itertools
import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import ADJOINED_ZERO, INFINITY, CountingAlgebra, Polynomial, _count_cycle
from conftest import per_input_images

FINITE = ba.bundled_finite_algebras()
WORDS = list(W.all_words(("a", "b"), 4))
TREE_ALPHABET = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2})


def _names(alg):
    return alg.name


def assert_word_rows(automaton, max_len, cycle=None):
    """``explore`` yields, by rank, the first word of each configuration with
    the literal run value and the exact init value, pruned ``run_semantics``
    agrees, and each word's values are those of a row at or before it."""
    alg = automaton.algebra
    words = list(W.all_words(automaton.alphabet, max_len))
    rows = list(W.explore(automaton, max_len, cycle))
    assert [row[0] for row in rows] == sorted({row[0] for row in rows}) and rows[0][0] == 0
    for rank, word, run, init in rows:
        assert word == words[rank]
        literal = W.run_semantics(automaton, word)
        assert alg.equal(run, literal), (alg.name, word)
        assert alg.equal(W.run_semantics(automaton, word, prune=True), literal), (alg.name, word)
        assert init == W.initial_semantics(automaton, word), (alg.name, word)
    for rank, word in enumerate(words):
        pair = (W.run_semantics(automaton, word, prune=True), W.initial_semantics(automaton, word))
        assert pair in {(run, init) for r, _, run, init in rows if r <= rank}, (alg.name, word)
    return rows


def assert_tree_rows(automaton, trees, cycle=None):
    alg = automaton.algebra
    rows = list(T.explore(automaton, trees, cycle))
    assert [row[0] for row in rows] == sorted({row[0] for row in rows}) and rows[0][0] == 0
    for index, t, run, init in rows:
        assert t is trees[index]
        literal = T.run_semantics(automaton, t)
        assert alg.equal(run, literal), (alg.name, str(t))
        assert alg.equal(T.run_semantics(automaton, t, prune=True), literal), (alg.name, str(t))
        assert init == T.initial_semantics(automaton, t), (alg.name, str(t))
    for index, t in enumerate(trees):
        pair = (T.run_semantics(automaton, t, prune=True), T.initial_semantics(automaton, t))
        assert pair in {(run, init) for i, _, run, init in rows if i <= index}, (alg.name, str(t))
    return rows


@pytest.mark.parametrize("alg", FINITE, ids=_names)
def test_word_values_match_enumerator(alg):
    rng = random.Random(11)
    cycle = _count_cycle(ba.tabulate(alg))
    for _ in range(4):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        rows = assert_word_rows(automaton, 4)
        # reduced counts merge configurations, so their first words are a
        # subset; a shorter walk is the same walk cut at its length
        assert set(assert_word_rows(automaton, 4, cycle)) <= set(rows)
        assert list(W.explore(automaton, 2)) == [row for row in rows if len(row[1]) <= 2]


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
    for _ in range(4):
        assert_word_rows(_word_automaton(rng, alg, pool, 3), max_len)


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
    cycle = _count_cycle(ba.tabulate(alg))
    for _ in range(3):
        automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 3)
        rows = assert_tree_rows(automaton, trees)
        assert set(assert_tree_rows(automaton, trees, cycle)) <= set(rows)


def _tree_automaton(rng, alg, pool, n_states):
    states = tuple(f"q{i}" for i in range(n_states))
    quads = [
        (sw, sym, q, rng.choice(pool))
        for sym in TREE_ALPHABET.symbols
        for sw in itertools.product(states, repeat=TREE_ALPHABET.rank(sym))
        for q in states
        if rng.random() < 0.6
    ]
    return T.TreeAutomaton(alg, TREE_ALPHABET, states, quads, [rng.choice(pool) for _ in states])


@pytest.mark.parametrize("alg", [*FINITE, ba.nat_plus_min()], ids=_names)
def test_images_match_the_per_input_path(alg):
    rng = random.Random(29)
    pool = list(alg.elements()) if alg.is_finite else [0, 1, 2, 5, INFINITY]
    words = list(W.all_words(("a", "b"), 4))
    trees = list(T.enumerate_trees(TREE_ALPHABET, 5))
    for _ in range(5):
        automaton = _word_automaton(rng, alg, pool, rng.randint(1, 3))
        assert W.images_up_to(automaton, 4) == per_input_images(W, automaton, words)
        automaton = _tree_automaton(rng, alg, pool, rng.randint(1, 3))
        assert T.images_up_to(automaton, 5) == per_input_images(T, automaton, trees)


def _cyclic(name, n, reduce):
    """The table algebra on 0..n-1 whose add and mul are those of the
    naturals (or integers) taken through ``reduce``."""
    table = lambda op: [[reduce(op(i, j)) for j in range(n)] for i in range(n)]
    return ba.FiniteTableAlgebra(name, tuple(map(str, range(n))), table(int.__add__), table(int.__mul__), 0, 1)


@pytest.mark.parametrize("alg, cycle", [
    (_cyclic("Z3", 3, lambda x: x % 3), (1, 3)),
    (_cyclic("N/(2=4)", 4, lambda x: x if x < 4 else 2 + (x - 2) % 2), (2, 2)),
    (_cyclic("N/(1=4)", 4, lambda x: x if x < 4 else 1 + (x - 1) % 3), (1, 3)),
], ids=lambda x: x.name if isinstance(x, ba.WeightAlgebra) else "")
def test_counts_reduce_by_index_and_period(alg, cycle):
    # no bundled algebra has a period above 1; here counts matter modulo
    # p past the index t, and walks keyed on reduced counts stay exact
    assert ba.validate_axioms(alg).ok
    assert _count_cycle(ba.tabulate(alg)) == cycle
    rng = random.Random(31)
    pool = list(alg.elements())[1:]
    trees = _tree_inputs()
    for _ in range(4):
        automaton = _word_automaton(rng, alg, pool, 3)
        assert set(assert_word_rows(automaton, 4, cycle)) <= set(assert_word_rows(automaton, 4))
        automaton = _tree_automaton(rng, alg, pool, 3)
        assert set(assert_tree_rows(automaton, trees, cycle)) <= set(assert_tree_rows(automaton, trees))


def test_values_check_their_inputs():
    alg = ba.b4()
    rng = random.Random(19)
    automaton = H.random_word_automaton(rng, alg, ("a", "b"), 2)
    with pytest.raises(ValueError, match="unknown symbol 'c'"):
        W.run_semantics(automaton, ("a", "c"), prune=True)
    automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 2)
    rows = T.explore(automaton, [T.parse("alpha"), T.parse("sigma(alpha)")])
    assert next(rows)[:2] == (0, T.parse("alpha"))
    with pytest.raises(ValueError, match="rank 2 but 1 children"):
        next(rows)
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
# length 4, trees up to 7 nodes, seed 42), tabulation included; each
# distinct configuration is stepped and folded once. Evaluating each input
# from scratch with depth-first pruned runs cost, in adds/muls: PentagonN5
# words 32,550/72,381 and trees 7,060/27,847; Hexagon words 27,942/65,180
# and trees 8,297/28,766. Evaluating every input once, each prefix or
# subtree memoised, cost PentagonN5 words 12,437/23,570 and trees
# 3,526/10,621; Hexagon words 10,661/21,427 and trees 4,088/11,396.
SWEEP_COUNTS = {
    ("PentagonN5", "words"): (2536, 4845),
    ("PentagonN5", "trees"): (1638, 5497),
    ("Hexagon", "words"): (2095, 4235),
    ("Hexagon", "trees"): (2138, 6520),
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
