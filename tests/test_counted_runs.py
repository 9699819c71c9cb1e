"""Counted run semantics and the ``explore`` walks against the literal run
enumerator (``prune=False`` and conftest's ``literal_word_runs``) and the
plain init recursion (conftest's ``literal_word_init`` and
``plain_tree_init``), and the operation counts of the default-config
support sweeps that use them."""

import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import INFINITY, CountingAlgebra, _count_cycle
from conftest import (
    count_init_steps,
    infinite_pools,
    literal_word_init,
    literal_word_runs,
    per_input_images,
    plain_tree_init,
    plain_tree_vectors,
    pool_tree_automaton,
    pool_word_automaton,
    recursive_trees,
    small_strong_bimonoids,
)

FINITE = ba.bundled_finite_algebras()
WORDS = list(W.all_words(("a", "b"), 4))
TREE_ALPHABET = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2})


def _names(alg):
    return alg.name


def assert_word_rows(automaton, max_len, cycle=None):
    """``explore`` yields, by rank, the first word of each configuration with
    the literal run value and the plain init value, pruned and unpruned
    ``run_semantics`` and ``initial_semantics`` agree, and each word's values
    are those of a row at or before it."""
    alg = automaton.algebra
    words = list(W.all_words(automaton.alphabet, max_len))
    rows = list(W.explore(automaton, max_len, cycle))
    assert [row[0] for row in rows] == sorted({row[0] for row in rows}) and rows[0][0] == 0
    plain = {word: (literal_word_runs(automaton, word), literal_word_init(automaton, word)) for word in words}
    for rank, word, run, init in rows:
        assert word == words[rank]
        literal, plain_init = plain[word]
        assert run == literal, (alg.name, word)
        assert W.run_semantics(automaton, word) == literal, (alg.name, word)
        assert W.run_semantics(automaton, word, prune=True) == literal, (alg.name, word)
        assert init == plain_init == W.initial_semantics(automaton, word), (alg.name, word)
    for rank, word in enumerate(words):
        pair = (W.run_semantics(automaton, word, prune=True), plain[word][1])
        assert pair in {(run, init) for r, _, run, init in rows if r <= rank}, (alg.name, word)
    return rows


def assert_tree_rows(automaton, table, cycle=None):
    """``explore`` yields, by index, the first tree of ``table`` in each
    configuration with the literal run value and the plain init value, and
    each tree's values are those of a row at or before it."""
    alg, trees = automaton.algebra, table.trees
    rows = list(T.explore(automaton, table, cycle))
    assert [row[0] for row in rows] == sorted({row[0] for row in rows}) and rows[0][0] == 0
    for index, t, run, init in rows:
        assert t is trees[index]
        literal = T.run_semantics(automaton, t)
        assert run == literal, (alg.name, str(t))
        assert T.run_semantics(automaton, t, prune=True) == literal, (alg.name, str(t))
        assert init == plain_tree_init(automaton, t) == T.initial_semantics(automaton, t), (alg.name, str(t))
    for index, t in enumerate(trees):
        pair = (T.run_semantics(automaton, t, prune=True), plain_tree_init(automaton, t))
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


@pytest.mark.parametrize(
    "alg, pool, max_len",
    [(alg, pool, 3 if alg.name == "PolyMonome" else 4) for alg, pool in infinite_pools()],
    ids=lambda x: x.name if isinstance(x, ba.WeightAlgebra) else "",
)
def test_word_values_match_enumerator_on_infinite_carriers(alg, pool, max_len):
    rng = random.Random(13)
    for _ in range(4):
        assert_word_rows(pool_word_automaton(rng, alg, pool, 3), max_len)


_SHARED = T.parse("gamma(alpha)")
# trees that repeat a subtree: the per-tree evaluators take each distinct
# subtree once
REPEATED_SUBTREES = (
    T.Tree("sigma", (_SHARED, _SHARED)),  # one subtree object twice
    T.parse("sigma(gamma(beta),gamma(beta))"),  # equal, distinct subtrees
    T.parse("gamma(sigma(alpha,alpha))"),
)


def assert_shared_subtree_values(automaton):
    for t in REPEATED_SUBTREES:
        literal = T.run_semantics(automaton, t)
        assert T.run_semantics(automaton, t, prune=True) == literal, str(t)
        assert T.state_vector(automaton, t) == plain_tree_vectors(automaton, t)[()][2], str(t)
        assert T.initial_semantics(automaton, t) == plain_tree_init(automaton, t), str(t)


@pytest.mark.parametrize("alg", FINITE, ids=_names)
def test_tree_values_match_enumerator(alg):
    rng = random.Random(17)
    table = T.NodeTable(TREE_ALPHABET, 4)
    cycle = _count_cycle(ba.tabulate(alg))
    for _ in range(3):
        automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 3)
        rows = assert_tree_rows(automaton, table)
        assert set(assert_tree_rows(automaton, table, cycle)) <= set(rows)
        assert_shared_subtree_values(automaton)


ATLAS = small_strong_bimonoids(2) + small_strong_bimonoids(3)


@pytest.mark.parametrize("alg", ATLAS, ids=_names)
def test_walks_match_the_literal_semantics_on_the_atlas(alg):
    # the atlas has non-commutative and cancelling carriers that no bundled
    # algebra has
    rng = random.Random(43)
    table = T.NodeTable(TREE_ALPHABET, 5)
    for _ in range(3):
        assert_word_rows(H.random_word_automaton(rng, alg, ("a", "b"), 3), 4)
        assert_tree_rows(H.random_tree_automaton(rng, alg, TREE_ALPHABET, 3), table)


SWEEP_ALPHABET = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})


@pytest.mark.parametrize("alg", FINITE, ids=_names)
def test_automata_sharing_a_node_table_get_their_own_rows(alg):
    # the two walks take turns on one table, and each walks it as a table
    # of its own would be walked
    rng = random.Random(37)
    cycle = _count_cycle(ba.tabulate(alg))
    table = T.NodeTable(SWEEP_ALPHABET, 7)
    automata = [H.random_tree_automaton(rng, alg, SWEEP_ALPHABET, 3) for _ in range(2)]
    walks = [T.explore(automaton, table, cycle) for automaton in automata]
    shared: list = [[], []]
    while walks:
        for walk, rows in list(zip(walks, shared)):
            row = next(walk, None)
            if row is None:
                walks.remove(walk)
            else:
                rows.append(row)
    for automaton, rows in zip(automata, shared):
        assert rows == list(T.explore(automaton, T.NodeTable(SWEEP_ALPHABET, 7), cycle))
    # every subtree of a listed tree is listed before it: one node per tree
    assert len(table.nodes) == len(table.trees) == len(recursive_trees(SWEEP_ALPHABET, 7))


def test_a_node_table_checks_each_automatons_alphabet():
    # a table over another alphabet, here one more nullary symbol, is
    # refused before any row, on every walk; so is one over fewer symbols
    automaton = H.random_tree_automaton(random.Random(41), ba.b4(), TREE_ALPHABET, 2)
    for ranks in ({**TREE_ALPHABET.to_dict(), "delta": 0}, {"alpha": 0, "sigma": 2}):
        table = T.NodeTable(T.RankedAlphabet(ranks), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^the node table is over RankedAlphabet\(\{alpha:0, "):
                next(T.explore(automaton, table))


@pytest.mark.parametrize("alg", [*FINITE, ba.nat_plus_min()], ids=_names)
def test_images_match_the_per_input_path(alg):
    rng = random.Random(29)
    pool = list(alg.elements()) if alg.is_finite else [0, 1, 2, 5, INFINITY]
    words = list(W.all_words(("a", "b"), 4))
    trees = list(T.enumerate_trees(TREE_ALPHABET, 5))
    for _ in range(5):
        automaton = pool_word_automaton(rng, alg, pool, rng.randint(1, 3))
        assert W.images_up_to(automaton, 4) == per_input_images(W, automaton, words)
        automaton = pool_tree_automaton(rng, alg, pool, rng.randint(1, 3), TREE_ALPHABET)
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
    table = T.NodeTable(TREE_ALPHABET, 4)
    for _ in range(4):
        automaton = pool_word_automaton(rng, alg, pool, 3)
        assert set(assert_word_rows(automaton, 4, cycle)) <= set(assert_word_rows(automaton, 4))
        automaton = pool_tree_automaton(rng, alg, pool, 3, TREE_ALPHABET)
        assert set(assert_tree_rows(automaton, table, cycle)) <= set(assert_tree_rows(automaton, table))
        assert_shared_subtree_values(automaton)


def test_values_check_their_inputs():
    alg = ba.b4()
    rng = random.Random(19)
    automaton = H.random_word_automaton(rng, alg, ("a", "b"), 2)
    with pytest.raises(ValueError, match="unknown symbol 'c'"):
        W.run_semantics(automaton, ("a", "c"), prune=True)
    # the init table's steps on a hold every vector a reaches, so c meets
    # the table warm and is refused on its miss
    with pytest.raises(ValueError, match="unknown symbol 'c'"):
        W.initial_semantics(automaton, ("a",) * 50 + ("c",))
    automaton = H.random_tree_automaton(rng, alg, TREE_ALPHABET, 2)
    with pytest.raises(ValueError, match="rank 2 but 1 children"):
        T.run_semantics(automaton, T.parse("sigma(alpha)"), prune=True)
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
    rng = random.Random(23)
    word = tuple(rng.choice("ab") for _ in range(10**5))
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


@pytest.mark.parametrize("alg", [ba.nat_plus_plus_table(3), ba.trunc_fun(2)], ids=lambda alg: alg.name)
def test_word_walk_takes_one_init_step_per_configuration_and_symbol(alg, monkeypatch):
    # the walk's cost model: each configuration it expands, a row whose word
    # is shorter than max_len, takes one init step per symbol, so the steps
    # are as many whether or not configurations share a vector
    calls = count_init_steps(monkeypatch)
    cycle = _count_cycle(ba.tabulate(alg))
    rng = random.Random(61)
    for alphabet, max_len in ((("a", "b"), 8), (("a", "b", "c"), 5)):
        for _ in range(16):
            automaton = H.random_word_automaton(rng, alg, alphabet, 3)
            for key in (cycle, None):
                calls.clear()
                rows = list(W.explore(automaton, max_len, key))
                assert len(calls) == len(alphabet) * sum(len(word) < max_len for _, word, _, _ in rows)
