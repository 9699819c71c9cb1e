import copy
import gc
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import algebra, bridge
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata.algebra import Semantics

from conftest import (
    dense_state_vector,
    infinite_pools,
    plain_tree_init,
    plain_tree_vectors,
    pool_tree_automaton,
    random_run,
    random_tree,
    recursive_trees,
    small_strong_bimonoids,
)

ALPHABET = T.RankedAlphabet({"sigma": 2, "delta": 2, "alpha": 0, "beta": 0})
EXAMPLE = T.parse("sigma(delta(alpha,beta),alpha)", ALPHABET)


def test_alphabet_classification_table():
    rows = [
        ({"alpha": 0, "beta": 0}, (True, True, False, False)),
        ({"alpha": 0, "gamma": 1, "delta": 1}, (False, True, True, False)),
        ({"alpha": 0, "beta": 0, "gamma": 1, "delta": 1}, (False, True, False, False)),
        ({"alpha": 0, "sigma": 2}, (False, False, False, True)),
    ]
    for ranks, (trivial, monadic, string_ranked, branching) in rows:
        cls = T.classify_alphabet(T.RankedAlphabet(ranks))
        assert (cls.trivial, cls.monadic, cls.string_ranked, cls.branching) == (
            trivial,
            monadic,
            string_ranked,
            branching,
        )


@given(st.dictionaries(st.sampled_from("abcdefg"), st.integers(0, 3), min_size=1))
def test_alphabet_class_invariants(ranks):
    if all(k != 0 for k in ranks.values()):
        ranks["z"] = 0
    cls = T.classify_alphabet(T.RankedAlphabet(ranks))
    assert cls.branching == (not cls.monadic)
    assert not cls.trivial or cls.monadic
    if cls.string_ranked:
        assert cls.monadic and not cls.trivial


def test_alphabet_requires_nullary_symbol():
    with pytest.raises(ValueError):
        T.RankedAlphabet({"gamma": 1})


@pytest.mark.parametrize("symbol", ["", 0, None, ("a",)])
def test_alphabet_symbols_are_nonempty_strings(symbol):
    with pytest.raises(ValueError, match="nonempty string"):
        T.RankedAlphabet({"alpha": 0, symbol: 1})


def test_position_orders_match_worked_example():
    assert T.positions(EXAMPLE) == [(), (1,), (1, 1), (1, 2), (2,)]
    assert T.postorder(EXAMPLE) == [(1, 1), (1, 2), (1,), (2,), ()]


def test_tree_utilities():
    assert T.subtree_at(EXAMPLE, (1,)) == T.parse("delta(alpha,beta)", ALPHABET)
    assert T.label_at(EXAMPLE, (1, 2)) == "beta"
    assert T.leaves(EXAMPLE) == [(1, 1), (1, 2), (2,)]
    assert T.size(EXAMPLE) == 5
    with pytest.raises(ValueError):
        T.subtree_at(EXAMPLE, (3,))


def spine(depth, bottom=None):
    """gamma^depth(bottom), built bottom up; the bottom is a new alpha leaf
    unless given."""
    t = T.Tree("alpha") if bottom is None else bottom
    for _ in range(depth):
        t = T.Tree("gamma", (t,))
    return t


def doubled(levels, leaf="alpha"):
    """A leaf under ``levels`` sigma nodes, each with one subtree twice:
    2^(levels + 1) - 1 nodes, levels + 1 distinct subtrees."""
    t = T.Tree(leaf)
    for _ in range(levels):
        t = T.Tree("sigma", (t, t))
    return t


def test_repr_is_the_dataclass_repr():
    for t in T.enumerate_trees(T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2, "tau": 3}), 5):
        assert repr(t) == f"Tree(symbol={t.symbol!r}, children={t.children!r})"
        assert eval(repr(t), {"Tree": T.Tree}) == t


def test_deep_spines_repr_positions_and_postorder():
    # these walk explicit stacks; the positions of a d-deep spine hold about
    # d^2/2 integers, so those two are checked at 3,000 deep (past the
    # recursion limit) rather than at 10^4 (about 400 MB)
    leaf = "Tree(symbol='alpha', children=())"
    assert repr(spine(10**4)) == "Tree(symbol='gamma', children=(" * 10**4 + leaf + ",))" * 10**4
    depth = 3000
    t = spine(depth)
    assert T.positions(t) == [(1,) * k for k in range(depth + 1)]
    assert T.postorder(t) == [(1,) * k for k in range(depth, -1, -1)]
    assert T.leaves(t) == [(1,) * depth]
    # all_cuts copies every deeper cut once per level
    assert T.all_cuts(spine(1200)) == [((1,) * k,) for k in range(1201)]


def test_deep_spine_hash_and_init():
    # two spines built side by side are one interned object, and a tree
    # hashes by identity, so neither hashing nor the memo of the bottom-up
    # evaluation recurses over a 10^4-deep spine
    alg = ba.boole()
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        alg, alphabet, ("p",), [((), "alpha", "p", 1), (("p",), "gamma", "p", 1)], (1,)
    )
    spine, other = T.Tree("alpha"), T.Tree("alpha")
    for _ in range(10**4):
        spine, other = T.Tree("gamma", (spine,)), T.Tree("gamma", (other,))
    assert spine is other
    assert hash(spine) != hash(spine.children[0])
    assert T.state_vector(automaton, spine) == (1,)
    assert T.run_semantics(automaton, spine, prune=True) == 1


def test_literal_enumerator_checks_once_and_builds_no_positions(monkeypatch):
    # the unpruned enumerator flattens the tree once per call: one
    # check_tree and no position tuples
    alg = ba.pentagon()
    automaton = H.random_tree_automaton(random.Random(5), alg, ALPHABET, 3)
    expected = {t: T.run_semantics(automaton, t, prune=True) for t in T.enumerate_trees(ALPHABET, 5)}
    checked = []
    check_tree = T.TreeAutomaton.check_tree
    monkeypatch.setattr(T.TreeAutomaton, "check_tree", lambda self, t: checked.append(t) or check_tree(self, t))

    def no_positions(t):
        raise AssertionError("positions called")

    monkeypatch.setattr(T, "positions", no_positions)
    for t, value in expected.items():
        checked.clear()
        assert T.run_semantics(automaton, t) == value
        assert checked == [t]


def test_unpruned_run_and_cost_profile_on_a_deep_spine():
    # with one state a 10^4-deep spine has one run; neither the enumerator
    # nor the profile builds its positions, which hold d^2/2 integers
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        ba.boole(), alphabet, ("p",), [((), "alpha", "p", 1), (("p",), "gamma", "p", 1)], (1,)
    )
    t = spine(10**4)
    assert T.run_semantics(automaton, t) == 1
    profile = H.cost_profile(automaton, t)
    ops = {"adds": 0, "muls": 10**4 + 1}
    assert (profile.run_counts, profile.init_counts) == (ops, ops)
    assert (profile.run_value, profile.init_value) == ("1", "1")
    assert profile.input_size == 10**4 + 1
    assert profile.predicted["runs_enumerated"] == 1


def test_probes_need_a_symbol_of_rank_two():
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    with pytest.raises(ValueError, match="rank >= 2"):
        T.doubled_probe_tree(alphabet)
    with pytest.raises(ValueError, match="rank >= 2"):
        T.branching_probe_automaton(ba.boole(), 1, 1, 1, 1, alphabet)


def test_deep_trees_compare_print_measure_and_parse():
    # two separately built 10^4-deep spines are one object, so they compare
    # (also as dict keys) at once; str, size, parse and check_tree walk
    # explicit stacks, so the spine prints, measures and parses back; str
    # also at 10^5
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    a, b = spine(10**4), spine(10**4)
    assert a is b and a == b and {a: 1}[b] == 1
    assert a != spine(10**4 - 1) and a != T.Tree("gamma", (a,))
    assert T.size(a) == 10**4 + 1
    text = "gamma(" * 10**4 + "alpha" + ")" * 10**4
    assert str(a) == text
    assert T.parse(text, alphabet) == a
    assert T.TreeAutomaton(ba.boole(), alphabet, ("p",), [], (1,)).check_tree(a) is a
    assert str(spine(10**5)) == "gamma(" * 10**5 + "alpha" + ")" * 10**5


def test_deep_and_shared_trees_copy_and_pickle():
    # a tree is immutable, so a copy is the tree itself; it pickles as the
    # flat list of its distinct subtree objects, so a 10^4-deep spine and a
    # doubled tree 40 levels deep (2^41 - 1 nodes, 41 objects) go through
    # every protocol, the doubled one in a few hundred bytes
    deep = spine(10**4)
    doubled = T.Tree("alpha")
    for _ in range(40):
        doubled = T.Tree("sigma", (doubled, doubled))
    for t in (deep, doubled):
        assert copy.copy(t) is t and copy.deepcopy(t) is t and copy.deepcopy([t])[0] is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(deep, protocol))
        assert back == deep and back is deep
        data = pickle.dumps(doubled, protocol)
        assert len(data) < 2000, protocol
        back = pickle.loads(data)
        assert hash(back) == hash(doubled)
        # the rebuilt tree is the original, which is alive, and shares its
        # subtrees as the original does
        for _ in range(40):
            assert back.symbol == "sigma" and back.children[0] is back.children[1]
            back = back.children[0]
        assert back == T.Tree("alpha")


def test_equal_trees_are_one_object():
    # trees are hash-consed and Tree compares and hashes by identity, so two
    # separately built doubled trees 40 levels deep are one object, and ==
    # returns at once where a structural walk would follow 2^40 paths
    assert "__eq__" not in vars(T.Tree) and "__hash__" not in vars(T.Tree)
    a, b = doubled(40), doubled(40)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != doubled(39) and a != doubled(40, "beta")


def test_the_intern_table_keeps_no_tree_alive():
    gc.collect()  # trees held only by earlier garbage cycles leave now
    before = len(T._INTERNED)
    t = spine(10**4, T.Tree("kappa"))  # no other test builds a kappa leaf
    assert len(T._INTERNED) == before + 10**4 + 1
    del t
    assert len(T._INTERNED) == before


def test_a_10e5_deep_spine_builds_evaluates_pickles_and_frees():
    alphabet = T.RankedAlphabet({"omega": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        ba.boole(), alphabet, ("p",), [((), "omega", "p", 1), (("p",), "gamma", "p", 1)], (1,)
    )
    gc.collect()
    before = len(T._INTERNED)
    t = spine(10**5, T.Tree("omega"))
    assert T.state_vector(automaton, t) == (1,)
    assert T.run_semantics(automaton, t, prune=True) == 1
    data = pickle.dumps(t)
    assert pickle.loads(data) is t
    del t
    assert len(T._INTERNED) == before
    # rebuilt from scratch once the original is gone
    back = pickle.loads(data)
    assert T.size(back) == 10**5 + 1 and T.state_vector(automaton, back) == (1,)
    del back
    assert len(T._INTERNED) == before


def test_constructors_return_the_interned_tree():
    t = T.Tree("sigma", (T.Tree("alpha"), T.Tree("gamma", (T.Tree("alpha"),))))
    assert T.parse("sigma(alpha, gamma(alpha))") is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert bridge.word_to_tree("ab") is T.Tree("b", (T.Tree("a", (T.Tree("e"),)),))
    table = T.NodeTable(T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2}), 4)
    assert any(u is t for u in table.trees)
    assert all(T.parse(str(u)) is u for u in table.trees)


def test_check_tree_ranks_each_distinct_subtree_once(monkeypatch):
    # a doubled tree 16 levels deep: 2^17 - 1 nodes, 17 distinct subtrees
    t = doubled(16)
    automaton = T.TreeAutomaton(ba.boole(), ALPHABET, ("p",), [], (1,))
    calls = []
    rank = T.RankedAlphabet.rank
    monkeypatch.setattr(T.RankedAlphabet, "rank", lambda self, symbol: calls.append(symbol) or rank(self, symbol))
    assert automaton.check_tree(t) is t
    assert len(calls) <= 17


@pytest.mark.parametrize("bad, error", [
    (T.Tree("sigma", (T.Tree("alpha"),)), "symbol 'sigma' has rank 2 but 1 children"),
    (T.Tree("alpha", (T.Tree("beta"),)), "symbol 'alpha' has rank 0 but 1 children"),
    (T.Tree("omega"), "unknown symbol 'omega' (alphabet: sigma, delta, alpha, beta)"),
])
def test_check_tree_names_a_lone_bad_node(bad, error):
    automaton = T.TreeAutomaton(ba.boole(), ALPHABET, ("p",), [], (1,))
    for t in (bad, T.Tree("delta", (T.Tree("beta"), T.Tree("sigma", (T.Tree("alpha"), bad))))):
        with pytest.raises(ValueError) as exc:
            automaton.check_tree(t)
        assert str(exc.value) == error


def test_parse_errors():
    with pytest.raises(ValueError):
        T.parse("sigma(alpha)", ALPHABET)  # arity mismatch
    with pytest.raises(ValueError):
        T.parse("omega", ALPHABET)  # unknown symbol
    with pytest.raises(ValueError):
        T.parse("alpha)", ALPHABET)
    with pytest.raises(ValueError):
        T.parse("sigma(alpha,alpha) junk", ALPHABET)


def test_parse_str_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        t = random_tree(rng, ALPHABET, 4)
        assert T.parse(str(t), ALPHABET) == t


def test_enumerate_trees_counts():
    # over {alpha, sigma^2}: odd sizes only, Catalan counts
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    per_size = {}
    for t in T.enumerate_trees(alph, 7):
        per_size.setdefault(T.size(t), []).append(t)
    assert {s: len(v) for s, v in per_size.items()} == {1: 1, 3: 1, 5: 2, 7: 5}
    # independent recurrence for {alpha, gamma^1, sigma^2}
    counts = {1: 1}
    for s in range(2, 10):
        counts[s] = counts.get(s - 1, 0) + sum(
            counts.get(i, 0) * counts.get(s - 1 - i, 0) for i in range(1, s - 1)
        )
    mixed = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    seen = list(T.enumerate_trees(mixed, 9))
    assert len(seen) == sum(counts[s] for s in range(1, 10))
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("ranks", [
    {"alpha": 0, "gamma": 1, "sigma": 2},
    {"alpha": 0, "beta": 0, "tau": 3},
    {"e": 0, "a": 1, "b": 1},
    {"x": 2, "y": 0, "z": 1},
    {"alpha": 0, "beta": 0},
], ids=lambda ranks: ",".join(f"{s}:{k}" for s, k in ranks.items()))
@pytest.mark.parametrize("max_size", [1, 4, 8])
def test_node_table_lists_trees_in_the_recursive_order(ranks, max_size):
    # a sweep's first witness is the first failing tree in this order; node
    # i of the table is tree i, its children listed before it
    alphabet = T.RankedAlphabet(ranks)
    table = T.NodeTable(alphabet, max_size)
    assert table.trees == recursive_trees(alphabet, max_size)
    assert list(T.enumerate_trees(alphabet, max_size)) == table.trees
    assert len(table.nodes) == len(table.trees)
    for i, ((symbol, children), t) in enumerate(zip(table.nodes, table.trees)):
        assert all(c < i for c in children)
        assert t == T.Tree(symbol, tuple(table.trees[c] for c in children))


def test_enumerate_trees_over_nullary_symbols_stops_after_one_node():
    # the trivial-alphabet sweep passes --max-size as it is: the bound must
    # cost nothing when every tree is a single leaf
    tracemalloc.start()
    try:
        trees = list(T.enumerate_trees(T.RankedAlphabet({"alpha": 0, "beta": 0}), 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trees == [T.Tree("alpha"), T.Tree("beta")] and peak < 2**16


@pytest.fixture(scope="module")
def b4_probe():
    alg = ba.b4()
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 3})
    automaton = T.branching_probe_automaton(alg, 2, 2, 3, 2, alph)
    return alg, alph, automaton


def test_nullary_run_weight(b4_probe):
    alg, _, automaton = b4_probe
    leaf = T.Tree("alpha")
    for i, q in enumerate(automaton.states):
        assert T.run_weight(automaton, leaf, {(): automaton.state_index(q)}) == automaton.delta((), "alpha", i)


def test_probe_run_weights_of_the_two_accepting_runs(b4_probe):
    alg, alph, automaton = b4_probe
    xi = T.doubled_probe_tree(alph)
    k = 3
    names = {(): "q2", (1,): "seed_a", (2,): "unit", (3,): "q1",
             (3, 1): "seed_b1", (3, 2): "unit", (3, 3): "unit"}
    rho1 = {p: automaton.state_index(q) for p, q in names.items()}
    rho2 = dict(rho1)
    rho2[(3, 1)] = automaton.state_index("seed_b2")
    # weight before root weights: a*b and a*b'
    assert T.run_weight(automaton, xi, rho1) == alg.mul(2, 2)
    assert T.run_weight(automaton, xi, rho2) == alg.mul(2, 3)
    # and the run semantics is the two contributions summed with c
    expected = alg.add(alg.mul(alg.mul(2, 2), 2), alg.mul(alg.mul(2, 3), 2))
    assert T.run_semantics(automaton, xi, prune=True) == expected


def test_probe_identities_random_quadruples(finite_algebras):
    rng = random.Random(37)
    for alg in finite_algebras:
        carrier = list(alg.elements())
        for k in (2, 3):
            alph = T.RankedAlphabet({"alpha": 0, "sigma": k})
            xi = T.doubled_probe_tree(alph)
            for _ in range(5):
                a, b, bp, c = (carrier[rng.randrange(len(carrier))] for _ in range(4))
                automaton = T.branching_probe_automaton(alg, a, b, bp, c, alph)
                run_direct = alg.add(
                    alg.mul(alg.mul(a, b), c), alg.mul(alg.mul(a, bp), c)
                )
                init_direct = alg.mul(alg.mul(a, alg.add(b, bp)), c)
                assert T.run_semantics(automaton, xi, prune=True) == run_direct
                assert T.initial_semantics(automaton, xi) == init_direct
                assert T.run_semantics(automaton, T.Tree("alpha"), prune=True) == alg.zero
                assert T.initial_semantics(automaton, T.Tree("alpha")) == alg.zero


def test_probe_images(b4_probe):
    alg, alph, automaton = b4_probe
    xi = T.doubled_probe_tree(alph)
    run_val = T.run_semantics(automaton, xi, prune=True)
    init_val = T.initial_semantics(automaton, xi)
    images = T.images_up_to(automaton, T.size(xi))
    im_run, im_init = images[Semantics.RUN], images[Semantics.INIT]
    expect = lambda v: [alg.zero] if v == alg.zero else [alg.zero, v]
    assert im_run == expect(run_val)
    assert im_init == expect(init_val)


def test_image_size_one_collects_nullary_values(b4_probe):
    alg, _, automaton = b4_probe
    vals = T.images_up_to(automaton, 1)[Semantics.INIT]
    assert vals == [T.initial_semantics(automaton, T.Tree("alpha"))]


def test_trunc_fun_probe_separates_supports():
    alg = ba.trunc_fun(2)
    g = (0, 1, 0)
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    automaton = T.branching_probe_automaton(alg, g, g, g, alg.one, alph)
    xi = T.doubled_probe_tree(alph)
    # run value: g composed with itself is g again, then summed with itself
    assert T.run_semantics(automaton, xi, prune=True) == alg.add(g, g) == (0, 2, 0)
    assert T.initial_semantics(automaton, xi) == alg.zero
    assert T.in_support(automaton, xi, Semantics.RUN)
    assert not T.in_support(automaton, xi, Semantics.INIT)


def test_trivial_alphabet_images_coincide_at_every_bound():
    rng = random.Random(97)
    alph = T.RankedAlphabet({"alpha": 0, "beta": 0})
    for alg in (ba.b4(), ba.trunc_fun(2)):
        automaton = H.random_tree_automaton(rng, alg, alph, 3)
        for bound in (1, 2, 3):
            images = T.images_up_to(automaton, bound)
            assert images[Semantics.RUN] == images[Semantics.INIT]


def test_run_weight_equals_postorder_product():
    rng = random.Random(41)
    for alg in (ba.b4(), ba.pentagon(), ba.trunc_fun(2)):
        automaton = H.random_tree_automaton(
            rng, alg, T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2}), 3
        )
        for _ in range(60):
            t = random_tree(rng, automaton.alphabet, 4)
            rho = random_run(rng, automaton, t)
            assert T.run_weight(automaton, t, rho) == T.run_weight_postorder(automaton, t, rho)


def test_state_vector_matches_dense_oracle():
    rng = random.Random(43)
    for alg in (ba.b4(), ba.pentagon()):
        for _ in range(5):
            automaton = H.random_tree_automaton(
                rng, alg, T.RankedAlphabet({"alpha": 0, "sigma": 2}), 3
            )
            for t in T.enumerate_trees(automaton.alphabet, 5):
                assert T.state_vector(automaton, t) == dense_state_vector(automaton, t)


def _random_tree(rng, leaves):
    """A random tree over {alpha, beta, gamma:1, sigma:2} with ``leaves``
    leaves: adjacent subtrees merge under sigma, some get a gamma on top."""
    pool = [T.Tree(rng.choice(("alpha", "beta"))) for _ in range(leaves)]
    while len(pool) > 1:
        i = rng.randrange(len(pool) - 1)
        if rng.random() < 0.3:
            pool[i] = T.Tree("gamma", (pool[i],))
        else:
            pool[i : i + 2] = [T.Tree("sigma", (pool[i], pool[i + 1]))]
    return pool[0]


MEMO_ALPHABET = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2})

# (algebra, weight pool or None for all of a finite carrier, leaves of the
# random tree, leaves of each twin, spine depth): PolyMonome's coefficients
# grow fastest, so its trees are the smallest; the order-<=3 atlas adds
# non-commutative and cancelling carriers
MEMO_CASES = [
    pytest.param(alg, pool, *sizes, id=alg.name)
    for alg, pool, sizes in (
        *((alg, None, (200, 60, 300)) for alg in ba.bundled_finite_algebras()),
        *((alg, None, (60, 20, 100)) for alg in small_strong_bimonoids(2) + small_strong_bimonoids(3)),
        *((alg, pool, (30, 10, 40) if alg.name == "PolyMonome" else (200, 60, 300)) for alg, pool in infinite_pools()),
    )
]


def _memo_automata(alg, pool, leaves, twin_leaves, depth):
    """Automata with 1, 2 and 3 states, each with three trees: a random one,
    two equal but separately built twins under sigma, and a gamma spine."""
    rng = random.Random(59)
    for n_states in (1, 2, 3):
        if pool is None:
            automaton = H.random_tree_automaton(rng, alg, MEMO_ALPHABET, n_states)
        else:
            automaton = pool_tree_automaton(rng, alg, pool, n_states, MEMO_ALPHABET)
        seed = rng.random()
        twins = [_random_tree(random.Random(seed), twin_leaves) for _ in range(2)]
        assert twins[0] == twins[1] and twins[0] is twins[1]
        yield automaton, (_random_tree(rng, leaves), T.Tree("sigma", tuple(twins)), spine(depth))


@pytest.mark.parametrize("alg, pool, leaves, twin_leaves, depth", MEMO_CASES)
def test_memoised_tree_init_matches_plain_fold(alg, pool, leaves, twin_leaves, depth, monkeypatch):
    # each (symbol, child vectors) step runs once per call, so distinct subtrees
    # that reach the same vectors share it. Over a finite carrier, and over
    # NatPlusMin, whose values stay bounded, that is fewer steps than nodes
    calls: list = []
    plain = T._init_node
    monkeypatch.setattr(T, "_init_node", lambda *args: calls.append(args) or plain(*args))
    for automaton, trees in _memo_automata(alg, pool, leaves, twin_leaves, depth):
        for t in trees:
            steps = plain_tree_vectors(automaton, t)
            calls.clear()
            assert T.state_vector(automaton, t) == steps[()][2]
            assert len(calls) == len({(sym, children) for sym, children, _ in steps.values()})
            if alg.is_finite or alg.name == "NatPlusMin":
                assert len(calls) < T.size(t)
            assert T.initial_semantics(automaton, t) == plain_tree_init(automaton, t)
        for _, t, _, init in T.explore(automaton, T.NodeTable(MEMO_ALPHABET, 5)):
            assert init == plain_tree_init(automaton, t)


@pytest.mark.parametrize("alg, pool", [pytest.param(*case, id=case[0].name) for case in infinite_pools()])
def test_bypassed_tree_memo_keeps_plain_values(alg, pool, monkeypatch):
    # a table of at most 4 vectors fills early in most trees
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", 4)
    for automaton, trees in _memo_automata(alg, pool, 30, 10, 40):
        for t in trees:
            assert T.state_vector(automaton, t) == plain_tree_vectors(automaton, t)[()][2]
            assert T.initial_semantics(automaton, t) == plain_tree_init(automaton, t)
        for _, t, _, init in T.explore(automaton, T.NodeTable(MEMO_ALPHABET, 5)):
            assert init == plain_tree_init(automaton, t)


@pytest.mark.parametrize("limit, steps", [(4, 41), (5, 5), (algebra.MEMO_MISS_LIMIT, 5)])
def test_tree_memo_gives_up_after_the_miss_limit(limit, steps, monkeypatch):
    # gamma moves the one entry round a 4-cycle of vectors: the 41-node spine
    # makes five misses (alpha, then gamma four times), then only hits, unless
    # the four vectors fill the table and every later step is recomputed
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", limit)
    calls: list = []
    plain = T._init_node
    monkeypatch.setattr(T, "_init_node", lambda *args: calls.append(args) or plain(*args))
    cycle = [((p,), "gamma", q, 1) for p, q in zip("pqrs", "qrsp")]
    automaton = T.TreeAutomaton(
        ba.boole(), T.RankedAlphabet({"alpha": 0, "gamma": 1}), "pqrs", [((), "alpha", "p", 1), *cycle], (0, 0, 0, 1)
    )
    t = spine(40)
    expected = plain_tree_init(automaton, t)
    calls.clear()
    assert T.initial_semantics(automaton, t) == expected
    assert len(calls) == steps


# --------------------------------------------------------------------------
# The bottom-up walk steps each unary chain in one loop


def _chain_shapes():
    """Trees over MEMO_ALPHABET made of unary chains: a comb whose binary
    nodes take chains as children, one chain object twice under sigma, two
    equal chains built separately, and chains whose bottom (a binary node,
    or a chain the left one ends in) the right sibling has already
    evaluated, since the walk takes the last child first."""
    fork = T.Tree("sigma", (T.Tree("alpha"), T.Tree("beta")))
    comb = T.Tree("beta")
    for depth in (3, 1, 4, 1, 5):
        comb = T.Tree("sigma", (spine(depth), spine(depth + 1, comb)))
    chain = spine(40)
    twins = [spine(40) for _ in range(2)]
    assert twins[0] == twins[1] and twins[0] is twins[1]
    return {
        "comb": comb,
        "chain twice": T.Tree("sigma", (chain, chain)),
        "equal chains": T.Tree("sigma", tuple(twins)),
        "evaluated bottom": T.Tree("sigma", (spine(30, fork), fork)),
        "evaluated chain": T.Tree("sigma", (spine(30, chain), chain)),
    }


def _one_target_automaton(rng, alg, n_states):
    """A leaf symbol reaches every state, and each state word of gamma and
    sigma one drawn state, with weights drawn from the carrier: a tree with
    l leaves has at most n_states^l runs of nonzero weight."""
    states = [f"q{i}" for i in range(n_states)]
    elements = list(alg.elements())
    quads = [((), sym, q, rng.choice(elements)) for sym in ("alpha", "beta") for q in states]
    quads += [(sw, sym, rng.choice(states), rng.choice(elements))
              for sym in ("gamma", "sigma") for sw in itertools.product(states, repeat=MEMO_ALPHABET.rank(sym))]
    return T.TreeAutomaton(alg, MEMO_ALPHABET, states, quads, [rng.choice(elements) for _ in states])


def _nonzero_run_sum(automaton, t):
    """The run semantics summed literally over the runs of nonzero weight,
    each listed: per position, in post-order, (root state, weight) of every
    run of its subtree, the weight being the children's weights, first to
    last, times the transition weight."""
    alg = automaton.algebra
    runs = {}
    for pos in T.postorder(t):
        node = T.subtree_at(t, pos)
        runs[pos] = []
        for combo in itertools.product(*[runs[pos + (i,)] for i in range(1, len(node.children) + 1)]):
            child_states = tuple([q for q, _ in combo])
            for q in range(len(automaton.states)):
                weight = alg.product([w for _, w in combo] + [automaton.delta(child_states, node.symbol, q)])
                if weight != alg.zero:
                    runs[pos].append((q, weight))
    return alg.sum(alg.mul(w, automaton.root_weights[q]) for q, w in runs[()])


def _chain_walk_automata(alg, seed):
    """Three-state automata over the carrier: every transition stored, and
    one target per state word."""
    rng = random.Random(seed)
    return pool_tree_automaton(rng, alg, list(alg.elements()), 3, MEMO_ALPHABET), _one_target_automaton(rng, alg, 3)


@pytest.mark.parametrize("alg", [ba.pentagon(), ba.b4(), ba.trunc_fun(2)], ids=lambda alg: alg.name)
def test_chain_walk_matches_the_plain_folds_on_spines(alg):
    dense, one_target = _chain_walk_automata(alg, 61)
    t = T.Tree("alpha")
    for depth in range(1, 301):
        t = T.Tree("gamma", (t,))
        assert T.state_vector(dense, t) == plain_tree_vectors(dense, t)[()][2], depth
        assert T.run_semantics(one_target, t, prune=True) == _nonzero_run_sum(one_target, t), depth
        if depth <= 5:  # 3^(depth + 1) runs in all
            for automaton in (dense, one_target):
                literal = T.run_semantics(automaton, t)
                assert T.run_semantics(automaton, t, prune=True) == literal == _nonzero_run_sum(automaton, t)


@pytest.mark.parametrize("alg", [*ba.bundled_finite_algebras(), *small_strong_bimonoids(2), *small_strong_bimonoids(3)],
                         ids=lambda alg: alg.name)
def test_chain_walk_matches_the_plain_folds_on_chain_shapes(alg):
    dense, one_target = _chain_walk_automata(alg, 67)
    for name, t in _chain_shapes().items():
        assert T.state_vector(dense, t) == plain_tree_vectors(dense, t)[()][2], name
        assert T.run_semantics(one_target, t, prune=True) == _nonzero_run_sum(one_target, t), name


def test_chain_walk_steps_each_distinct_subtree_once():
    # every chain node is stored, so a chain met again, whole or as the
    # suffix of a longer one, is not walked twice
    for name, t in _chain_shapes().items():
        distinct, stack = set(), [t]
        while stack:
            node = stack.pop()
            if node not in distinct:
                distinct.add(node)
                stack.extend(node.children)
        steps = []
        assert T._bottom_up(MEMO_ALPHABET, t, lambda symbol, children: steps.append(symbol)) is None
        assert len(steps) == len(distinct), name


@pytest.mark.parametrize("bad, error", [
    (spine(3, T.Tree("alpha", (spine(3, T.Tree("beta")),))), "symbol 'alpha' has rank 0 but 1 children"),
    (spine(3, T.Tree("gamma", (T.Tree("alpha"), T.Tree("beta")))), "symbol 'gamma' has rank 1 but 2 children"),
    (spine(3, T.Tree("alpha", (spine(3, T.Tree("gamma", (T.Tree("alpha"), T.Tree("beta")))),))),
     "symbol 'gamma' has rank 1 but 2 children"),
    (spine(3, T.Tree("omega", (T.Tree("alpha"),))), "unknown symbol 'omega' (alphabet: alpha, beta, gamma, sigma)"),
])
def test_a_malformed_chain_node_raises_the_first_error_in_post_order(bad, error):
    # a chain node with another rank, or a chain's bottom with another
    # number of children; below a bad chain node the bottom's error comes first
    automaton = _chain_walk_automata(ba.boole(), 71)[0]
    for t in (bad, T.Tree("sigma", (T.Tree("alpha"), bad)), T.Tree("sigma", (bad, spine(5, T.Tree("beta"))))):
        for evaluate in (automaton.check_tree, lambda t: T.state_vector(automaton, t),
                         lambda t: T.run_semantics(automaton, t, prune=True)):
            with pytest.raises(ValueError) as exc:
                evaluate(t)
            assert str(exc.value) == error


def test_chain_walk_finishes_on_a_10_5_deep_spine():
    dense, one_target = _chain_walk_automata(ba.pentagon(), 73)
    alg, t = one_target.algebra, spine(10**5)
    assert dense.check_tree(t) is t
    vec = T._init_node(dense, "alpha", ())
    for _ in range(10**5):
        vec = T._init_node(dense, "gamma", (vec,))
    assert T.state_vector(dense, t) == vec
    # each leaf state starts the one run that gamma's single targets continue
    step = {sw[0]: next(iter(row.items())) for (sw, sym), row in one_target._delta.items() if sym == "gamma"}
    total = alg.zero
    for q0 in range(3):
        q, weight = q0, one_target.delta((), "alpha", q0)
        for _ in range(10**5):
            q, w = step[q]
            weight = alg.mul(weight, w)
        total = alg.add(total, alg.mul(weight, one_target.root_weights[q]))
    assert T.run_semantics(one_target, t, prune=True) == total


def test_pruned_run_semantics_equals_unpruned():
    rng = random.Random(47)
    for alg in (ba.b4(), ba.hexagon()):
        for _ in range(5):
            automaton = H.random_tree_automaton(
                rng, alg, T.RankedAlphabet({"alpha": 0, "sigma": 2}), 3
            )
            for t in T.enumerate_trees(automaton.alphabet, 5):
                assert T.run_semantics(automaton, t) == T.run_semantics(automaton, t, prune=True)


def test_trivial_alphabet_semantics_coincide():
    rng = random.Random(53)
    alph = T.RankedAlphabet({"alpha": 0, "beta": 0})
    for alg in (ba.b4(), ba.b3prime(), ba.pentagon()):
        for _ in range(10):
            automaton = H.random_tree_automaton(rng, alg, alph, 3)
            for sym in ("alpha", "beta"):
                t = T.Tree(sym)
                assert T.run_semantics(automaton, t) == T.initial_semantics(automaton, t)


def test_distributive_algebras_equal_semantics_on_trees():
    rng = random.Random(59)
    alph = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    for alg in (ba.boole(), ba.diamond()):
        for _ in range(10):
            automaton = H.random_tree_automaton(rng, alg, alph, 3)
            for t in T.enumerate_trees(alph, 7):
                assert T.run_semantics(automaton, t, prune=True) == T.initial_semantics(automaton, t)


def test_restriction_to_one_nullary_symbol():
    rng = random.Random(61)
    alg = ba.pentagon()
    alph = T.RankedAlphabet({"alpha": 0, "beta": 0, "gamma": 1})
    automaton = H.random_tree_automaton(rng, alg, alph, 3)
    restricted = T.restrict_to_nullary(automaton, "alpha")
    assert set(restricted.alphabet.symbols) == {"alpha", "gamma"}
    # every tree over the whole alphabet lives in exactly one restriction
    trees = list(T.enumerate_trees(alph, 4))
    for t in trees:
        nullaries = {T.label_at(t, p) for p in T.leaves(t)}
        assert len(nullaries) == 1
    # semantics agree on restricted trees, and supports union up
    support_full = set()
    support_parts = set()
    for t in trees:
        if T.in_support(automaton, t, Semantics.RUN):
            support_full.add(t)
    for sym in ("alpha", "beta"):
        part = T.restrict_to_nullary(automaton, sym)
        for t in T.enumerate_trees(part.alphabet, 4):
            assert T.run_semantics(part, t, prune=True) == T.run_semantics(automaton, t, prune=True)
            assert T.initial_semantics(part, t) == T.initial_semantics(automaton, t)
            if T.in_support(part, t, Semantics.RUN):
                support_parts.add(t)
    assert support_full == support_parts
    for sym in ("gamma", "delta"):  # unary, and not in the alphabet
        with pytest.raises(ValueError, match=f"^'{sym}' is not a nullary symbol of the alphabet$"):
            T.restrict_to_nullary(automaton, sym)
    with pytest.raises(ValueError):
        T.restrict_to_nullary(
            H.random_tree_automaton(rng, alg, T.RankedAlphabet({"a": 0, "s": 2}), 2), "a"
        )


def test_run_domain_validation(b4_probe):
    _, alph, automaton = b4_probe
    xi = T.doubled_probe_tree(alph)
    with pytest.raises(ValueError):
        T.run_weight(automaton, xi, {(): "q2"})
    with pytest.raises(ValueError):
        T.run_weight(automaton, T.Tree("alpha"), {(): "nope"})


def test_tree_automaton_construction_validation(branching_alphabet):
    alg = ba.boole()
    with pytest.raises(ValueError):
        T.TreeAutomaton(alg, branching_alphabet, (), [], ())
    with pytest.raises(ValueError):  # state/alphabet namespace collision
        T.TreeAutomaton(alg, branching_alphabet, ("alpha",), [], {"alpha": 1})
    with pytest.raises(ValueError):  # wrong state word length
        T.TreeAutomaton(
            alg, branching_alphabet, ("q",), [(("q",), "sigma", "q", 1)], {"q": 1}
        )
    with pytest.raises(ValueError):  # tree with wrong arity for this alphabet
        automaton = T.TreeAutomaton(alg, branching_alphabet, ("q",), [], {"q": 1})
        T.run_semantics(automaton, T.Tree("sigma", (T.Tree("alpha"),)))


def test_enumerate_runs_order(branching_alphabet):
    alg = ba.boole()
    automaton = T.TreeAutomaton(
        alg, branching_alphabet, ("q0", "q1"), [((), "alpha", "q0", 1)], {"q0": 1}
    )
    t = T.Tree("sigma", (T.Tree("alpha"), T.Tree("alpha")))
    runs = list(T.enumerate_runs(automaton, t))
    assert len(runs) == 2 ** 3
    assert list(runs[0].values()) == [0, 0, 0]
    assert list(runs[1].values()) == [0, 0, 1]  # last position varies fastest
    assert list(runs[0]) == T.positions(t)
