import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import algebra
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


def spine(depth):
    """gamma^depth(alpha), built bottom up."""
    t = T.Tree("alpha")
    for _ in range(depth):
        t = T.Tree("gamma", (t,))
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
    # hashes are cached at construction, so neither hashing nor the memo of
    # the bottom-up evaluation recurses over a 10^4-deep spine
    alg = ba.boole()
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    automaton = T.TreeAutomaton(
        alg, alphabet, ("p",), [((), "alpha", "p", 1), (("p",), "gamma", "p", 1)], (1,)
    )
    spine, other = T.Tree("alpha"), T.Tree("alpha")
    for _ in range(10**4):
        spine, other = T.Tree("gamma", (spine,)), T.Tree("gamma", (other,))
    assert hash(spine) == hash(other) != hash(spine.children[0])
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
    # equality, str, size, parse and check_tree walk explicit stacks, so two
    # separately built 10^4-deep spines compare (also as dict keys), print,
    # measure and parse back; str also at 10^5
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1})
    a, b = spine(10**4), spine(10**4)
    assert a is not b and a == b and {a: 1}[b] == 1
    assert a != spine(10**4 - 1) and a != T.Tree("gamma", (a,))
    assert T.size(a) == 10**4 + 1
    text = "gamma(" * 10**4 + "alpha" + ")" * 10**4
    assert str(a) == text
    assert T.parse(text, alphabet) == a
    assert T.TreeAutomaton(ba.boole(), alphabet, ("p",), [], (1,)).check_tree(a) is a
    assert str(spine(10**5)) == "gamma(" * 10**5 + "alpha" + ")" * 10**5


def test_check_tree_ranks_each_distinct_subtree_once(monkeypatch):
    # a doubled tree 16 levels deep: 2^17 - 1 nodes, 17 distinct subtrees
    t = T.Tree("alpha")
    for _ in range(16):
        t = T.Tree("sigma", (t, t))
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
# grow fastest, so its trees are the smallest
MEMO_CASES = [
    pytest.param(alg, pool, *sizes, id=alg.name)
    for alg, pool, sizes in (
        *((alg, None, (200, 60, 300)) for alg in ba.bundled_finite_algebras()),
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
        assert twins[0] == twins[1] and twins[0] is not twins[1]
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
        for _, t, _, init in T.explore(automaton, list(T.enumerate_trees(MEMO_ALPHABET, 5))):
            assert init == plain_tree_init(automaton, t)


@pytest.mark.parametrize("alg, pool", [pytest.param(*case, id=case[0].name) for case in infinite_pools()])
def test_bypassed_tree_memo_keeps_plain_values(alg, pool, monkeypatch):
    # at a miss limit of 4 the memo gives up early in most trees
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", 4)
    for automaton, trees in _memo_automata(alg, pool, 30, 10, 40):
        for t in trees:
            assert T.state_vector(automaton, t) == plain_tree_vectors(automaton, t)[()][2]
            assert T.initial_semantics(automaton, t) == plain_tree_init(automaton, t)
        for _, t, _, init in T.explore(automaton, list(T.enumerate_trees(MEMO_ALPHABET, 5))):
            assert init == plain_tree_init(automaton, t)


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
