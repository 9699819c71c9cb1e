import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import words as W
from bimonoid_automata.algebra import CountingAlgebra, Semantics

from conftest import (
    literal_word_init,
    literal_word_runs,
    literal_word_vectors,
    nfa_accepts,
    nfa_as_boole_automaton,
)


@pytest.fixture(scope="module")
def b4_probe():
    alg = ba.b4()
    return alg, W.probe_automaton(alg, 2, 2, 2)


def test_empty_word_run_weight(b4_probe):
    alg, automaton = b4_probe
    for i, q in enumerate(automaton.states):
        expected = alg.mul(automaton.initial[i], automaton.final[i])
        assert W.run_weight(automaton, (), (q,)) == expected


def test_probe_single_symbol_values(b4_probe):
    alg, automaton = b4_probe
    assert W.run_semantics(automaton, ("gamma",)) == alg.add(alg.mul(2, 2), alg.mul(2, 2))
    assert W.initial_semantics(automaton, ("gamma",)) == alg.mul(alg.add(2, 2), 2)
    assert not W.in_support(automaton, ("gamma",), Semantics.RUN)
    assert W.in_support(automaton, ("gamma",), Semantics.INIT)


def test_probe_single_run_weights():
    alg = ba.pentagon()
    p, r = alg.parse("p"), alg.parse("r")
    automaton = W.probe_automaton(alg, p, r, alg.parse("q"))
    # the run through the first initial state picks up a, the unit step, then c
    assert W.run_weight(automaton, ("gamma",), ("p", "r")) == alg.mul(p, alg.parse("q"))
    assert W.run_weight(automaton, ("gamma",), ("q", "r")) == alg.mul(r, alg.parse("q"))
    assert W.run_weight(automaton, ("gamma",), ("p", "q")) == alg.zero


def test_probe_b3prime_supports():
    alg = ba.b3prime()
    one, two = alg.parse("1'"), alg.parse("2'")
    automaton = W.probe_automaton(alg, one, one, two)
    assert W.run_semantics(automaton, ("gamma",)) == two
    assert W.initial_semantics(automaton, ("gamma",)) == alg.zero
    assert W.in_support(automaton, ("gamma",), Semantics.RUN)
    assert not W.in_support(automaton, ("gamma",), Semantics.INIT)


def test_probe_two_symbol_word_is_zero(b4_probe):
    alg, automaton = b4_probe
    assert W.run_semantics(automaton, ("gamma", "gamma")) == alg.zero
    assert W.initial_semantics(automaton, ("gamma", "gamma")) == alg.zero


def test_probe_identities_random_triples(finite_algebras):
    rng = random.Random(11)
    for alg in finite_algebras:
        carrier = list(alg.elements())
        for _ in range(10):
            a, b, c = (carrier[rng.randrange(len(carrier))] for _ in range(3))
            automaton = W.probe_automaton(alg, a, b, c)
            run_direct = alg.add(alg.mul(a, c), alg.mul(b, c))
            init_direct = alg.mul(alg.add(a, b), c)
            assert alg.equal(W.run_semantics(automaton, ("gamma",)), run_direct)
            assert alg.equal(W.initial_semantics(automaton, ("gamma",)), init_direct)


def test_zero_transition_annihilates(b4_probe):
    alg, automaton = b4_probe
    # the run through r twice crosses an all-zero row
    assert W.run_weight(automaton, ("gamma", "gamma"), ("r", "r", "r")) == alg.zero


def test_image_examples(b4_probe):
    alg, automaton = b4_probe
    images = W.images_up_to(automaton, 1)
    assert images[Semantics.RUN] == [alg.zero]  # a*c + b*c = 0 here
    assert images[Semantics.INIT] == [alg.zero, 2]
    # length 0: the single value sum_q I_q * F_q
    eps = W.initial_semantics(automaton, ())
    assert W.images_up_to(automaton, 0)[Semantics.INIT] == [eps]
    with pytest.raises(ValueError):
        W.images_up_to(automaton, -1)


ENDS_IN_X = dict(
    alphabet=("a", "x"),
    states=("s0", "s1"),
    initial=("s0",),
    finals=("s1",),
    arcs=[("s0", "a", "s0"), ("s0", "x", "s0"), ("s0", "x", "s1")],
)


def test_boole_semantics_match_nfa_oracle():
    automaton = nfa_as_boole_automaton(**ENDS_IN_X)
    for word in W.all_words(("a", "x"), 4):
        expected = nfa_accepts(
            ENDS_IN_X["initial"], ENDS_IN_X["finals"], ENDS_IN_X["arcs"], word
        )
        assert W.in_support(automaton, word, Semantics.RUN) == expected
        assert W.in_support(automaton, word, Semantics.INIT) == expected


def test_boole_random_nfas_match_oracle():
    rng = random.Random(5)
    alphabet = ("a", "b")
    states = ("s0", "s1", "s2")
    for _ in range(20):
        arcs = [
            (p, a, q)
            for p in states
            for a in alphabet
            for q in states
            if rng.random() < 0.3
        ]
        initial = [q for q in states if rng.random() < 0.5] or ["s0"]
        finals = [q for q in states if rng.random() < 0.5] or ["s2"]
        automaton = nfa_as_boole_automaton(alphabet, states, initial, finals, arcs)
        for word in W.all_words(alphabet, 5):
            expected = nfa_accepts(initial, finals, arcs, word)
            assert W.in_support(automaton, word, Semantics.RUN) == expected
            assert W.in_support(automaton, word, Semantics.INIT) == expected


def test_right_distributive_algebras_have_equal_semantics():
    rng = random.Random(23)
    for alg in (ba.boole(), ba.trunc_fun(2), ba.diamond()):
        for _ in range(15):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            for word in W.all_words(("a", "b"), 4):
                run = W.run_semantics(automaton, word, prune=True)
                init = W.initial_semantics(automaton, word)
                assert alg.equal(run, init), (alg.name, word)


def test_strongly_zsf_algebras_have_equal_supports():
    rng = random.Random(29)
    for alg in (ba.pentagon(), ba.hexagon(), ba.boole(), ba.nat_plus_plus_table(3)):
        for _ in range(15):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            for word in W.all_words(("a", "b"), 4):
                assert W.in_support(automaton, word, Semantics.RUN) == W.in_support(
                    automaton, word, Semantics.INIT
                ), (alg.name, word)


def test_pruned_run_semantics_equals_unpruned():
    rng = random.Random(31)
    for alg in (ba.b4(), ba.pentagon(), ba.trunc_fun(2)):
        for _ in range(10):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            for word in W.all_words(("a", "b"), 3):
                assert alg.equal(
                    W.run_semantics(automaton, word),
                    W.run_semantics(automaton, word, prune=True),
                )


def _skew_table(draw, n):
    """An n x n table that is neither commutative nor associative."""
    entry = st.integers(0, n - 1)
    t = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    cells = range(n)
    assume(any(t[a][b] != t[b][a] for a in cells for b in cells))
    assume(any(t[t[a][b]][c] != t[a][t[b][c]] for a in cells for b in cells for c in cells))
    return t


@st.composite
def skew_automata(draw):
    """A word automaton with |Q| <= 3 over a random 2-4 element table whose
    add and mul are neither commutative nor associative, a word of at most 4
    symbols, and one of 130-200 symbols: past 2 * 4^3 = 128 steps some
    (vector, symbol) pair repeats, so the init memo hits."""
    n = draw(st.integers(2, 4))
    alg = ba.FiniteTableAlgebra(
        "skew", [f"e{i}" for i in range(n)], _skew_table(draw, n), _skew_table(draw, n), 0, 1
    )
    nq = draw(st.integers(1, 3))
    vec = st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq)
    matrices = {a: draw(st.lists(vec, min_size=nq, max_size=nq)) for a in "ab"}
    automaton = W.WordAutomaton(alg, "ab", [f"q{i}" for i in range(nq)], draw(vec), draw(vec), matrices)
    word, long_word = (
        tuple(draw(st.lists(st.sampled_from("ab"), min_size=lo, max_size=hi)))
        for lo, hi in ((0, 4), (130, 200))
    )
    return automaton, word, long_word


@settings(max_examples=300, deadline=None)
@given(skew_automata())
def test_literal_order_on_tables_that_break_the_axioms(case):
    # the enumerator sums runs in lexicographic order and multiplies each
    # left to right; init sums each column from the first state on, also
    # when its steps come from the memo
    automaton, word, long_word = case
    assert W.run_semantics(automaton, word) == literal_word_runs(automaton, word)
    assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)
    assert W.initial_semantics(automaton, long_word) == literal_word_init(automaton, long_word)


def _count_init_steps(monkeypatch) -> list:
    """Record every call of the unmemoised word init step."""
    calls: list = []
    plain = W._init_step
    monkeypatch.setattr(W, "_init_step", lambda *args: calls.append(args) or plain(*args))
    return calls


@pytest.mark.parametrize("alg", ba.bundled_finite_algebras(), ids=lambda alg: alg.name)
def test_memoised_init_matches_literal_fold(alg, monkeypatch):
    # over a finite carrier each (vector, symbol) step runs once per call: words of
    # 10^3 symbols revisit vectors, so almost every step is a memo hit
    calls = _count_init_steps(monkeypatch)
    rng = random.Random(53)
    for max_states in (1, 2, 3):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), max_states)
        for word in (
            tuple(rng.choice("ab") for _ in range(1000)),
            ("a",) * 700 + ("b",) * 300,
            ("a", "b", "b") * 333,
        ):
            vecs = literal_word_vectors(automaton, word)
            calls.clear()
            assert W.state_vector(automaton, word) == vecs[-1]
            assert len(calls) == len(set(zip(vecs, word))) < len(word)
            assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)
        for _, word, _, init in W.explore(automaton, 6):
            assert init == literal_word_init(automaton, word)


def test_counted_init_takes_the_plain_recursion(monkeypatch):
    # the memo would hit on a^1000 over pentagon, but the counting wrapper
    # always takes the plain step, so criterion 11's closed forms still hold exactly
    n = 1000
    rng = random.Random(3)
    automaton = H.random_word_automaton(rng, ba.pentagon(), ("a",), 3)
    while len(automaton.states) != 3:
        automaton = H.random_word_automaton(rng, ba.pentagon(), ("a",), 3)
    counting = CountingAlgebra(ba.pentagon())
    counted = automaton.with_algebra(counting)
    word = ("a",) * n
    calls = _count_init_steps(monkeypatch)
    plain_value = W.initial_semantics(automaton, word)
    assert len(calls) < n
    calls.clear()
    assert W.initial_semantics(counted, word) == plain_value
    assert len(calls) == n
    assert counting.read_counts() == (6 * n + 2, 9 * n + 3)


def test_deterministic_evaluation(b4_probe):
    _, automaton = b4_probe
    w = ("gamma",)
    assert W.run_semantics(automaton, w) == W.run_semantics(automaton, w)
    assert W.initial_semantics(automaton, w) == W.initial_semantics(automaton, w)


def test_exact_cost_counts():
    rng = random.Random(3)
    alg = ba.pentagon()
    automaton = H.random_word_automaton(rng, alg, ("a",), 3)
    while len(automaton.states) != 3:
        automaton = H.random_word_automaton(rng, alg, ("a",), 3)
    for n in range(0, 5):
        word = ("a",) * n
        profile = H.cost_profile(automaton, word)
        assert profile.run_counts == profile.predicted["run"]
        assert profile.init_counts == profile.predicted["init"]


def test_mixed_prefix_product_boundaries():
    rng = random.Random(17)
    for alg in (ba.b4(), ba.pentagon()):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        word = ("a", "b", "a")
        for run in itertools.islice(W.enumerate_runs(automaton, word), 0, 30, 7):
            full = W.run_weight(automaton, word, run)
            assert alg.equal(W.mixed_prefix_product(automaton, word, run, 0), full)
            vec = W.state_vector(automaton, word)
            end = alg.mul(vec[run[-1]], automaton.final[run[-1]])
            assert alg.equal(
                W.mixed_prefix_product(automaton, word, run, len(word)), end
            )


def test_mixed_prefix_product_nonzero_chain_on_pentagon():
    # along any run with nonzero weight, every hybrid stage stays nonzero
    rng = random.Random(19)
    alg = ba.pentagon()
    found = 0
    while found < 5:
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        for word in W.all_words(("a", "b"), 3):
            for run in W.enumerate_runs(automaton, word):
                if alg.is_zero(W.run_weight(automaton, word, run)):
                    continue
                found += 1
                for i in range(len(word) + 1):
                    assert not alg.is_zero(
                        W.mixed_prefix_product(automaton, word, run, i)
                    )
                break


def test_input_errors(b4_probe):
    _, automaton = b4_probe
    with pytest.raises(ValueError):
        W.run_semantics(automaton, ("delta",))
    with pytest.raises(ValueError):
        W.run_weight(automaton, ("gamma",), ("p",))  # too short
    with pytest.raises(ValueError):
        W.mixed_prefix_product(automaton, ("gamma",), ("p", "r"), 5)
    with pytest.raises(ValueError):
        W.probe_automaton(ba.b4(), 1, 1, 1, "gamma", ("delta",))


def test_word_automaton_construction_validation():
    alg = ba.boole()
    with pytest.raises(ValueError):
        W.WordAutomaton(alg, ("a",), (), (), (), [])
    with pytest.raises(ValueError):
        W.WordAutomaton(alg, ("a",), ("q", "q"), (1, 1), (1, 1), [])
    with pytest.raises(ValueError):
        W.WordAutomaton(alg, ("a",), ("q",), (1,), (1,), [("q", "b", "q", 1)])
