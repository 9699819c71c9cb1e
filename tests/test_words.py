import bisect
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import algebra
from bimonoid_automata import harness as H
from bimonoid_automata import words as W
from bimonoid_automata.algebra import CountingAlgebra, Semantics

from conftest import (
    bundled_carriers,
    count_init_steps,
    infinite_pools,
    literal_word_init,
    literal_word_runs,
    literal_word_vectors,
    nfa_accepts,
    nfa_as_boole_automaton,
    pool_word_automaton,
    small_strong_bimonoids,
)


@pytest.fixture(scope="module")
def b4_probe():
    alg = ba.b4()
    return alg, W.probe_automaton(alg, 2, 2, 2)


def test_empty_word_run_weight(b4_probe):
    alg, automaton = b4_probe
    for i, q in enumerate(automaton.states):
        expected = alg.mul(automaton.initial[i], automaton.final[i])
        assert W.run_weight(automaton, (), (automaton.state_index(q),)) == expected


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
    def run(*names):
        return tuple(automaton.state_index(q) for q in names)

    # the run through the first initial state picks up a, the unit step, then c
    assert W.run_weight(automaton, ("gamma",), run("p", "r")) == alg.mul(p, alg.parse("q"))
    assert W.run_weight(automaton, ("gamma",), run("q", "r")) == alg.mul(r, alg.parse("q"))
    assert W.run_weight(automaton, ("gamma",), run("p", "q")) == alg.zero


def test_runs_are_state_indices_even_for_integer_names():
    # states named 1 and 0, in that order: the run (1, 0) visits index 1
    # (the state named 0), then index 0 (the state named 1)
    alg = ba.nat_plus_min()
    automaton = W.WordAutomaton(alg, ("g",), (1, 0), {1: 2, 0: 7}, {1: 5, 0: 3},
                                [(1, "g", 0, 4), (0, "g", 1, 6)])
    assert W.run_weight(automaton, ("g",), (1, 0)) == 5  # min(7, 6, 5)
    by_name = (automaton.state_index(1), automaton.state_index(0))
    assert W.run_weight(automaton, ("g",), by_name) == 2  # min(2, 4, 3)
    named = W.probe_automaton(alg, 1, 2, 3)
    with pytest.raises(ValueError):
        W.run_weight(named, ("gamma",), ("p", "r"))


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
            assert W.run_semantics(automaton, ("gamma",)) == run_direct
            assert W.initial_semantics(automaton, ("gamma",)) == init_direct


def test_zero_transition_annihilates(b4_probe):
    alg, automaton = b4_probe
    # the run through r twice crosses an all-zero row
    r = automaton.state_index("r")
    assert W.run_weight(automaton, ("gamma", "gamma"), (r, r, r)) == alg.zero


def test_image_examples(b4_probe):
    alg, automaton = b4_probe
    images = W.images_up_to(automaton, 1)
    assert images[Semantics.RUN] == [alg.zero]  # a*c + b*c = 0 here
    assert images[Semantics.INIT] == [alg.zero, 2]
    # length 0: the single value sum_q I_q * F_q
    eps = W.initial_semantics(automaton, ())
    assert W.images_up_to(automaton, 0)[Semantics.INIT] == [eps]
    # no word has length <= -1, so explore refuses the bound, as images_up_to does
    assert list(W.all_words(automaton.alphabet, -1)) == []
    for walk in (W.images_up_to, lambda *args: list(W.explore(*args))):
        with pytest.raises(ValueError, match="^max_len must be >= 0$"):
            walk(automaton, -1)


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
                assert run == init, (alg.name, word)


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
                assert W.run_semantics(automaton, word) == W.run_semantics(automaton, word, prune=True)


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
    symbols, one of 5-6 symbols, whose run tree (up to 3^7 leaves) the
    unpruned fold's memo cuts, and one of 130-200 symbols: past 2 * 4^3 =
    128 steps some (vector, symbol) pair repeats, so the init memo hits."""
    n = draw(st.integers(2, 4))
    alg = ba.FiniteTableAlgebra(
        "skew", [f"e{i}" for i in range(n)], _skew_table(draw, n), _skew_table(draw, n), 0, 1
    )
    nq = draw(st.integers(1, 3))
    vec = st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq)
    matrices = {a: draw(st.lists(vec, min_size=nq, max_size=nq)) for a in "ab"}
    automaton = W.WordAutomaton(alg, "ab", [f"q{i}" for i in range(nq)], draw(vec), draw(vec), matrices)
    word, mid_word, long_word = (
        tuple(draw(st.lists(st.sampled_from("ab"), min_size=lo, max_size=hi)))
        for lo, hi in ((0, 4), (5, 6), (130, 200))
    )
    return automaton, word, mid_word, long_word


@settings(max_examples=300, deadline=None)
@given(skew_automata())
def test_literal_order_on_tables_that_break_the_axioms(case):
    # the enumerator sums runs in lexicographic order and multiplies each
    # left to right; init sums each column from the first state on, also
    # when its steps come from the memo
    automaton, word, mid_word, long_word = case
    assert W.run_semantics(automaton, word) == literal_word_runs(automaton, word)
    assert W.run_semantics(automaton, mid_word) == literal_word_runs(automaton, mid_word)
    assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)
    assert W.initial_semantics(automaton, long_word) == literal_word_init(automaton, long_word)


# (algebra, weight pool or None for all of a finite carrier, word length):
# PolyMonome's coefficients grow fastest, so its words are the shortest; the
# order-<=3 atlas adds non-commutative and cancelling carriers
MEMO_CASES = [
    pytest.param(alg, pool, length, id=alg.name)
    for alg, pool, length in (
        *((alg, None, 1000) for alg in ba.bundled_finite_algebras()),
        *((alg, None, 300) for alg in small_strong_bimonoids(2) + small_strong_bimonoids(3)),
        *((alg, pool, {"NatPlusMin": 1000, "NatPlusPlus": 200}.get(alg.name, 40)) for alg, pool in infinite_pools()),
    )
]


def _memo_automata(alg, pool, length):
    """Automata with 1, 2 and 3 states, each with three words of ``length``
    symbols: random, a block of a's then b's, and a repeated abb."""
    rng = random.Random(53)
    for n_states in (1, 2, 3):
        if pool is None:
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), n_states)
        else:
            automaton = pool_word_automaton(rng, alg, pool, n_states)
        words = (
            tuple(rng.choice("ab") for _ in range(length)),
            ("a",) * (length * 7 // 10) + ("b",) * (length * 3 // 10),
            ("a", "b", "b") * (length // 3),
        )
        yield automaton, words


@pytest.mark.parametrize("alg, pool, length", MEMO_CASES)
def test_memoised_init_matches_literal_fold(alg, pool, length, monkeypatch):
    # each (vector, symbol) step runs once per call. Over a finite carrier, and
    # over NatPlusMin, whose values stay bounded, a long word revisits vectors,
    # so most steps are memo hits; over NatPlusPlus and PolyMonome they do not
    # repeat, and the memo must still give the literal values
    calls = count_init_steps(monkeypatch)
    for automaton, words in _memo_automata(alg, pool, length):
        for word in words:
            vecs = literal_word_vectors(automaton, word)
            calls.clear()
            assert W.state_vector(automaton, word) == vecs[-1]
            assert len(calls) == len(set(zip(vecs, word)))
            if alg.is_finite or alg.name == "NatPlusMin":
                assert len(calls) < len(word)
            assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)
        for _, word, _, init in W.explore(automaton, 6 if pool is None else 4):
            assert init == literal_word_init(automaton, word)


@pytest.mark.parametrize("alg, pool", [pytest.param(*case, id=case[0].name) for case in infinite_pools()])
def test_bypassed_memo_keeps_literal_values(alg, pool, monkeypatch):
    # once the table holds MEMO_MISS_LIMIT vectors every later step takes the
    # plain recursion: at a limit of 4 most words fill it
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", 4)
    for automaton, words in _memo_automata(alg, pool, 40):
        for word in words:
            assert W.state_vector(automaton, word) == literal_word_vectors(automaton, word)[-1]
            assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)
        for _, word, _, init in W.explore(automaton, 4):
            assert init == literal_word_init(automaton, word)


@pytest.mark.parametrize("limit, word, steps", [
    (4, "a" * 40, 40),
    (5, "a" * 40, 4),
    (algebra.MEMO_MISS_LIMIT, "a" * 40, 4),
    (5, "a" * 8 + "ba" * 16, 8),
])
def test_memo_gives_up_after_the_miss_limit(limit, word, steps, monkeypatch):
    # a moves the one entry round a 4-cycle of vectors, b keeps it: "a" * 40
    # makes four misses, then only hits, unless the four vectors fill the table
    # and every later step is recomputed; in the last word b's four misses
    # reach no new vector, so the table still holds 4
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", limit)
    calls = count_init_steps(monkeypatch)
    cycle = [[int(q == (p + 1) % 4) for q in range(4)] for p in range(4)]
    identity = [[int(q == p) for q in range(4)] for p in range(4)]
    automaton = W.WordAutomaton(
        ba.boole(), ("a", "b"), "pqrs", (1, 0, 0, 0), (0, 0, 0, 1), {"a": cycle, "b": identity}
    )
    assert W.initial_semantics(automaton, tuple(word)) == literal_word_init(automaton, tuple(word))
    assert len(calls) == steps


def test_memo_on_growing_values_keeps_the_plain_memory():
    # over NatPlusPlus, with initial (1, 1), a (every weight the natural 0)
    # doubles both entries and c (0 on the diagonal, the adjoined zero off it)
    # keeps them, so no vector repeats and they reach 2·10^4 bits: a memo of
    # every vector would hold about 50 MB, the plain recursion holds one vector.
    # In the second word each repeated c step is a hit between misses
    z = algebra.ADJOINED_ZERO
    automaton = W.WordAutomaton(
        ba.nat_plus_plus(), ("a", "c"), ("p", "q"), (1, 1), (0, 0), {"a": [[0, 0], [0, 0]], "c": [[0, z], [z, 0]]}
    )
    for word, value in ((("a",) * 20000, 2**20001), (("a", "c", "c") * 7000, 2**7001)):
        tracemalloc.start()
        try:
            assert W.initial_semantics(automaton, word) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == literal_word_init(automaton, word)
        assert peak < 4 * 2**20, (len(word), peak)


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
    calls = count_init_steps(monkeypatch)
    plain_value = W.initial_semantics(automaton, word)
    assert len(calls) < n
    calls.clear()
    assert W.initial_semantics(counted, word) == plain_value
    assert len(calls) == n
    assert counting.read_counts() == (6 * n + 2, 9 * n + 3)


def _table_steps(vecs: list, word, limit: int) -> int:
    """The init steps a word table takes on ``word``, whose literal vectors
    are ``vecs``: each (vector, symbol) step once while the table holds fewer
    than ``limit`` vectors, then, from the first step it cannot store, one
    plain step per symbol left."""
    held, stored = {vecs[0]}, set()
    for i, step in enumerate(zip(vecs, word)):
        if step in stored:
            continue
        if len(held) >= limit:
            return len(stored) + len(word) - i
        stored.add(step)
        held.add(vecs[i + 1])
    return len(stored)


def _walked_chunks(monkeypatch) -> list:
    """Record the length of every chunk that state_vector walks through the
    table's nodes, whether it walks through or meets a miss."""
    chunks: list = []
    plain = W.reduce

    def reduce(fn, items, *start):
        if fn is operator.getitem:
            chunks.append(len(items))
        return plain(fn, items, *start)

    monkeypatch.setattr(W, "reduce", reduce)
    return chunks


@pytest.mark.parametrize("alg, length", [
    pytest.param(alg, length, id=f"{alg.name}-{length}")
    for alg in (ba.pentagon(), ba.b4()) for length in (10**4, 10**5)
])
def test_a_late_new_step_in_a_chunk_of_the_most_symbols(alg, length, monkeypatch):
    # 9/10 of the word is a's: their vectors soon cycle, the chunks walk
    # through and double up to the most, and the first b, 9,000 or 90,000
    # symbols in, is a step the table lacks, deep inside such a chunk; that
    # chunk is walked again symbol by symbol, and random symbols follow
    automaton = pool_word_automaton(random.Random(33), alg, list(alg.elements()), 3)
    rng = random.Random(length)
    first_b = length * 9 // 10
    word = ("a",) * first_b + ("b",) + tuple(rng.choice("ab") for _ in range(length - first_b - 1))
    vecs = literal_word_vectors(automaton, word)
    calls = count_init_steps(monkeypatch)
    chunks = _walked_chunks(monkeypatch)
    assert W.state_vector(automaton, word) == vecs[-1]
    assert len(calls) == len(set(zip(vecs, word)))
    assert sum(chunks) == length
    # the chunk before the one holding the first b walked through at half
    # the most symbols or more, so that one was cut at the most, or at the
    # word's end, and the b is neither its first symbol nor its last
    starts = list(itertools.accumulate(chunks, initial=0))
    k = bisect.bisect_right(starts, first_b) - 1
    assert 2 * chunks[k - 1] >= W._CHUNK_MOST
    assert chunks[k] == min(W._CHUNK_MOST, length - starts[k])
    assert starts[k] < first_b < starts[k + 1] - 1


def _cycle_automaton(k: int) -> W.WordAutomaton:
    """Boole, four states, initial vector e0: a moves the one entry round a
    k-cycle of the first k states, and c maps every vector to zero."""
    cycle = [[int(q == (p + 1) % k if p < k else q == p) for q in range(4)] for p in range(4)]
    zero = [[0] * 4 for _ in range(4)]
    return W.WordAutomaton(ba.boole(), ("a", "c"), "pqrs", (1, 0, 0, 0), (1, 1, 1, 1), {"a": cycle, "c": zero})


@pytest.mark.parametrize("limit", [2, 3, 4])
def test_a_table_that_fills_inside_a_chunk(limit, monkeypatch):
    # at a limit of 2 to 4 vectors the table fills on one of the steps it
    # lacks, inside the chunk being walked again: the rest of that chunk and
    # of the word take plain steps. In the last word the a-cycle leaves room
    # for one vector, and c fills the table 9,000 symbols in
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", limit)
    calls = count_init_steps(monkeypatch)
    cases = [
        *(case for alg in ba.bundled_finite_algebras() for case in _memo_automata(alg, None, 300)),
        *(case for alg, pool in infinite_pools() for case in _memo_automata(alg, pool, 40)),
        (_cycle_automaton(limit - 1), (("a",) * 9000 + ("c",) + ("a",) * 999,)),
    ]
    for automaton, words in cases:
        for word in words:
            vecs = literal_word_vectors(automaton, word)
            calls.clear()
            assert W.state_vector(automaton, word) == vecs[-1]
            assert len(calls) == _table_steps(vecs, word, limit)
            assert W.initial_semantics(automaton, word) == literal_word_init(automaton, word)


@pytest.mark.parametrize("limit", [algebra.MEMO_MISS_LIMIT, 0])
@pytest.mark.parametrize("where", [0, 50_000, 10**5 - 1])
def test_an_unknown_symbol_raises_wherever_it_stands(where, limit, monkeypatch):
    # first, in the middle and last of a 10^5-symbol word, through a table
    # with room and through one full from the start (every step plain)
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", limit)
    automaton = pool_word_automaton(random.Random(33), ba.pentagon(), list(ba.pentagon().elements()), 3)
    rng = random.Random(where)
    word = [rng.choice("ab") for _ in range(10**5)]
    for bad, error, message in (("c", ValueError, r"^unknown symbol 'c' \(alphabet: a, b\)$"),
                                (["a"], TypeError, "unhashable type: 'list'")):
        word[where] = bad
        with pytest.raises(error, match=message):
            W.state_vector(automaton, word)
        with pytest.raises(error, match=message):
            W.initial_semantics(automaton, tuple(word))


@pytest.mark.parametrize("limit", [algebra.MEMO_MISS_LIMIT, 3])
def test_a_word_as_a_list_a_string_or_an_iterator(limit, monkeypatch):
    # at a limit of 3 the table fills early, and the rest of the word is
    # read past the chunk it filled in, from the word as given
    monkeypatch.setattr(algebra, "MEMO_MISS_LIMIT", limit)
    automaton = pool_word_automaton(random.Random(33), ba.pentagon(), list(ba.pentagon().elements()), 3)
    rng = random.Random(33)
    word = tuple(rng.choice("ab") for _ in range(10**4))
    expected = literal_word_vectors(automaton, word)[-1]
    for given in (word, list(word), "".join(word), iter(word), (a for a in word)):
        assert W.state_vector(automaton, given) == expected, type(given)


def test_deterministic_evaluation(b4_probe):
    _, automaton = b4_probe
    w = ("gamma",)
    assert W.run_semantics(automaton, w) == W.run_semantics(automaton, w)
    assert W.initial_semantics(automaton, w) == W.initial_semantics(automaton, w)


def test_exact_cost_counts():
    # criterion 11 on every bundled carrier: under the counting wrapper the
    # enumerator multiplies every run out in full and init takes every step;
    # the memoised fold outside it gives the literal value
    rng = random.Random(3)
    for alg, pool in bundled_carriers():
        pool = [x for x in pool if x != alg.zero]
        for n_states in (1, 2, 3):
            automaton = pool_word_automaton(rng, alg, pool, n_states)
            for n in range(0, 5):
                word = tuple(rng.choice("ab") for _ in range(n))
                profile = H.cost_profile(automaton, word)
                assert profile.run_counts == profile.predicted["run"] == W.word_run_cost(n_states, n)
                assert profile.init_counts == profile.predicted["init"] == W.word_init_cost(n_states, n)
                literal = literal_word_runs(automaton, word)
                assert W.run_semantics(automaton, word) == literal, (alg.name, word)
                assert profile.run_value == alg.describe(literal)


def test_literal_enumerator_on_one_run_of_a_long_word():
    # one state: a single run of 10^5 + 1 factors, which the prefix products
    # must multiply without recursion
    alg = ba.nat_plus_min()
    automaton = W.WordAutomaton(alg, ("a", "b"), ("p",), (40,), (30,), {"a": [[25]], "b": [[7]]})
    rng = random.Random(29)
    word = tuple(rng.choice("ab") for _ in range(10**5))
    assert W.run_semantics(automaton, word) == literal_word_runs(automaton, word) == 7


@pytest.mark.parametrize("alg, pool", [
    *(pytest.param(alg, None, id=alg.name) for alg in ba.bundled_finite_algebras()),
    *(pytest.param(alg, pool, id=alg.name) for alg, pool in infinite_pools()),
])
def test_bounded_run_memo_keeps_literal_values(alg, pool, monkeypatch):
    # the unpruned fold stops storing subtree totals at RUN_MEMO_LIMIT
    # entries and walks on as the plain enumeration, with the lookups it has
    monkeypatch.setattr(algebra, "RUN_MEMO_LIMIT", 3)
    rng = random.Random(37)
    for n_states in (1, 2, 3):
        if pool is None:
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), n_states)
        else:
            automaton = pool_word_automaton(rng, alg, pool, n_states)
        for n in range(7):
            word = tuple(rng.choice("ab") for _ in range(n))
            assert W.run_semantics(automaton, word) == literal_word_runs(automaton, word), (alg.name, word)


def test_run_fold_without_memo_is_the_plain_walk(monkeypatch):
    # at a bound of 0 the fold multiplies each node of the run tree once, as
    # the plain depth-first enumeration does: 3^2 + ... + 3^5 prefix products
    # on a 4-symbol word, then 3^5 final ones; with the memo it does fewer
    alg = ba.pentagon()
    automaton = W.WordAutomaton(alg, "a", "pqr", [2, 3, 4], [2, 3, 4], {"a": [[2, 3, 4], [3, 4, 2], [4, 2, 3]]})
    word = ("a",) * 4
    calls = []
    plain = alg.mul
    monkeypatch.setattr(alg, "mul", lambda x, y: calls.append(1) or plain(x, y))
    memoised = W.run_semantics(automaton, word)
    memoised_muls = len(calls)
    calls.clear()
    monkeypatch.setattr(algebra, "RUN_MEMO_LIMIT", 0)
    assert W.run_semantics(automaton, word) == memoised
    assert len(calls) == 9 + 27 + 81 + 243 + 243 > memoised_muls
    assert memoised == literal_word_runs(automaton, word)


def test_run_fold_drops_a_memo_that_never_hits():
    # over NatPlusPlus the running total grows with every run, so no subtree
    # key repeats: after MEMO_MISS_LIMIT stores with no hit the fold empties
    # its memo and walks on as the plain enumeration, in constant memory
    alg = ba.nat_plus_plus()
    rng = random.Random(1)
    draw = lambda: rng.randint(0, 5)
    automaton = W.WordAutomaton(alg, "ab", "pqr", [draw() for _ in "pqr"], [draw() for _ in "pqr"],
                                {a: [[draw() for _ in "pqr"] for _ in "pqr"] for a in "ab"})
    word = tuple(rng.choice("ab") for _ in range(10))
    tracemalloc.start()
    try:
        value = W.run_semantics(automaton, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert value == literal_word_runs(automaton, word)


@pytest.mark.parametrize("alg", [pytest.param(alg, id=alg.name) for alg in ba.bundled_finite_algebras()])
def test_unpruned_run_fold_scales_with_the_word(alg):
    # 3^201 runs: the memoised fold takes each (position, prefix, state,
    # total) once, so a finite carrier gives the pruned value in milliseconds
    rng = random.Random(41)
    pool = [x for x in alg.elements() if x != alg.zero]
    automaton = pool_word_automaton(rng, alg, pool, 3)
    word = tuple(rng.choice("ab") for _ in range(200))
    assert W.run_semantics(automaton, word) == W.run_semantics(automaton, word, prune=True)


def test_mixed_prefix_product_boundaries():
    rng = random.Random(17)
    for alg in (ba.b4(), ba.pentagon()):
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        word = ("a", "b", "a")
        for run in itertools.islice(W.enumerate_runs(automaton, word), 0, 30, 7):
            full = W.run_weight(automaton, word, run)
            assert W.mixed_prefix_product(automaton, word, run, 0) == full
            vec = W.state_vector(automaton, word)
            end = alg.mul(vec[run[-1]], automaton.final[run[-1]])
            assert W.mixed_prefix_product(automaton, word, run, len(word)) == end


def test_mixed_prefix_product_nonzero_chain_on_pentagon():
    # along any run with nonzero weight, every hybrid stage stays nonzero
    rng = random.Random(19)
    alg = ba.pentagon()
    found = 0
    while found < 5:
        automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
        for word in W.all_words(("a", "b"), 3):
            for run in W.enumerate_runs(automaton, word):
                if W.run_weight(automaton, word, run) == alg.zero:
                    continue
                found += 1
                for i in range(len(word) + 1):
                    assert W.mixed_prefix_product(automaton, word, run, i) != alg.zero
                break


def test_input_errors(b4_probe):
    _, automaton = b4_probe
    with pytest.raises(ValueError):
        W.run_semantics(automaton, ("delta",))
    with pytest.raises(ValueError):
        W.run_weight(automaton, ("gamma",), ("p",))  # a name, not an index
    with pytest.raises(ValueError, match="^run has 1 states, expected 2$"):
        W.run_weight(automaton, ("gamma",), (0,))
    with pytest.raises(ValueError):
        W.mixed_prefix_product(automaton, ("gamma",), (0, 2), 5)
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
    with pytest.raises(ValueError, match="^weight vector has 2 entries, expected 1$"):
        W.WordAutomaton(alg, ("a",), ("q",), (1, 1), (1,), [])
    # the symbols RankedAlphabet, the file format and the tree bridge accept
    with pytest.raises(ValueError, match="^symbol '' must be a nonempty string$"):
        W.WordAutomaton(ba.b4(), ("", "a"), ("q",), (1,), (1,), [])
    with pytest.raises(ValueError, match="^symbol 1 must be a nonempty string$"):
        W.WordAutomaton(alg, ("a", 1), ("q",), (1,), (1,), [])
    with pytest.raises(ValueError, match="^unknown symbol 'b'$"):
        W.WordAutomaton(alg, ("a",), ("q",), (1,), (1,), {"b": ((1,),)})
    with pytest.raises(ValueError, match="^matrix for 'a' is not 1x1$"):
        W.WordAutomaton(alg, ("a",), ("q",), (1,), (1,), {"a": ((1, 1),)})
