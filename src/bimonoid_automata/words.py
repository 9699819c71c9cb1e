"""Weighted word automata over a strong bimonoid.

Two semantics are implemented side by side: the run semantics (sum over all
state sequences of the product of traversed weights) and the initial-algebra
semantics (left-to-right vector-matrix evolution of a state vector). Over a
non-distributive algebra they may disagree; comparing them is the point of
this package.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import Semantics, WeightAlgebra, WeightedAutomaton, _images, _run_total, _table_memo

Word = Sequence[str]


class WordAutomaton(WeightedAutomaton):
    """(states, initial vector, per-symbol matrices, final vector) over an algebra.

    ``initial``/``final`` may be given as sequences aligned with ``states`` or
    as mappings from state name to weight (missing entries are zero).
    ``transitions`` may be a mapping symbol -> |Q| x |Q| matrix or an iterable
    of (from_state, symbol, to_state, weight) quadruples; omitted entries are
    zero. :meth:`stored_transitions` hands back the nonzero entries as such
    quadruples, so a rebuild or a conversion filters or maps that stream.
    Instances are immutable after construction.
    """

    def __init__(self, algebra: WeightAlgebra, alphabet, states, initial, final, transitions):
        super().__init__(algebra, states)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        self.initial = self._vector(initial)
        self.final = self._vector(final)
        self.transitions = self._matrices(transitions)
        # per symbol: the matrix, its columns (init step) and each row's
        # nonzero entries as (target, weight) pairs (counted run step)
        is_zero = algebra.is_zero
        self._steps = {
            a: (
                m,
                tuple(zip(*m)),
                tuple(tuple((q, w) for q, w in enumerate(row) if not is_zero(w)) for row in m),
            )
            for a, m in self.transitions.items()
        }

    def _matrices(self, data):
        n = len(self.states)
        zero_row = (self.algebra.zero,) * n
        mats = {a: [list(zero_row) for _ in range(n)] for a in self.alphabet}
        if isinstance(data, dict):
            for sym, matrix in data.items():
                if sym not in mats:
                    raise ValueError(f"unknown symbol {sym!r}")
                if len(matrix) != n or any(len(row) != n for row in matrix):
                    raise ValueError(f"matrix for {sym!r} is not {n}x{n}")
                mats[sym] = [list(row) for row in matrix]
        else:
            for src, sym, dst, w in data:
                if sym not in mats:
                    raise ValueError(f"unknown symbol {sym!r}")
                mats[sym][self.state_index(src)][self.state_index(dst)] = w
        return {a: tuple(tuple(row) for row in m) for a, m in mats.items()}

    def matrix(self, symbol):
        return self._step(symbol)[0]

    def stored_transitions(self) -> Iterator[tuple]:
        """(from_state, symbol, to_state, weight) for every nonzero matrix
        entry, states by name: by symbol in alphabet order, then source,
        then target, in state order."""
        states = self.states
        for a in self.alphabet:
            for p, row in zip(states, self._steps[a][2]):
                for q, w in row:
                    yield p, a, states[q], w

    def _step(self, symbol) -> tuple:
        """(matrix, columns, nonzero successors per row) of ``symbol``."""
        try:
            return self._steps[symbol]
        except KeyError:
            raise ValueError(
                f"unknown symbol {symbol!r} (alphabet: {', '.join(self.alphabet)})"
            ) from None

    def check_word(self, word: Word) -> tuple:
        word = tuple(word)
        for a in word:
            self._step(a)
        return word

    def with_algebra(self, algebra: WeightAlgebra) -> "WordAutomaton":
        """Rebind to another algebra over the same element representation."""
        return WordAutomaton(
            algebra, self.alphabet, self.states, self.initial, self.final, self.transitions
        )

    def __repr__(self):
        return (
            f"<WordAutomaton |Q|={len(self.states)} alphabet={self.alphabet} "
            f"over {self.algebra.name}>"
        )


def _normalize_run(automaton, run, length):
    states = tuple(automaton._run_state(q) for q in run)
    if len(states) != length + 1:
        raise ValueError(f"run has {len(states)} states, expected {length + 1}")
    return states


def run_weight(automaton: WordAutomaton, word: Word, run):
    """Weight of one run: initial, the traversed matrix entries, then final."""
    matrices = [automaton.matrix(a) for a in word]
    states = _normalize_run(automaton, run, len(matrices))
    return _run_weight(automaton, automaton.initial, matrices, states)


def _run_weight(automaton: WordAutomaton, start: tuple, matrices: list, states) -> object:
    """start[q0]·M1[q0][q1]·…·Mn[q(n-1)][qn]·final[qn], multiplied left to
    right, for a normalised run over resolved matrices; ``start`` is the
    initial vector for a plain run weight."""
    mul = automaton.algebra.mul
    it = iter(states)
    p = next(it)
    acc = start[p]
    for m, q in zip(matrices, it):
        acc = mul(acc, m[p][q])
        p = q
    return mul(acc, automaton.final[p])


def enumerate_runs(automaton: WordAutomaton, word: Word) -> Iterator[tuple]:
    """All |Q|^(|w|+1) state sequences, lexicographic in state indices."""
    n = len(automaton.check_word(word))
    return itertools.product(range(len(automaton.states)), repeat=n + 1)


def run_semantics(automaton: WordAutomaton, word: Word, prune: bool = False):
    """Sum of run weights over every run.

    By default every run is enumerated in lexicographic order and multiplied
    out in full (this is the cost baseline); the word is checked and its
    matrices looked up once per call, not once per run. With ``prune`` the
    runs are counted instead of listed: a left-to-right sweep keeps, per
    state, how many runs reach it with each nonzero prefix weight, and the
    total folds each final value times its count. The value is the same
    because zero annihilates products and add is commutative and associative.
    """
    alg = automaton.algebra
    if not prune:
        word = tuple(word)
        runs = enumerate_runs(automaton, word)  # checks the word
        matrices = [automaton.transitions[a] for a in word]
        return alg.sum(_run_weight(automaton, automaton.initial, matrices, run) for run in runs)
    runs = _run_start(automaton)
    for a in word:
        runs = _run_step(alg, runs, automaton._step(a)[2])
    return _run_total(alg, runs, automaton.final)


def _run_start(automaton: WordAutomaton) -> list:
    """Counted runs of the empty prefix: one per nonzero initial weight."""
    is_zero = automaton.algebra.is_zero
    return [{} if is_zero(w) else {w: 1} for w in automaton.initial]


def _run_step(alg: WeightAlgebra, runs: list, successors: tuple) -> list:
    """Counted runs one symbol on, from each state's nonzero successors."""
    mul, is_zero = alg.mul, alg.is_zero
    out: list = [{} for _ in runs]
    for weights, row in zip(runs, successors):
        for w, count in weights.items():
            for q, m in row:
                x = mul(w, m)
                if not is_zero(x):
                    target = out[q]
                    target[x] = target.get(x, 0) + count
    return out


def _init_step(add, mul, vec: tuple, columns: tuple) -> tuple:
    """The vector times one matrix: |Q|^2 muls and |Q|(|Q|-1) adds."""
    return tuple([reduce(add, map(mul, vec, column)) for column in columns])


def _init_steps(automaton: WordAutomaton):
    """``step(vec, symbol)``: the vector times the symbol's matrix, memoised
    per (vector, symbol) over a finite table (see ``algebra._table_memo``)."""
    add, mul = automaton.algebra.add, automaton.algebra.mul
    return _table_memo(
        automaton.algebra, lambda vec, a: _init_step(add, mul, vec, automaton._step(a)[1])
    )


def state_vector(automaton: WordAutomaton, word: Word) -> tuple:
    """The evolved weight vector: initial vector times each symbol's matrix.

    Over a :class:`~.algebra.FiniteTableAlgebra` each (vector, symbol) step
    is computed once per call, so a long word costs about a lookup per
    symbol; over any other algebra, the counting wrapper included, every
    step does its |Q|^2 muls and |Q|(|Q|-1) adds.
    """
    step = _init_steps(automaton)
    vec = automaton.initial
    for a in word:
        vec = step(vec, a)
    return vec


def initial_semantics(automaton: WordAutomaton, word: Word):
    alg = automaton.algebra
    return alg.sum(map(alg.mul, state_vector(automaton, word), automaton.final))


def values(automaton: WordAutomaton, words: Iterable[Word]) -> Iterator[tuple]:
    """``(word, run value, init value)`` for each word, in order.

    Run values are the pruned (counted) ones. The evolved vector and the
    counted runs of every prefix evaluated are kept in a trie while the
    stream lives, so a word costs one init step and one counted step per
    symbol past its longest prefix seen before: one of each when the words
    are prefix-closed and shortest first, as :func:`all_words` lists them.
    The init steps share one memo per stream, as in :func:`state_vector`.
    """
    alg = automaton.algebra
    mul, final = alg.mul, automaton.final
    init_step = _init_steps(automaton)
    root = (automaton.initial, _run_start(automaton), {})
    for word in words:
        node = root
        for a in word:
            child = node[2].get(a)
            if child is None:
                child = (init_step(node[0], a), _run_step(alg, node[1], automaton._step(a)[2]), {})
                node[2][a] = child
            node = child
        yield word, _run_total(alg, node[1], final), alg.sum(map(mul, node[0], final))


def evaluate(automaton: WordAutomaton, word: Word, semantics: Semantics, prune: bool = False):
    if semantics is Semantics.RUN:
        return run_semantics(automaton, word, prune=prune)
    return initial_semantics(automaton, word)


def in_support(automaton: WordAutomaton, word: Word, semantics: Semantics) -> bool:
    return not automaton.algebra.is_zero(evaluate(automaton, word, semantics, prune=True))


def all_words(alphabet, max_len: int) -> Iterator[tuple]:
    """Every word of length <= max_len, by length then alphabet order."""
    alphabet = tuple(alphabet)
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def images_up_to(automaton: WordAutomaton, max_len: int) -> dict:
    """Exact value sets of both semantics on all words of length <= max_len,
    keyed by :class:`Semantics`, each in first-seen order; one pass of
    :func:`values`."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    return _images(values(automaton, all_words(automaton.alphabet, max_len)))


def mixed_prefix_product(automaton: WordAutomaton, word: Word, run, i: int):
    """Hybrid of the two semantics along one run: the evolved vector entry for
    the length-i prefix, times the remaining traversed weights, times final.

    At i = 0 this is the plain run weight; at i = |w| it is h(w)_{q_n} * F_{q_n}.
    """
    word = automaton.check_word(word)
    states = _normalize_run(automaton, run, len(word))
    if not 0 <= i <= len(word):
        raise ValueError(f"index {i} out of range [0,{len(word)}]")
    matrices = [automaton.transitions[a] for a in word[i:]]
    return _run_weight(automaton, state_vector(automaton, word[:i]), matrices, states[i:])


def probe_automaton(
    algebra: WeightAlgebra, a, b, c, symbol: str = "gamma", alphabet=None
) -> WordAutomaton:
    """Three-state automaton separating the two semantics on one symbol.

    Two initial states (weights a and b) both step to a final state (weight c)
    on ``symbol``; everything else is zero. Its run semantics on the
    one-symbol word is a*c + b*c while the initial-algebra semantics is
    (a+b)*c, so over a non-right-distributive algebra the two values differ,
    and over algebras that are not strongly zero-sum-free the supports can
    differ too.
    """
    if alphabet is None:
        alphabet = (symbol,)
    if symbol not in alphabet:
        raise ValueError(f"symbol {symbol!r} not in alphabet {tuple(alphabet)!r}")
    one = algebra.one
    return WordAutomaton(
        algebra,
        alphabet,
        states=("p", "q", "r"),
        initial=(a, b, algebra.zero),
        final=(algebra.zero, algebra.zero, c),
        transitions=[("p", symbol, "r", one), ("q", symbol, "r", one)],
    )
