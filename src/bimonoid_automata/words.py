"""Weighted word automata over a strong bimonoid.

Two semantics are implemented side by side: the run semantics (sum over all
state sequences of the product of traversed weights) and the initial-algebra
semantics (left-to-right vector-matrix evolution of a state vector). Over a
non-distributive algebra they may disagree; comparing them is the point of
this package.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import Semantics, WeightAlgebra, WeightedAutomaton

Word = Sequence[str]


class WordAutomaton(WeightedAutomaton):
    """(states, initial vector, per-symbol matrices, final vector) over an algebra.

    ``initial``/``final`` may be given as sequences aligned with ``states`` or
    as mappings from state name to weight (missing entries are zero).
    ``transitions`` may be a mapping symbol -> |Q| x |Q| matrix or an iterable
    of (from_state, symbol, to_state, weight) quadruples; omitted entries are
    zero. Instances are immutable after construction.
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
        try:
            return self.transitions[symbol]
        except KeyError:
            raise ValueError(
                f"unknown symbol {symbol!r} (alphabet: {', '.join(self.alphabet)})"
            ) from None

    def check_word(self, word: Word) -> tuple:
        word = tuple(word)
        for a in word:
            if a not in self.transitions:
                raise ValueError(
                    f"unknown symbol {a!r} (alphabet: {', '.join(self.alphabet)})"
                )
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


def run_weight(automaton: WordAutomaton, word: Word, run, prune: bool = False):
    """Weight of one run: initial, the traversed matrix entries, then final."""
    alg = automaton.algebra
    word = automaton.check_word(word)
    states = _normalize_run(automaton, run, len(word))
    acc = automaton.initial[states[0]]
    for j, a in enumerate(word):
        if prune and alg.is_zero(acc):
            return alg.zero
        acc = alg.mul(acc, automaton.matrix(a)[states[j]][states[j + 1]])
    if prune and alg.is_zero(acc):
        return alg.zero
    return alg.mul(acc, automaton.final[states[-1]])


def enumerate_runs(automaton: WordAutomaton, word: Word) -> Iterator[tuple]:
    """All |Q|^(|w|+1) state sequences, lexicographic in state indices."""
    n = len(automaton.check_word(word))
    return itertools.product(range(len(automaton.states)), repeat=n + 1)


def run_semantics(automaton: WordAutomaton, word: Word, prune: bool = False):
    """Sum of run weights over every run, in lexicographic run order.

    By default every run is enumerated and multiplied out in full (this is
    the cost baseline). With ``prune`` a depth-first sweep drops zero-weight
    prefixes; the value is unchanged because zero annihilates products and is
    neutral for the sum.
    """
    alg = automaton.algebra
    word = automaton.check_word(word)
    if not prune:
        return alg.sum(
            run_weight(automaton, word, run) for run in enumerate_runs(automaton, word)
        )

    n = len(word)
    nq = len(automaton.states)
    mats = [automaton.matrix(a) for a in word]
    total = None

    def descend(j, q, acc):
        nonlocal total
        if j == n:
            final = alg.mul(acc, automaton.final[q])
            if not alg.is_zero(final):
                total = final if total is None else alg.add(total, final)
            return
        row = mats[j][q]
        for q2 in range(nq):
            step = alg.mul(acc, row[q2])
            if not alg.is_zero(step):
                descend(j + 1, q2, step)

    for q0 in range(nq):
        start = automaton.initial[q0]
        if not alg.is_zero(start):
            descend(0, q0, start)
    return alg.zero if total is None else total


def state_vector(automaton: WordAutomaton, word: Word) -> tuple:
    """The evolved weight vector: initial vector times each symbol's matrix."""
    alg = automaton.algebra
    word = automaton.check_word(word)
    nq = len(automaton.states)
    vec = automaton.initial
    for a in word:
        mat = automaton.matrix(a)
        vec = tuple(
            alg.sum(alg.mul(vec[p], mat[p][q]) for p in range(nq)) for q in range(nq)
        )
    return vec


def initial_semantics(automaton: WordAutomaton, word: Word):
    alg = automaton.algebra
    vec = state_vector(automaton, word)
    return alg.sum(alg.mul(vec[q], automaton.final[q]) for q in range(len(vec)))


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


def image_up_to(automaton: WordAutomaton, max_len: int, semantics: Semantics) -> list:
    """Exact value set on all words of length <= max_len, deduplicated by
    algebra equality, in first-seen order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    alg = automaton.algebra
    values: list = []
    for word in all_words(automaton.alphabet, max_len):
        v = evaluate(automaton, word, semantics, prune=True)
        if not any(alg.equal(v, seen) for seen in values):
            values.append(v)
    return values


def mixed_prefix_product(automaton: WordAutomaton, word: Word, run, i: int):
    """Hybrid of the two semantics along one run: the evolved vector entry for
    the length-i prefix, times the remaining traversed weights, times final.

    At i = 0 this is the plain run weight; at i = |w| it is h(w)_{q_n} * F_{q_n}.
    """
    alg = automaton.algebra
    word = automaton.check_word(word)
    states = _normalize_run(automaton, run, len(word))
    if not 0 <= i <= len(word):
        raise ValueError(f"index {i} out of range [0,{len(word)}]")
    acc = state_vector(automaton, word[:i])[states[i]]
    for j in range(i, len(word)):
        acc = alg.mul(acc, automaton.matrix(word[j])[states[j]][states[j + 1]])
    return alg.mul(acc, automaton.final[states[-1]])


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
