"""Weighted word automata over a strong bimonoid.

Two semantics are implemented side by side: the run semantics (sum over all
state sequences of the product of traversed weights) and the initial-algebra
semantics (left-to-right vector-matrix evolution of a state vector). Over a
non-distributive algebra they may disagree; comparing them is the point of
this package. A symbol's matrix is ``automaton.transitions[symbol]``, and
:func:`parse` reads a word from text, as ``trees.parse`` reads a tree.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import reduce
from operator import getitem
from typing import Iterator, Optional, Sequence

from . import algebra as A
from .algebra import CostProfile, CountingAlgebra, Semantics, WeightAlgebra, WeightedAutomaton
from .algebra import _configuration, _cost_profile, _images, _run_total

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

    kind = "word"

    def __init__(self, algebra: WeightAlgebra, alphabet, states, initial, final, transitions):
        super().__init__(algebra, states)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = tuple(alphabet)
        for a in self.alphabet:
            if not isinstance(a, str) or not a:
                raise ValueError(f"symbol {a!r} must be a nonempty string")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        self.initial = self._vector(initial)
        self.final = self._vector(final)
        self.transitions = self._matrices(transitions)
        # per symbol: the matrix's columns (init step) and each row's nonzero
        # entries as (target, weight) pairs (counted run step)
        zero = algebra.zero
        self._steps = {
            a: (tuple(zip(*m)), tuple(tuple((q, w) for q, w in enumerate(row) if w != zero) for row in m))
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

    def stored_transitions(self) -> Iterator[tuple]:
        """(from_state, symbol, to_state, weight) for every nonzero matrix
        entry, states by name: by symbol in alphabet order, then source,
        then target, in state order."""
        states = self.states
        for a in self.alphabet:
            for p, row in zip(states, self._steps[a][1]):
                for q, w in row:
                    yield p, a, states[q], w

    def _step(self, symbol) -> tuple:
        """(columns, nonzero successors per row) of ``symbol``."""
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


def parse(text: str, alphabet) -> tuple:
    """A word from text: whitespace/comma-separated symbol names, or a
    string of single-character symbols; empty text is the empty word."""
    text, symbols = text.strip(), set(alphabet)
    parts = text.replace(",", " ").split()
    if symbols.issuperset(parts):
        return tuple(parts)
    if symbols.issuperset(text):
        return tuple(text)
    raise ValueError(f"cannot read {text!r} as a word over alphabet {', '.join(alphabet)}")


def _normalize_run(automaton, run, length):
    states = tuple(automaton._run_state(q) for q in run)
    if len(states) != length + 1:
        raise ValueError(f"run has {len(states)} states, expected {length + 1}")
    return states


def run_weight(automaton: WordAutomaton, word: Word, run):
    """Weight of one run: initial, the traversed matrix entries, then final."""
    word = automaton.check_word(word)
    states = _normalize_run(automaton, run, len(word))
    return _run_weight(automaton, automaton.initial, [automaton.transitions[a] for a in word], states)


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

    By default this is the literal definition, as the tests' oracle
    ``conftest.literal_word_runs`` writes it out: runs in lexicographic
    order, each weighed as :func:`run_weight` multiplies it, the weights
    summed left to right. Outside the counting wrapper :func:`_run_fold`
    memoises that sum: about n·|B|²·|Q|² steps on a finite carrier B, up to
    ``algebra.RUN_MEMO_LIMIT`` memo entries. Under the wrapper every run is
    still multiplied out in full, so the counts are :func:`word_run_cost`
    exactly (the cost baseline). With ``prune`` the runs are counted instead
    of listed: a left-to-right sweep keeps, per state, how many runs reach
    it with each nonzero prefix weight, and the total folds each final value
    times its count. The value is the same because zero annihilates products
    and add is commutative and associative.
    """
    alg = automaton.algebra
    if not prune:
        word = automaton.check_word(word)
        matrices = [automaton.transitions[a] for a in word]
        if isinstance(alg, CountingAlgebra):
            runs = enumerate_runs(automaton, word)
            return alg.sum(_run_weight(automaton, automaton.initial, matrices, run) for run in runs)
        return _run_fold(automaton, matrices)
    runs = _run_start(automaton)
    for a in word:
        runs = _run_step(alg, runs, automaton._step(a)[1])
    return _run_total(alg, runs, automaton.final)


def _run_fold(automaton: WordAutomaton, matrices: list):
    """The literal run sum, folded depth first over the tree of run prefixes.

    A node at position i carries its prefix product and state p; its
    children multiply the prefix by row p of the next matrix, its leaves
    (i = n) by the final weight, and each leaf's weight is added to the
    running total. What a subtree adds depends only on (i, prefix, p, total
    on entry), so each such key is folded once per call and then looked up.
    Every add and mul takes the values the literal sum gives it, in its
    order, so the sum is the literal one on any table. The memo stops
    growing at ``algebra.RUN_MEMO_LIMIT`` entries, and the walk goes on as
    the plain enumeration with the lookups it has. Where keys never repeat
    (a running total that grows with every run) it gives up: if its first
    ``algebra.MEMO_MISS_LIMIT`` entries drew no hit, it is emptied and
    stores nothing more. It does not recurse.
    """
    alg = automaton.algebra
    add, mul, final = alg.add, alg.mul, automaton.final
    n, limit, no_hit_limit = len(matrices), A.RUN_MEMO_LIMIT, A.MEMO_MISS_LIMIT
    memo: dict = {}
    hit = False
    total = None
    # (memo key, position of the children, (state, prefix) of each child left)
    stack = [(None, 0, enumerate(automaton.initial))]
    while stack:
        key, i, children = stack[-1]
        for q, prefix in children:
            if i == n:
                x = mul(prefix, final[q])
                total = x if total is None else add(total, x)
                continue
            child = (i, prefix, q, total)
            done = memo.get(child)
            if done is None:
                stack.append((child, i + 1, enumerate(map(mul, itertools.repeat(prefix), matrices[i][q]))))
                break
            total, hit = done, True
        else:
            stack.pop()
            if key is not None and len(memo) < limit:
                memo[key] = total
                if len(memo) == no_hit_limit and not hit:
                    memo.clear()
                    limit = 0
    return alg.zero if total is None else total


def _run_start(automaton: WordAutomaton) -> list:
    """Counted runs of the empty prefix: one per nonzero initial weight."""
    zero = automaton.algebra.zero
    return [{} if w == zero else {w: 1} for w in automaton.initial]


def _run_step(alg: WeightAlgebra, runs: list, successors: tuple) -> list:
    """Counted runs one symbol on, from each state's nonzero successors."""
    mul, zero = alg.mul, alg.zero
    out: list = [{} for _ in runs]
    for weights, row in zip(runs, successors):
        for w, count in weights.items():
            for q, m in row:
                x = mul(w, m)
                if x != zero:
                    target = out[q]
                    target[x] = target.get(x, 0) + count
    return out


def _init_step(add, mul, vec: tuple, columns: tuple) -> tuple:
    """The vector times one matrix: |Q|^2 muls and |Q|(|Q|-1) adds."""
    return tuple([reduce(add, map(mul, vec, column)) for column in columns])


class _WordTable:
    """The init recursion's word steps between interned vectors, for one
    :func:`state_vector` call or one :func:`explore` walk.

    Each vector it holds has a node, a plain dict from symbol to the node of
    the step's result, so a hit hashes no vector; ``nodes`` maps a vector to
    its node, ``start`` is the initial one's, and ``vectors`` maps
    ``id(node)`` to its vector, written when the node is made. ``step(vector,
    symbol)`` runs on a miss only; a step depends on its arguments alone, so
    a hit gives what it would give. The table holds at most ``limit`` vectors
    (``algebra.MEMO_MISS_LIMIT``; 0 under the counting wrapper, so counted
    profiles see every operation): once it is full it stores no step again,
    and each later result gets a new node that stores nothing.
    """

    __slots__ = ("step", "start", "nodes", "vectors", "limit")

    def __init__(self, automaton: WordAutomaton):
        alg, start = automaton.algebra, automaton.initial
        add, mul = alg.add, alg.mul
        self.step = lambda vec, a: _init_step(add, mul, vec, automaton._step(a)[0])
        self.start: dict = {}
        self.nodes: dict = {start: self.start}
        self.vectors: dict = {id(self.start): start}
        self.limit = 0 if isinstance(alg, CountingAlgebra) else A.MEMO_MISS_LIMIT

    def word(self, node: dict, symbol) -> dict:
        """The node of ``node``'s vector times ``symbol``'s matrix. While the
        table has room a miss stores its step, to the node its result already
        has or a new one; once it is full each result gets a new node."""
        nxt = node.get(symbol)
        if nxt is None:
            vec = self.step(self.vectors[id(node)], symbol)
            if len(self.nodes) < self.limit:
                nxt = node[symbol] = self.nodes.setdefault(vec, {})
                self.vectors.setdefault(id(nxt), vec)
            else:
                nxt = {}
                self.vectors[id(nxt)] = vec
        return nxt


# state_vector's chunk sizes: doubled after a chunk walks through, reset on a miss
_CHUNK_LEAST, _CHUNK_MOST = 32, 8192


def state_vector(automaton: WordAutomaton, word: Word) -> tuple:
    """The evolved weight vector: initial vector times each symbol's matrix.

    The walk goes from node to node of a :class:`_WordTable` made for this
    call, ``reduce(getitem, chunk, node)`` a chunk of the word at a time, so
    a step already taken is a dict lookup in C; a chunk that meets a step the
    table lacks is walked again symbol by symbol, which computes and stores
    each missing step once and raises on an unknown symbol.
    On every finite carrier, and on an infinite one whenever the weights
    reach finitely many vectors (NatPlusMin), a long word then costs about a
    lookup per symbol. The table holds at most ``algebra.MEMO_MISS_LIMIT``
    vectors: where vectors stop repeating (NatPlusPlus, PolyMonome) it
    fills, and from the first step past it each step does its |Q|^2 muls
    and |Q|(|Q|-1) adds on the vector alone, as every step does under the
    counting wrapper.
    """
    table = _WordTable(automaton)
    if not isinstance(word, (tuple, list, str)):
        word = tuple(word)
    node, end, size = table.start, 0, _CHUNK_LEAST
    while end < len(word):
        chunk = word[end:end + size]
        end += len(chunk)
        try:
            node, size = reduce(getitem, chunk, node), min(2 * size, _CHUNK_MOST)
            continue
        except KeyError:
            size = _CHUNK_LEAST
        chunk = iter(chunk)
        for a in chunk:
            nxt = table.word(node, a)
            if a not in node:  # the table is full
                vec = table.vectors[id(nxt)]
                for a in itertools.chain(chunk, itertools.islice(word, end, None)):
                    vec = table.step(vec, a)
                return vec
            node = nxt
    return table.vectors[id(node)]


def initial_semantics(automaton: WordAutomaton, word: Word):
    alg = automaton.algebra
    return alg.sum(map(alg.mul, state_vector(automaton, word), automaton.final))


def explore(automaton: WordAutomaton, max_len: int, cycle: Optional[tuple] = None) -> Iterator[tuple]:
    """``(rank, word, run value, init value)`` for the least word, in
    :func:`all_words` order, of each configuration (``algebra._configuration``
    under ``cycle``) that words of length <= max_len reach;
    ``rank`` is that word's index there. The walk is breadth first, so rows
    come by rank: each configuration takes one init step per symbol, from a
    :class:`_WordTable` that the whole walk shares (configurations with
    different runs often share a vector, and an init step over TruncFun
    costs more than the lookup), and one counted step per symbol, and folds
    its values once. Run values are the pruned ones.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    alg, final, alphabet = automaton.algebra, automaton.final, automaton.alphabet
    table = _WordTable(automaton)
    vectors = table.vectors
    start = (0, (), table.start, _run_start(automaton))
    seen = {_configuration(automaton.initial, start[3], cycle)}
    queue = deque([start])
    while queue:
        rank, word, node, runs = queue.popleft()
        yield rank, word, _run_total(alg, runs, final), alg.sum(map(alg.mul, vectors[id(node)], final))
        if len(word) >= max_len:
            continue
        for i, a in enumerate(alphabet):
            # word + (a_i,) has rank k·rank + 1 + i in all_words order, k = |alphabet|
            step = (len(alphabet) * rank + 1 + i, word + (a,), table.word(node, a),
                    _run_step(alg, runs, automaton._step(a)[1]))
            key = _configuration(vectors[id(step[2])], step[3], cycle)
            if key not in seen:
                seen.add(key)
                queue.append(step)


def evaluate(automaton: WordAutomaton, word: Word, semantics: Semantics, prune: bool = False):
    if semantics is Semantics.RUN:
        return run_semantics(automaton, word, prune=prune)
    return initial_semantics(automaton, word)


def in_support(automaton: WordAutomaton, word: Word, semantics: Semantics) -> bool:
    return evaluate(automaton, word, semantics, prune=True) != automaton.algebra.zero


def all_words(alphabet, max_len: int) -> Iterator[tuple]:
    """Every word of length <= max_len, by length then alphabet order."""
    alphabet = tuple(alphabet)
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def images_up_to(automaton: WordAutomaton, max_len: int) -> dict:
    """Exact value sets of both semantics on all words of length <= max_len,
    keyed by :class:`Semantics`, each in first-seen order; one
    :func:`explore` walk with exact counts."""
    return _images(explore(automaton, max_len))


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


def word_run_cost(n_states: int, length: int) -> dict:
    """Closed-form operation counts for the unpruned run enumeration."""
    runs = n_states ** (length + 1)
    return {"muls": runs * (length + 1), "adds": runs - 1}


def word_init_cost(n_states: int, length: int) -> dict:
    """Exact counts for the vector-matrix evolution plus the final fold."""
    return {
        "muls": length * n_states * n_states + n_states,
        "adds": length * n_states * (n_states - 1) + (n_states - 1),
    }


def cost_profile(automaton: WordAutomaton, word: Word) -> CostProfile:
    """Evaluate both semantics under a counting wrapper and report totals next
    to the closed-form predictions."""
    word = automaton.check_word(word)
    n_states, size = len(automaton.states), len(word)
    predicted = {"run": word_run_cost(n_states, size), "init": word_init_cost(n_states, size)}
    return _cost_profile(automaton, word, evaluate, " ".join(word) or "<empty>", size, predicted)
