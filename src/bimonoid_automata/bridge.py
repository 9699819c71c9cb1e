"""Words as unary-spine trees, and semantics-preserving automaton conversions.

A word a1..an becomes the tree an(...(a1(end))...): the end marker is the
single nullary symbol, the first letter sits just above it, and evaluation
therefore ascends the spine in the same order the word automaton's state
vector evolves. Both conversions preserve run and initial-algebra semantics
composed with this encoding; the test suite exercises that contract directly.
Each conversion maps the (from, symbol, to, weight) stream that the source
automaton's ``stored_transitions`` hands out, with states by name, into the
quadruples the target's constructor takes; neither reads a matrix or a
single transition weight.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .trees import RankedAlphabet, Tree, TreeAutomaton, classify_alphabet
from .words import WordAutomaton


def string_alphabet(symbols: Sequence[str], end_marker: str = "e") -> RankedAlphabet:
    """The string ranked alphabet: one nullary end marker, the rest unary."""
    symbols = tuple(symbols)
    if end_marker in symbols:
        raise ValueError(f"end marker {end_marker!r} collides with the alphabet")
    ranks = {end_marker: 0}
    ranks.update({a: 1 for a in symbols})
    return RankedAlphabet(ranks)


def word_to_tree(word: Sequence[str], end_marker: str = "e") -> Tree:
    """a1..an  ->  an(...(a1(end))...); the empty word is the bare end marker."""
    t = Tree(end_marker)
    for a in word:
        t = Tree(a, (t,))
    return t


def tree_to_word(t: Tree, end_marker: Optional[str] = None) -> Tuple[str, ...]:
    """Inverse of word_to_tree: read the unary spine from the leaf upward."""
    rev = []
    while t.children:
        if len(t.children) != 1:
            raise ValueError(f"{t} is not a unary spine")
        rev.append(t.symbol)
        t = t.children[0]
    if end_marker is not None and t.symbol != end_marker:
        raise ValueError(f"spine ends in {t.symbol!r}, expected {end_marker!r}")
    return tuple(reversed(rev))


def wsa_to_wta(automaton: WordAutomaton, end_marker: str = "e") -> TreeAutomaton:
    """Word automaton -> tree automaton over the string ranked alphabet.

    The initial vector becomes the end marker's nullary weights, each stored
    transition becomes a unary one, and final weights become root weights.
    """
    alg = automaton.algebra
    quads = [
        ((), end_marker, q, w)
        for q, w in zip(automaton.states, automaton.initial)
        if w != alg.zero
    ]
    quads += [((p,), a, q, w) for p, a, q, w in automaton.stored_transitions()]
    alphabet = string_alphabet(automaton.alphabet, end_marker)
    return TreeAutomaton(alg, alphabet, automaton.states, quads, automaton.final)


def string_wta_to_wsa(automaton: TreeAutomaton) -> WordAutomaton:
    """Tree automaton over a string ranked alphabet -> word automaton.

    Nullary weights of the end marker become the initial vector, unary
    transitions become word transitions, root weights become final weights.
    """
    cls = classify_alphabet(automaton.alphabet)
    if not cls.string_ranked:
        raise ValueError("conversion needs a string ranked alphabet")
    end_marker = automaton.alphabet.of_rank(0)[0]
    transitions = list(automaton.stored_transitions())
    initial = {q: w for _, sym, q, w in transitions if sym == end_marker}
    quads = [(sw[0], sym, q, w) for sw, sym, q, w in transitions if sym != end_marker]
    return WordAutomaton(
        automaton.algebra, automaton.alphabet.of_rank(1), automaton.states,
        initial, automaton.root_weights, quads,
    )
