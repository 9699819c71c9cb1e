"""Words are unary-spine trees; automata convert both ways, semantics intact.

The encoding sends a1..an to an(...(a1(e))...), so the end marker is the
leaf and evaluation climbs the spine in exactly the order the word
automaton's state vector evolves. Converting a word automaton to a tree
automaton (and back) preserves both semantics pointwise, which is the lever
that lifts every word-level result to monadic tree alphabets.
"""

import random

import bimonoid_automata as ba
from bimonoid_automata import bridge as BR
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W

print("== the spine encoding ==")
for word in ((), ("a",), ("a", "b"), ("a", "b", "a")):
    t = BR.word_to_tree(word)
    print(f"  {''.join(word) or 'the empty word':<14} ->  {t}")

print()
print("== a converted probe automaton computes the same values ==")
pent = ba.pentagon()
p, q, r = pent.parse("p"), pent.parse("q"), pent.parse("r")
word_probe = W.probe_automaton(pent, p, r, q)
tree_probe = BR.wsa_to_wta(word_probe)
w = ("gamma",)
t = BR.word_to_tree(w)
print(f"  word run (gamma)      = {pent.describe(W.run_semantics(word_probe, w))}")
print(f"  tree run (gamma(e))   = {pent.describe(T.run_semantics(tree_probe, t))}")
print(f"  word init(gamma)      = {pent.describe(W.initial_semantics(word_probe, w))}")
print(f"  tree init(gamma(e))   = {pent.describe(T.initial_semantics(tree_probe, t))}")

print()
print("== random automata: both semantics commute with the encoding ==")
rng = random.Random(5)
checked = mismatches = 0
for alg in ba.bundled_finite_algebras():
    automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
    converted = BR.wsa_to_wta(automaton)
    for word in W.all_words(("a", "b"), 4):
        tree = BR.word_to_tree(word)
        checked += 1
        if (
            W.run_semantics(automaton, word, prune=True) != T.run_semantics(converted, tree, prune=True)
            or W.initial_semantics(automaton, word) != T.initial_semantics(converted, tree)
        ):
            mismatches += 1
    back = BR.string_wta_to_wsa(converted)
    assert back.transitions == automaton.transitions
print(f"  {checked} word/tree pairs over 6 algebras, {mismatches} mismatches;"
      " round-trip conversion is structurally the identity")
