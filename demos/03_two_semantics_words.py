"""Run semantics vs. initial-algebra semantics on words.

The three-state probe automaton reads a single symbol. Its run semantics
multiplies along each state sequence and then sums (a*c + b*c); the
initial-algebra semantics evolves a state vector and sums first ((a+b)*c).
Without distributivity those differ, and without strong zero-sum-freeness
even their *supports* differ: one semantics can see a word the other maps
to zero.
"""

import bimonoid_automata as ba
from bimonoid_automata import words as W
from bimonoid_automata.algebra import Semantics

word = ("gamma",)

print("== B4: the initial-algebra side sees gamma, the run side does not ==")
b4 = ba.b4()
probe = W.probe_automaton(b4, 2, 2, 2)
print(f"  run (gamma)  = 2*2 + 2*2         = {b4.describe(W.run_semantics(probe, word))}")
print(f"  init(gamma)  = (2+2)*2 = 3*2     = {b4.describe(W.initial_semantics(probe, word))}")
print(f"  gamma in run support:  {W.in_support(probe, word, Semantics.RUN)}")
print(f"  gamma in init support: {W.in_support(probe, word, Semantics.INIT)}")

print()
print("== B3prime: the failure flips direction ==")
b3 = ba.b3prime()
one_, two_ = b3.parse("1'"), b3.parse("2'")
probe3 = W.probe_automaton(b3, one_, one_, two_)
print(f"  run (gamma)  = 1'*2' + 1'*2'     = {b3.describe(W.run_semantics(probe3, word))}")
print(f"  init(gamma)  = (1'+1')*2' = 2'*2' = {b3.describe(W.initial_semantics(probe3, word))}")
print(f"  gamma in run support:  {W.in_support(probe3, word, Semantics.RUN)}")
print(f"  gamma in init support: {W.in_support(probe3, word, Semantics.INIT)}")

print()
print("== images of the two semantics ==")
for name, probe_automaton, alg in (("B4", probe, b4), ("B3prime", probe3, b3)):
    images = W.images_up_to(probe_automaton, 1)
    im_run = [alg.describe(v) for v in images[Semantics.RUN]]
    im_init = [alg.describe(v) for v in images[Semantics.INIT]]
    print(f"  {name:<8} run image {{{', '.join(im_run)}}}   init image {{{', '.join(im_init)}}}")

print()
print("== over the Boolean algebra both semantics are plain NFA acceptance ==")
boole = ba.boole()
ends_in_x = W.WordAutomaton(
    boole,
    ("a", "x"),
    ("loop", "hit"),
    initial={"loop": 1},
    final={"hit": 1},
    transitions=[
        ("loop", "a", "loop", 1),
        ("loop", "x", "loop", 1),
        ("loop", "x", "hit", 1),
    ],
)
for text in ("ax", "xa", "aax", "x", "aa"):
    w = tuple(text)
    run = W.in_support(ends_in_x, w, Semantics.RUN)
    init = W.in_support(ends_in_x, w, Semantics.INIT)
    print(f"  '{text}': run {str(run):<5} init {str(init):<5} (accepts words ending in x)")
