"""Trees: branching makes the support question strictly harder.

Over a branching alphabet the tree probe automaton wraps the critical sum
between two factors: a * (b + b') * c. A strongly zero-sum-free algebra
handles sums on the left of a product, but only a BI-strongly zero-sum-free
one survives sums squeezed in the middle. TruncFun(2) is exactly the
separating example: right-distributive, strongly zsf, yet its composition
product kills a doubled function.

The cut machinery below is the sweep that proves the positive direction:
a cut is a maximal antichain of positions; expanding moves it toward the
leaves, merging toward the root, and the hybrid product along any cut keeps
being nonzero when the algebra is bi-strongly zsf.
"""

import random

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata.algebra import Semantics

alphabet = T.RankedAlphabet({"alpha": 0, "sigma": 2})
xi = T.doubled_probe_tree(alphabet)
print(f"probe input tree: {xi}")

print()
print("== TruncFun(2): a tree in the run support but not the init support ==")
tf = ba.trunc_fun(2)
g = (0, 1, 0)
probe = T.branching_probe_automaton(tf, g, g, g, tf.one, alphabet)
run_val = T.run_semantics(probe, xi, prune=True)
init_val = T.initial_semantics(probe, xi)
print(f"  run  = g.g + g.g        = {tf.describe(run_val)}   (nonzero)")
print(f"  init = g.(g+g)          = {tf.describe(init_val)}   (g truncates the doubled image)")
print(f"  in run support: {T.in_support(probe, xi, Semantics.RUN)}, "
      f"in init support: {T.in_support(probe, xi, Semantics.INIT)}")

print()
print("== the pentagon is bi-strongly zsf: supports agree on random automata ==")
pent = ba.pentagon()
rng = random.Random(4)
agree = 0
trees = list(T.enumerate_trees(alphabet, 7))
for _ in range(25):
    automaton = H.random_tree_automaton(rng, pent, alphabet, 3)
    agree += all(
        T.in_support(automaton, t, Semantics.RUN) == T.in_support(automaton, t, Semantics.INIT)
        for t in trees
    )
print(f"  25 random automata x {len(trees)} trees: supports agreed on {agree}/25 automata")

print()
print("== cuts: sweeping between the leaves and the root ==")
cut = ((),)
print(f"  start at the root cut        {cut}")
cut = T.expand(xi, cut, 0)
print(f"  expand the root              {cut}")
cut = T.expand(xi, cut, 1)
print(f"  expand the inner sigma       {cut}  (= leaves cut? "
      f"{T.is_normal_form(xi, cut, 'expand')})")
cut = T.merge(xi, cut, 1)
print(f"  merge the children block     {cut}")
cut = T.merge(xi, cut, 0)
print(f"  merge again: back at the top {cut}")

print()
print("== the sweep invariant on the pentagon ==")
witness = None
for seed in range(50):
    automaton = H.random_tree_automaton(random.Random(seed), pent, alphabet, 3)
    for t in trees:
        if len(T.all_cuts(t)) < 3:
            continue
        for rho in T.enumerate_runs(automaton, t):
            full = pent.mul(T.run_weight(automaton, t, rho), automaton.root_weights[rho[()]])
            if full != pent.zero:
                witness = (t, rho)
                break
        if witness:
            break
    if witness:
        break
t, rho = witness
values = [
    pent.describe(T.cut_partial_product(automaton, t, rho, cut)) for cut in T.all_cuts(t)
]
print(f"  nonzero run on {t}: partial products along all "
      f"{len(values)} cuts: {{{', '.join(sorted(set(values)))}}} -- never zero")
