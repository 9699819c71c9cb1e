"""Tour of the bundled weight algebras.

A strong bimonoid is a semiring that may lack distributivity. This script
builds each bundled instance, validates the axioms exhaustively, and shows
the arithmetic quirks that matter later: sums that collapse, products that
vanish without a zero factor, and function composition as multiplication.
"""

import bimonoid_automata as ba

print("== axiom validation (exhaustive over finite carriers) ==")
for alg in ba.bundled_finite_algebras():
    report = ba.validate_axioms(alg)
    n = len(list(alg.elements()))
    print(f"  {alg.name:<14} carrier size {n:>2}  ->  {'all axioms hold' if report.ok else report}")

print()
print("== NatPlusPlus: both operations are +, with a fresh absorbing zero ==")
npp = ba.nat_plus_plus()
print(f"  3 (x) 2 = {npp.mul(3, 2)}   (multiplication is ordinary addition)")
print(f"  zero (x) 5 = {npp.describe(npp.mul(npp.zero, 5))}   (the fresh element absorbs)")

print()
print("== B4: a sum can erase the information a product needs ==")
b4 = ba.b4()
print(f"  2 (+) 2 = {b4.describe(b4.add(2, 2))},  then (2 (+) 2) (x) 2 = {b4.describe(b4.mul(b4.add(2, 2), 2))}")
print(f"  but 2 (x) 2 = {b4.describe(b4.mul(2, 2))}  -- a nonzero sum-product with all-zero summand-products")

print()
print("== TruncFun(2): pointwise saturating sum, composition product ==")
tf = ba.trunc_fun(2)
g = (0, 1, 0)
print(f"  g = {tf.describe(g)} maps 1 to 1 and 2 to 0")
print(f"  g (+) g = {tf.describe(tf.add(g, g))}   (saturates at 2)")
print(f"  g (x) g = {tf.describe(tf.mul(g, g))}   (composition: g after g is g)")
print(f"  g (x) (g (+) g) = {tf.describe(tf.mul(g, tf.add(g, g)))}   (g kills the value 2: the whole product dies)")

print()
print("== PolyMonome: ordinary product only against monomes ==")
pm = ba.poly_monome()
x = ba.Polynomial((0, 1))
one_plus_x = pm.add(pm.one, x)
print(f"  x (x) (1 + x) = {pm.describe(pm.mul(x, one_plus_x))}   (1+x is no monome; x(0) = 0 scales it away)")
print(f"  (1 + x) (x) x = {pm.describe(pm.mul(one_plus_x, x))}   (x is a monome: ordinary product)")

print()
print("== counting wrapper ==")
counting = ba.CountingAlgebra(b4)
counting.mul(counting.add(1, 2), 3)
adds, muls = counting.read_counts()
print(f"  (1 (+) 2) (x) 3 used {adds} addition(s) and {muls} multiplication(s)")
