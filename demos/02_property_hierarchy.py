"""The zero-sum-freeness hierarchy across all bundled finite algebras.

positive => bi-strongly zero-sum-free => strongly zero-sum-free =>
zero-sum-free, and every implication is strict: each bundled algebra was
chosen to separate one level from the next. Witnesses are the first violating
tuple in carrier enumeration order, so this table is fully reproducible.
"""

import bimonoid_automata as ba
from bimonoid_automata.properties import BimonoidProperty as P
from bimonoid_automata.properties import HalfCondition as HC

COLUMNS = [
    ("zsf", P.ZERO_SUM_FREE),
    ("strong", P.STRONGLY_ZSF),
    ("bi-strong", P.BI_STRONGLY_ZSF),
    ("positive", P.POSITIVE),
    ("right-dist", P.RIGHT_DISTRIBUTIVE),
    ("left-dist", P.LEFT_DISTRIBUTIVE),
    ("commut", P.COMMUTATIVE),
]

algebras = ba.bundled_finite_algebras()
header = f"{'algebra':<14}" + "".join(f"{name:>11}" for name, _ in COLUMNS)
print(header)
print("-" * len(header))
reports = {}
for alg in algebras:
    report = ba.classify(alg)
    reports[alg.name] = report
    row = f"{alg.name:<14}"
    for _, prop in COLUMNS:
        row += f"{'yes' if report.holds(prop) else 'no':>11}"
    print(row)

print()
print("strictness witnesses, one per hierarchy gap:")
diamond = reports["Diamond"]
print(f"  bi-strong but not positive: Diamond, zero divisors "
      f"{diamond.verdicts[P.ZERO_DIVISOR_FREE].witness_labels}")
tf = reports["TruncFun(2)"]
print(f"  strong but not bi-strong:   TruncFun(2), witness "
      f"{tf.verdicts[P.BI_STRONGLY_ZSF].witness_labels}")
b4 = reports["B4"]
print(f"  zsf but not strong:         B4, witness "
      f"{b4.verdicts[P.STRONGLY_ZSF].witness_labels}")

print()
print("one-sided conditions (which half of the support equality can fail):")
for name in ("B4", "B3prime"):
    report = reports[name]
    for half in (HC.RUN_TO_INIT, HC.INIT_TO_RUN):
        verdict = report.halves[half]
        status = "holds" if verdict.holds else f"fails at ({', '.join(verdict.witness_labels)})"
        print(f"  {name:<9} {half.value:<13} {status}")
