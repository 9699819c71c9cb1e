"""Exhaustive property decisions on finite strong bimonoids.

:func:`check` decides any of the ten properties and the four half
conditions, the two directions of strong and of bi-strong zero-sum-freeness
(``_HALVES``); :func:`classify` decides all fourteen into one verdict table
and checks it against the hierarchy, a list of rules (``_IMPLICATIONS``).
Each property is the universally quantified "iff" from its definition, and
both directions are checked. Two arguments skip a scan, and each holds on
any tables, axioms or not: :func:`check` takes a condition as holding where
one that implies it holds (``_IMPLIED_BY``), and a distributive law that
holds is proved on a generating set of (B, +) where that takes fewer slabs
(:func:`~.algebra._first_law_difference`). A failing verdict always comes
from a scan and carries the first violating tuple in carrier enumeration
order, so reports are reproducible.

The algebra is tabulated once (:func:`~.algebra.tabulate`: n^2 calls of add
and of mul, none for a table algebra), every condition is decided on the
integer tables, and the tabulation keeps each verdict and what several
decisions read (:func:`_kept`). Where the last quantified variable c only
meets zero tests, the condition for all c at once is a bitmask: with
Z[x] = {c : x*c = 0}, strong zero-sum-freeness compares Z[a+b] with
Z[a] & Z[b], and the lowest set bit of the violation mask is the first
witness c. The 4-ary tree forms also pack a: for a block of a's [lo, hi),
Y[x] holds Z[a*x] at bit offset (a - lo)*n, so one mask operation per
(b, b') decides the whole block. The blocks double in size (1, 1, 2, 4,
...), so a full scan costs about (log2 n + 1)*n^2 mask operations instead of
n^4 algebra calls, and a witness at a small a is found after few. The
distributive and associative laws compare, per a, the slab of every b's row
at once, gathered with ``operator.itemgetter``. Measured on a 2-core Xeon VM
(CPython 3.11.7): a full 4-ary scan of a 16-element lattice takes about
0.22 ms and :func:`classify` of one about 0.65 ms, of TruncFun(3) (64
elements) about 10 ms and of TruncFun(4) (625 elements) about 1.4 s.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .algebra import (
    HierarchyInconsistencyError,
    Tabulation,
    WeightAlgebra,
    _first_asymmetry,
    _first_law_difference,
    _first_slab_difference,
    _gather,
    _sum_generators,
    _tables,
)


class BimonoidProperty(Enum):
    ZERO_SUM_FREE = "zero-sum-free"
    STRONGLY_ZSF = "strongly-zero-sum-free"
    BI_STRONGLY_ZSF = "bi-strongly-zero-sum-free"
    ZERO_DIVISOR_FREE = "zero-divisor-free"
    POSITIVE = "positive"
    ZERO_RIGHT_DISTRIBUTIVE = "zero-right-distributive"
    RIGHT_DISTRIBUTIVE = "right-distributive"
    LEFT_DISTRIBUTIVE = "left-distributive"
    DISTRIBUTIVE = "distributive"
    COMMUTATIVE = "commutative"


class HalfCondition(Enum):
    """One-sided support conditions; the word forms quantify (a,b,c), the tree
    forms (a,b,b',c)."""

    RUN_TO_INIT = "run-to-init"            # a*c != 0  =>  (a+b)*c != 0
    INIT_TO_RUN = "init-to-run"            # (a+b)*c != 0  =>  a*c != 0 or b*c != 0
    TREE_RUN_TO_INIT = "tree-run-to-init"  # a*b*c != 0  =>  a*(b+b')*c != 0
    TREE_INIT_TO_RUN = "tree-init-to-run"  # a*(b+b')*c != 0  =>  a*b*c != 0 or a*b'*c != 0


class PropertyVerdict(NamedTuple):
    property: object  # BimonoidProperty or HalfCondition
    holds: bool
    witness: Optional[tuple] = None
    witness_labels: Optional[tuple] = None

    def __str__(self):
        if self.holds:
            return f"{self.property.value}: holds"
        return f"{self.property.value}: fails at ({', '.join(self.witness_labels)})"


def _verdict(t: Tabulation, prop, witness):
    if witness is None:
        return PropertyVerdict(prop, True)
    return PropertyVerdict(prop, False, t.values(witness), t.labels(witness))


def _kept(t: Tabulation, build):
    """``build(t)``, built once per tabulation: ``t.derived`` keeps it."""
    if build not in t.derived:
        t.derived[build] = build(t)
    return t.derived[build]


def _sum_zero_masks(t: Tabulation) -> list:
    """{c : x+c = 0} per x, as an int bitmask over carrier indices."""
    zero = t.zero
    return [sum(1 << c for c, v in enumerate(row) if v == zero) for row in t.add]


def _product_zero_masks(t: Tabulation) -> list:
    """Z[x] = {c : x*c = 0} per x, as an int bitmask over carrier indices."""
    zero = t.zero
    return [sum(1 << c for c, v in enumerate(row) if v == zero) for row in t.mul]


def _first_row_difference(masks: list, expected: list):
    """First (a, c) with bit c of ``masks[a]`` other than that of ``expected[a]``."""
    a = next((a for a, (mask, e) in enumerate(zip(masks, expected)) if mask != e), None)
    return None if a is None else (a, _lowest(masks[a] ^ expected[a]))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _first_triple(t: Tabulation, violations):
    """First (a, b, c) with bit c set in ``violations(Z[a+b], Z[a], Z[b])``."""
    z = _kept(t, _product_zero_masks)
    for a, row in enumerate(t.add):
        for b, s in enumerate(row):
            mask = violations(z[s], z[a], z[b])
            if mask:
                return a, b, _lowest(mask)
    return None


def _first_quad(t: Tabulation, violations):
    """First (a, b, b', c) with bit (a - lo)*n + c set in
    ``violations(Y[b+b'], Y[b], Y[b'])``, where Y[x] packs Z[a*x] for every
    a of a block [lo, hi) at bit offset (a - lo)*n.

    The blocks double (1, 1, 2, 4, ...), so a full scan costs about
    (log2 n + 1)*n^2 mask operations and a witness at a small a is found
    after few. The lowest set bit of a mask is its least (a, c); the first
    block with a violation holds the first witness.
    """
    n = len(t.elements)
    z = _kept(t, _product_zero_masks)
    add, mul = t.add, t.mul
    lo = 0
    while lo < n:
        hi = min(n, 2 * lo or 1)
        y = [0] * n
        for a in range(lo, hi):
            shift = (a - lo) * n
            y = [acc | z[v] << shift for acc, v in zip(y, mul[a])]
        found = None  # (a, b, b', c) of the least violation in the block so far
        for b in range(n):
            masks = [violations(y[s], y[b], y[bp]) for bp, s in enumerate(add[b])]
            if any(masks):
                for bp, mask in enumerate(masks):
                    if mask:
                        da, c = divmod(_lowest(mask), n)
                        if found is None or lo + da < found[0]:
                            found = (lo + da, b, bp, c)
                if found[0] == lo:  # no later (b, b') comes before it
                    return found
        if found:
            return found
        lo = hi
    return None


def _split_law(rows, sums, prods) -> tuple:
    """rows[a+b][c] = sums[prods[a][c]][prods[b][c]], the product of a sum
    against the sum of the products, as ``(rows, rhs)`` of
    :func:`~.algebra._first_slab_difference` over the sum table."""
    columns = [_gather(col) for col in zip(*prods)]  # columns[c](row) reads row at prods[b][c] per b
    return (
        [tuple(row) for row in rows],
        lambda a: list(zip(*[g(sums[x]) for g, x in zip(columns, prods[a])])),
    )


# Properties that are the conjunction of others, checked in this order.
_COMPOSITES = {
    BimonoidProperty.POSITIVE: (BimonoidProperty.ZERO_SUM_FREE, BimonoidProperty.ZERO_DIVISOR_FREE),
    BimonoidProperty.DISTRIBUTIVE: (BimonoidProperty.RIGHT_DISTRIBUTIVE, BimonoidProperty.LEFT_DISTRIBUTIVE),
}

def _composite(prop: BimonoidProperty, parts) -> PropertyVerdict:
    """A composite verdict from its parts' verdicts, taken lazily in order:
    it fails with the first failing part's witness."""
    for sub in parts:
        if not sub.holds:
            return PropertyVerdict(prop, False, sub.witness, sub.witness_labels)
    return PropertyVerdict(prop, True)


# The halves of each support hypothesis, run-to-init first: the hypothesis
# is a two-way support inclusion and each half one of its directions.
_HALVES = {
    BimonoidProperty.STRONGLY_ZSF: (HalfCondition.RUN_TO_INIT, HalfCondition.INIT_TO_RUN),
    BimonoidProperty.BI_STRONGLY_ZSF: (HalfCondition.TREE_RUN_TO_INIT, HalfCondition.TREE_INIT_TO_RUN),
}

# Each hypothesis and its halves as the mask of violating c, from the zero
# masks of a sum s = x + y and of its terms. The word forms read Z (see
# _first_triple) and the tree forms the packed Y (see _first_quad), so a
# word form and its tree form share one formula.
_FORMULAS = (lambda s, x, y: s ^ (x & y), lambda s, x, y: s & ~x, lambda s, x, y: x & y & ~s)
_WORD_FORMS, _TREE_FORMS = (
    dict(zip((hypothesis, *halves), _FORMULAS)) for hypothesis, halves in _HALVES.items()
)

# Conditions another one implies on any tables: when it holds they hold
# without a scan. (a+b)*c = a*c + b*c makes both sides zero together; and a
# hypothesis's mask s ^ (x & y) is zero exactly when s == x & y, which
# zeroes both of its halves' masks, s & ~x and x & y & ~s.
_IMPLIED_BY = {
    BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE: BimonoidProperty.RIGHT_DISTRIBUTIVE,
    **{half: hypothesis for hypothesis, halves in _HALVES.items() for half in halves},
}

# The hierarchy as (premises, conclusion): in a strong bimonoid the
# conclusion holds wherever all the premises do. A hypothesis holds exactly
# when both of its halves do, since + is commutative.
_IMPLICATIONS = [
    ((BimonoidProperty.POSITIVE,), BimonoidProperty.BI_STRONGLY_ZSF),
    ((BimonoidProperty.BI_STRONGLY_ZSF,), BimonoidProperty.STRONGLY_ZSF),
    ((BimonoidProperty.STRONGLY_ZSF,), BimonoidProperty.ZERO_SUM_FREE),
    ((BimonoidProperty.STRONGLY_ZSF,), BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE),
    ((BimonoidProperty.ZERO_SUM_FREE, BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE), BimonoidProperty.STRONGLY_ZSF),
    ((BimonoidProperty.COMMUTATIVE, BimonoidProperty.STRONGLY_ZSF), BimonoidProperty.BI_STRONGLY_ZSF),
    *(((hypothesis,), half) for hypothesis, halves in _HALVES.items() for half in halves),
    *((halves, hypothesis) for hypothesis, halves in _HALVES.items()),
]


def check(alg: WeightAlgebra | Tabulation, cond: BimonoidProperty | HalfCondition) -> PropertyVerdict:
    """Decide one condition, a property or a half condition, by exhaustive
    search; witness on failure (for a half condition, a tuple that violates
    its implication).

    ``alg`` is a finite algebra, tabulated afresh, or its :func:`tabulate`
    tables, which keep each verdict decided on them: a condition is decided
    once per tabulation, by :func:`_decide`.
    """
    t = _tables(alg)
    if cond not in t.verdicts:
        t.verdicts[cond] = _decide(t, cond)
    return t.verdicts[cond]


def _decide(t: Tabulation, cond) -> PropertyVerdict:
    """The verdict :func:`check` has not kept: a composite's from its parts;
    a condition of ``_IMPLIED_BY`` holds, with no scan, where its implier
    does; any other comes from a scan, so a failing one has the first witness."""
    if cond in _COMPOSITES:
        return _composite(cond, (check(t, part) for part in _COMPOSITES[cond]))
    if cond in _IMPLIED_BY and check(t, _IMPLIED_BY[cond]).holds:
        return PropertyVerdict(cond, True)
    add, mul, zero, n = t.add, t.mul, t.zero, len(t.elements)
    if cond is BimonoidProperty.ZERO_SUM_FREE:  # a+b = 0 iff a = b = 0
        expected = [1 << zero if a == zero else 0 for a in range(n)]
        witness = _first_row_difference(_kept(t, _sum_zero_masks), expected)
    elif cond in _WORD_FORMS:
        witness = _first_triple(t, _WORD_FORMS[cond])
    elif cond in _TREE_FORMS:
        witness = _first_quad(t, _TREE_FORMS[cond])
    elif cond is BimonoidProperty.ZERO_DIVISOR_FREE:  # a*b = 0 iff a = 0 or b = 0
        expected = [(1 << n) - 1 if a == zero else 1 << zero for a in range(n)]
        witness = _first_row_difference(_kept(t, _product_zero_masks), expected)
    elif cond is BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE:
        sum_is_zero = [[v == zero for v in row] for row in add]
        product_is_zero = [[v == zero for v in row] for row in mul]
        # compares zero tests only, so no induction on sums proves it
        witness = _first_slab_difference(add, *_split_law(product_is_zero, sum_is_zero, mul), range(n))
    elif cond is BimonoidProperty.RIGHT_DISTRIBUTIVE:
        witness = _first_law_difference(add, _split_law(mul, add, mul), _kept(t, _sum_generators))
    elif cond is BimonoidProperty.LEFT_DISTRIBUTIVE:
        cols = list(zip(*mul))  # cols[x][c] = c*x
        witness = _first_law_difference(add, _split_law(cols, add, cols), _kept(t, _sum_generators))
    elif cond is BimonoidProperty.COMMUTATIVE:
        witness = _first_asymmetry(mul)
    else:
        raise ValueError(f"unknown condition {cond!r}")
    return _verdict(t, cond, witness)


class PropertyReport(NamedTuple):
    algebra: str
    verdicts: dict  # every BimonoidProperty, then every HalfCondition

    def holds(self, cond) -> bool:
        return self.verdicts[cond].holds

    def __str__(self):
        width = max(len(c.value) for c in (*BimonoidProperty, *HalfCondition))
        lines = [f"properties of {self.algebra}"]
        for v in self.verdicts.values():
            status = "holds" if v.holds else f"fails  witness ({', '.join(v.witness_labels)})"
            lines.append(f"  {v.property.value:<{width}}  {status}")
        return "\n".join(lines)

    def to_dict(self):
        def entry(v):
            d = {"holds": v.holds}
            if v.witness_labels is not None:
                d["witness"] = list(v.witness_labels)
            return d

        def entries(kind):
            return {c.value: entry(v) for c, v in self.verdicts.items() if isinstance(c, kind)}

        return {
            "algebra": self.algebra,
            "properties": entries(BimonoidProperty),
            "half_conditions": entries(HalfCondition),
        }


def classify(alg: WeightAlgebra | Tabulation) -> PropertyReport:
    """Every condition's verdict from :func:`check` on one tabulation,
    checked against the hierarchy; ``alg`` is a finite algebra, tabulated
    afresh, or its :func:`tabulate` tables, which
    :func:`~.algebra.validate_axioms` can read too. A rule of
    ``_IMPLICATIONS`` broken by the verdicts can only come from an
    implementation bug, so it raises instead of being reported as a result.
    """
    t = _tables(alg)
    report = PropertyReport(t.algebra.name, {cond: check(t, cond) for cond in (*BimonoidProperty, *HalfCondition)})
    for premises, conclusion in _IMPLICATIONS:
        if all(map(report.holds, premises)) and not report.holds(conclusion):
            names = " and ".join(p.value for p in premises)
            verb = "hold" if len(premises) > 1 else "holds"
            raise HierarchyInconsistencyError(f"{report.algebra}: {names} {verb} but {conclusion.value} fails")
    return report
