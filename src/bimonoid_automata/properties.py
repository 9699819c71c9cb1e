"""Exhaustive property decisions on finite strong bimonoids.

Each property is the universally quantified "iff" from its definition; both
directions are checked (one direction is usually trivial, but the checker
encodes no reasoning). Verdicts carry the first violating tuple in carrier
enumeration order, so reports are reproducible.

The algebra is tabulated once (:func:`~.algebra.tabulate`: n^2 calls of add
and of mul) and every condition is decided on the integer tables. Where the
last quantified variable c only meets zero tests, the condition for all c at
once is a bitmask: with Z[x] = {c : x*c = 0}, strong zero-sum-freeness
compares Z[a+b] with Z[a] & Z[b], and the lowest set bit of the violation
mask is the first witness c. The 4-ary tree forms also pack a: for a block
of a's [lo, hi), Y[x] holds Z[a*x] at bit offset (a - lo)*n, so one mask
operation per (b, b') decides the whole block. The blocks double in size
(1, 1, 2, 4, ...), so a full scan costs about (log2 n + 1)*n^2 mask
operations instead of n^4 algebra calls, and a witness at a small a is found
after few. The distributive and associative laws compare, per a, the slab of
every b's row at once, gathered with ``operator.itemgetter``. Measured on a
2-core Xeon VM (CPython 3.11): a full 4-ary scan of a 16-element lattice takes
about 0.4 ms, and :func:`classify` of TruncFun(3) (64 elements) about 26 ms.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .algebra import (
    HierarchyInconsistencyError,
    Tabulation,
    WeightAlgebra,
    _first_pair,
    _first_slab_difference,
    _gather,
    tabulate,
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


def _tables(alg) -> Tabulation:
    return alg if isinstance(alg, Tabulation) else tabulate(alg)


def _zero_masks(t: Tabulation) -> list:
    """Z[x] = {c : x*c = 0} as an int bitmask over carrier indices."""
    zero = t.zero
    return [sum(1 << c for c, v in enumerate(row) if v == zero) for row in t.mul]


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _first_triple(t: Tabulation, violations):
    """First (a, b, c) with bit c set in ``violations(a, b)``."""
    n = len(t.elements)
    for a in range(n):
        for b in range(n):
            mask = violations(a, b)
            if mask:
                return a, b, _lowest(mask)
    return None


def _first_quad(t: Tabulation, violations):
    """First (a, b, b', c) with bit (a - lo)*n + c set in
    ``violations(Y, b, b', s)``, where s = b + b' and Y[x] packs Z[a*x] for
    every a of a block [lo, hi) at bit offset (a - lo)*n.

    The blocks double (1, 1, 2, 4, ...), so a full scan costs about
    (log2 n + 1)*n^2 mask operations and a witness at a small a is found
    after few. The lowest set bit of a mask is its least (a, c); the first
    block with a violation holds the first witness.
    """
    n = len(t.elements)
    z = _zero_masks(t)
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
            masks = [violations(y, b, bp, s) for bp, s in enumerate(add[b])]
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


def _first_split_difference(t: Tabulation, rows, sums, prods):
    """First (a, b, c) with rows[a+b][c] != sums[prods[a][c]][prods[b][c]]:
    the product of a sum against the sum of the products, over c."""
    columns = [_gather(col) for col in zip(*prods)]  # columns[c](row) reads row at prods[b][c] per b
    return _first_slab_difference(
        t,
        t.add,
        [tuple(row) for row in rows],
        lambda a: list(zip(*[g(sums[x]) for g, x in zip(columns, prods[a])])),
    )


# Properties that are the conjunction of others, checked in this order.
_COMPOSITES = {
    BimonoidProperty.POSITIVE: (BimonoidProperty.ZERO_SUM_FREE, BimonoidProperty.ZERO_DIVISOR_FREE),
    BimonoidProperty.DISTRIBUTIVE: (
        BimonoidProperty.RIGHT_DISTRIBUTIVE,
        BimonoidProperty.LEFT_DISTRIBUTIVE,
    ),
}


# Properties another one implies: when it holds they hold without a scan,
# since (a+b)*c = a*c + b*c makes both sides zero together.
_IMPLIED_BY = {BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE: BimonoidProperty.RIGHT_DISTRIBUTIVE}


def _composite(prop: BimonoidProperty, parts) -> PropertyVerdict:
    """A composite verdict from its parts' verdicts, taken lazily in order:
    it fails with the first failing part's witness."""
    for sub in parts:
        if not sub.holds:
            return PropertyVerdict(prop, False, sub.witness, sub.witness_labels)
    return PropertyVerdict(prop, True)


def check(alg: WeightAlgebra | Tabulation, prop: BimonoidProperty) -> PropertyVerdict:
    """Decide one property by exhaustive search; witness on failure.

    ``alg`` is a finite algebra or its :func:`tabulate` tables.
    """
    t = _tables(alg)
    add, mul, zero = t.add, t.mul, t.zero

    if prop is BimonoidProperty.ZERO_SUM_FREE:
        witness = _first_pair(t, lambda a, b: (add[a][b] == zero) != (a == zero and b == zero))
    elif prop is BimonoidProperty.STRONGLY_ZSF:
        z = _zero_masks(t)
        witness = _first_triple(t, lambda a, b: z[add[a][b]] ^ (z[a] & z[b]))
    elif prop is BimonoidProperty.BI_STRONGLY_ZSF:
        witness = _first_quad(t, lambda y, b, bp, s: y[s] ^ (y[b] & y[bp]))
    elif prop is BimonoidProperty.ZERO_DIVISOR_FREE:
        witness = _first_pair(t, lambda a, b: (mul[a][b] == zero) != (a == zero or b == zero))
    elif prop in _COMPOSITES:
        return _composite(prop, (check(t, part) for part in _COMPOSITES[prop]))
    elif prop is BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE:
        sum_is_zero = [[v == zero for v in row] for row in add]
        product_is_zero = [[v == zero for v in row] for row in mul]
        witness = _first_split_difference(t, product_is_zero, sum_is_zero, mul)
    elif prop is BimonoidProperty.RIGHT_DISTRIBUTIVE:
        witness = _first_split_difference(t, mul, add, mul)
    elif prop is BimonoidProperty.LEFT_DISTRIBUTIVE:
        cols = list(zip(*mul))  # cols[x][c] = c*x
        witness = _first_split_difference(t, cols, add, cols)
    elif prop is BimonoidProperty.COMMUTATIVE:
        witness = _first_pair(t, lambda a, b: mul[a][b] != mul[b][a])
    else:
        raise ValueError(f"unknown property {prop!r}")
    return _verdict(t, prop, witness)


def check_half(alg: WeightAlgebra | Tabulation, half: HalfCondition) -> PropertyVerdict:
    """Decide one one-sided support condition; witness violates the implication.

    ``alg`` is a finite algebra or its :func:`tabulate` tables.
    """
    t = _tables(alg)
    add = t.add

    if half is HalfCondition.RUN_TO_INIT:
        z = _zero_masks(t)
        witness = _first_triple(t, lambda a, b: z[add[a][b]] & ~z[a])
    elif half is HalfCondition.INIT_TO_RUN:
        z = _zero_masks(t)
        witness = _first_triple(t, lambda a, b: z[a] & z[b] & ~z[add[a][b]])
    elif half is HalfCondition.TREE_RUN_TO_INIT:
        witness = _first_quad(t, lambda y, b, bp, s: y[s] & ~y[b])
    elif half is HalfCondition.TREE_INIT_TO_RUN:
        witness = _first_quad(t, lambda y, b, bp, s: y[b] & y[bp] & ~y[s])
    else:
        raise ValueError(f"unknown half condition {half!r}")
    return _verdict(t, half, witness)


class PropertyReport(NamedTuple):
    algebra: str
    verdicts: dict
    halves: dict

    def holds(self, prop) -> bool:
        table = self.halves if isinstance(prop, HalfCondition) else self.verdicts
        return table[prop].holds

    def rows(self):
        for prop in BimonoidProperty:
            yield self.verdicts[prop]
        for half in HalfCondition:
            yield self.halves[half]

    def __str__(self):
        width = max(len(p.value) for p in list(BimonoidProperty) + list(HalfCondition))
        lines = [f"properties of {self.algebra}"]
        for v in self.rows():
            status = "holds" if v.holds else f"fails  witness ({', '.join(v.witness_labels)})"
            lines.append(f"  {v.property.value:<{width}}  {status}")
        return "\n".join(lines)

    def to_dict(self):
        def entry(v):
            d = {"holds": v.holds}
            if v.witness_labels is not None:
                d["witness"] = list(v.witness_labels)
            return d

        return {
            "algebra": self.algebra,
            "properties": {p.value: entry(v) for p, v in self.verdicts.items()},
            "half_conditions": {h.value: entry(v) for h, v in self.halves.items()},
        }


def classify(alg: WeightAlgebra) -> PropertyReport:
    """All verdicts plus internal consistency of the implication hierarchy.

    A hierarchy violation can only come from an implementation bug, so it
    raises instead of being reported as a result.
    """
    t = tabulate(alg)
    decided: dict = {}

    def decide(prop):
        if prop not in decided:
            if prop in _COMPOSITES:
                verdict = _composite(prop, (decide(part) for part in _COMPOSITES[prop]))
            elif prop in _IMPLIED_BY and decide(_IMPLIED_BY[prop]).holds:
                verdict = PropertyVerdict(prop, True)
            else:  # scanned, so a failing verdict has the first witness
                verdict = check(t, prop)
            decided[prop] = verdict
        return decided[prop]

    verdicts = {prop: decide(prop) for prop in BimonoidProperty}
    halves = {half: check_half(t, half) for half in HalfCondition}

    def h(prop):
        return verdicts[prop].holds

    chain = (
        BimonoidProperty.POSITIVE,
        BimonoidProperty.BI_STRONGLY_ZSF,
        BimonoidProperty.STRONGLY_ZSF,
        BimonoidProperty.ZERO_SUM_FREE,
    )
    for stronger, weaker in zip(chain, chain[1:]):
        if h(stronger) and not h(weaker):
            raise HierarchyInconsistencyError(
                f"{alg.name}: {stronger.value} holds but {weaker.value} fails"
            )
    expected_strongly = h(BimonoidProperty.ZERO_SUM_FREE) and h(
        BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE
    )
    if h(BimonoidProperty.STRONGLY_ZSF) != expected_strongly:
        raise HierarchyInconsistencyError(
            f"{alg.name}: strongly-zsf verdict disagrees with zsf & zero-right-distributive"
        )
    if (
        h(BimonoidProperty.COMMUTATIVE)
        and h(BimonoidProperty.STRONGLY_ZSF)
        and not h(BimonoidProperty.BI_STRONGLY_ZSF)
    ):
        raise HierarchyInconsistencyError(
            f"{alg.name}: commutative and strongly-zsf but not bi-strongly-zsf"
        )
    return PropertyReport(alg.name, verdicts, halves)
