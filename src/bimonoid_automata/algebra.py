"""Strong bimonoids: the weight structures all automata in this package run over.

A strong bimonoid (B, add, mul, zero, one) is a semiring that need not be
distributive: (B, add, zero) is a commutative monoid, (B, mul, one) is a
monoid, and zero annihilates under mul. Every evaluation routine in this
package is parameterized by a ``WeightAlgebra`` instance; elements are opaque
values owned by the algebra (table indices, integers, function tables,
polynomials, ...).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


class UnknownAlgebraError(LookupError):
    """Raised by builtin() for names outside the bundled set."""


class InfiniteCarrierError(ValueError):
    """Raised when element enumeration is requested on an infinite carrier."""


class MalformedTableError(ValueError):
    """Structural defect in an operation table (shape or index range).

    Distinct from axiom failures: a malformed table cannot even be checked.
    """


class Semantics(Enum):
    """Which of the two automaton semantics to evaluate."""

    RUN = "run"
    INIT = "init"


class WeightedAutomaton:
    """State bookkeeping shared by word and tree automata: the algebra, the
    nonempty tuple of distinct state names, and weight vectors over them.

    States are always looked up by name, whatever their type; only the run
    normalisers of ``words`` and ``trees`` also take integer indices.
    """

    def __init__(self, algebra: WeightAlgebra, states):
        if not states:
            raise ValueError("state set must be nonempty")
        self.algebra = algebra
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        self._state_index = {s: i for i, s in enumerate(self.states)}

    def state_index(self, name) -> int:
        try:
            return self._state_index[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown state {name!r}") from None

    def _run_state(self, q) -> int:
        """A state in a run: an index into ``states``, or a state name."""
        i = q if isinstance(q, int) else self.state_index(q)
        if not 0 <= i < len(self.states):
            raise ValueError(f"state index {i} out of range")
        return i

    def _vector(self, data) -> tuple:
        """Weights aligned with ``states``, from a sequence or a name mapping
        (missing names are zero)."""
        n = len(self.states)
        if isinstance(data, dict):
            vec = [self.algebra.zero] * n
            for name, w in data.items():
                vec[self.state_index(name)] = w
            return tuple(vec)
        vec = tuple(data)
        if len(vec) != n:
            raise ValueError(f"weight vector has {len(vec)} entries, expected {n}")
        return vec


class WeightAlgebra:
    """Base interface: add/mul/zero/one plus decidable equality and labels.

    Subclasses set ``self.zero`` and ``self.one`` and implement ``add`` and
    ``mul``. Values are immutable and shareable; the one mutable exception is
    :class:`CountingAlgebra`.

    Pruned run semantics (``run_semantics(..., prune=True)`` and the
    ``values`` streams) counts runs by (state, weight) instead of listing
    them: it relies on ``add`` being commutative and associative, on zero
    annihilating, and on values being hashable with ``equal`` agreeing with
    ``==``. Every bundled algebra meets this. On tables that break the axioms
    (loaded with ``allow_invalid``) only the unpruned enumeration is literal.
    """

    name = "algebra"

    zero: Any
    one: Any

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.equal(a, self.zero)

    def describe(self, a) -> str:
        """Human-readable label of an element, also used in file formats."""
        return str(a)

    def parse(self, value):
        """Inverse of describe, tolerant of the JSON value space."""
        raise NotImplementedError(f"{self.name} cannot parse {value!r}")

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterator:
        """Every carrier element exactly once, in a fixed enumeration order.

        A finite carrier's elements must be hashable, and ``equal`` must agree
        with ``==`` on them: property decisions and axiom validation tabulate
        the operations (:func:`tabulate`) and look results up by hash. Every
        bundled algebra meets this.
        """
        raise InfiniteCarrierError(
            f"cannot enumerate the infinite carrier of {self.name}"
        )

    # Folds shared by all evaluators. An empty sum is zero and an empty
    # product is one; a k-element fold costs exactly k-1 operations, which is
    # what the counting wrapper and all cost formulas rely on.
    def sum(self, items: Iterable):
        acc = None
        for x in items:
            acc = x if acc is None else self.add(acc, x)
        return self.zero if acc is None else acc

    def product(self, items: Iterable):
        acc = None
        for x in items:
            acc = x if acc is None else self.mul(acc, x)
        return self.one if acc is None else acc

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _is_index(v, n) -> bool:
    # bool is an int subclass, but a JSON true is not an index
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


class FiniteTableAlgebra(WeightAlgebra):
    """A strong bimonoid presented by explicit n x n operation tables.

    Elements are indices into ``names``. The constructor checks only
    structure (squareness, index ranges); whether the tables satisfy the
    strong-bimonoid axioms is the business of :func:`validate_axioms`.
    """

    def __init__(self, name, names, add_table, mul_table, zero_index, one_index):
        n = len(names)
        if n == 0:
            raise MalformedTableError("empty carrier")
        if len(set(names)) != n:
            raise MalformedTableError("duplicate element names")
        for label, table in (("add", add_table), ("mul", mul_table)):
            if len(table) != n:
                raise MalformedTableError(f"{label} table has {len(table)} rows, expected {n}")
            for i, row in enumerate(table):
                if len(row) != n:
                    raise MalformedTableError(f"{label} table row {i} has {len(row)} entries")
                for j, v in enumerate(row):
                    if not _is_index(v, n):
                        raise MalformedTableError(
                            f"{label} table entry [{i}][{j}] = {v!r} out of range [0,{n})"
                        )
        for label, idx in (("zero", zero_index), ("one", one_index)):
            if not _is_index(idx, n):
                raise MalformedTableError(f"{label} index {idx!r} out of range [0,{n})")
        self.name = name
        self.names = tuple(names)
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.zero = zero_index
        self.one = one_index

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def describe(self, a):
        return self.names[a]

    def parse(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            if 0 <= value < len(self.names):
                return value
        text = str(value)
        if text in self.names:
            return self.names.index(text)
        raise ValueError(f"{text!r} is not an element of {self.name} (elements: {', '.join(self.names)})")

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(range(len(self.names)))


class CountingAlgebra(WeightAlgebra):
    """Transparent wrapper that counts add/mul invocations on another algebra.

    Single-owner: the counters are mutable state, so do not share one wrapper
    across threads; merge per-thread counts instead.
    """

    def __init__(self, inner: WeightAlgebra):
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.zero = inner.zero
        self.one = inner.one
        self.add_count = 0
        self.mul_count = 0

    def reset_counts(self):
        self.add_count = 0
        self.mul_count = 0

    def read_counts(self):
        return (self.add_count, self.mul_count)

    def add(self, a, b):
        self.add_count += 1
        return self.inner.add(a, b)

    def mul(self, a, b):
        self.mul_count += 1
        return self.inner.mul(a, b)

    def equal(self, a, b):
        return self.inner.equal(a, b)

    def describe(self, a):
        return self.inner.describe(a)

    def parse(self, value):
        return self.inner.parse(value)

    @property
    def is_finite(self):
        return self.inner.is_finite

    def elements(self):
        return self.inner.elements()


# --------------------------------------------------------------------------
# Counted runs and value sets, shared by the word and tree evaluators
#
# Since add is commutative and associative, the run semantics depends only on
# the multiset of run weights. The evaluators therefore keep counted runs: a
# list indexed by state of {weight: number of runs with that weight}, zero
# weights dropped.


def _multiple(alg: WeightAlgebra, count: int, x):
    """x added to itself until there are ``count`` >= 1 summands, by
    double-and-add: fewer than 2 log2(count) additions."""
    total = None
    while True:
        if count & 1:
            total = x if total is None else alg.add(total, x)
        count >>= 1
        if not count:
            return total
        x = alg.add(x, x)


def _run_total(alg: WeightAlgebra, runs: list, final) -> object:
    """The sum over counted runs of weight times ``final[state]``."""
    totals: dict = {}
    for weights, f in zip(runs, final):
        if alg.is_zero(f):
            continue
        for w, count in weights.items():
            x = alg.mul(w, f)
            if not alg.is_zero(x):
                totals[x] = totals.get(x, 0) + count
    total = None
    for x, count in totals.items():
        term = _multiple(alg, count, x)
        total = term if total is None else alg.add(total, term)
    return alg.zero if total is None else total


def _images(rows) -> dict:
    """The run and init value sets of ``(input, run value, init value)``
    rows, each in first-seen order. Values are deduplicated by hash, which
    the counted runs that produce them already need (see
    :class:`WeightAlgebra`)."""
    run: dict = {}
    init: dict = {}
    for _, run_value, init_value in rows:
        run[run_value] = init[init_value] = None
    return {Semantics.RUN: list(run), Semantics.INIT: list(init)}


def _table_memo(alg: WeightAlgebra, step: Callable) -> Callable:
    """An init step ``step(x, y)``, memoised on (x, y) for as long as the
    returned function lives if ``alg`` is a :class:`FiniteTableAlgebra`.

    The step depends on its vector(s) and symbol alone, so a hit returns what
    it would, and over n elements there are at most n^|Q| vectors. Any other
    algebra, the counting wrapper included, keeps the plain ``step``, so
    counted profiles see every operation of the recursion.
    """
    if not isinstance(alg, FiniteTableAlgebra):
        return step
    memo: dict = {}

    def memoised(x, y):
        key = (x, y)
        value = memo.get(key)
        if value is None:
            value = memo[key] = step(x, y)
        return value

    return memoised


# --------------------------------------------------------------------------
# Tabulation: a finite algebra's operations as integer tables


class CarrierNotClosedError(ValueError):
    """A finite algebra cannot be tabulated: an operation result, zero or one
    is not among the elements its ``elements()`` enumerates."""


class Tabulation(NamedTuple):
    """The operation tables of a finite algebra over carrier indices.

    ``elements`` is the carrier in enumeration order; ``add[i][j]`` and
    ``mul[i][j]`` are the indices of ``elements[i] + elements[j]`` and of
    ``elements[i] * elements[j]``; ``zero`` and ``one`` are indices too.
    Rows are lists. A tuple of indices maps back to the algebra's own values
    (``values``) and labels (``labels``).
    """

    algebra: WeightAlgebra
    elements: tuple
    add: list
    mul: list
    zero: int
    one: int

    def values(self, indices) -> tuple:
        return tuple(self.elements[i] for i in indices)

    def labels(self, indices) -> tuple:
        return tuple(self.algebra.describe(self.elements[i]) for i in indices)


def tabulate(alg: WeightAlgebra) -> Tabulation:
    """Tabulate a finite algebra: enumerate ``elements()`` once, then call
    ``add`` and ``mul`` exactly n^2 times each and index every result by
    hash. Nothing is cached on ``alg``; every call pays again."""
    elements = tuple(alg.elements())
    index = {x: i for i, x in enumerate(elements)}

    def table(op, symbol):
        rows = []
        for a in elements:
            results = [op(a, b) for b in elements]
            row = [index.get(x, -1) for x in results]
            if -1 in row:
                j = row.index(-1)
                raise CarrierNotClosedError(
                    f"{alg.name}: {alg.describe(a)} {symbol} {alg.describe(elements[j])}"
                    f" = {results[j]!r} is not in elements()"
                )
            rows.append(row)
        return rows

    def position(x, label):
        if x not in index:
            raise CarrierNotClosedError(f"{alg.name}: {label} {x!r} is not in elements()")
        return index[x]

    add, mul = table(alg.add, "+"), table(alg.mul, "*")
    return Tabulation(alg, elements, add, mul, position(alg.zero, "zero"), position(alg.one, "one"))


def _first_difference(xs: list, ys: list) -> Optional[int]:
    """First index at which two equally long lists differ, or None."""
    if xs == ys:
        return None
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _first_pair(t: Tabulation, violated):
    """First (a, b) whose ``violated(a, b)`` is true."""
    n = len(t.elements)
    return next(((a, b) for a in range(n) for b in range(n) if violated(a, b)), None)


def _first_row_difference(t: Tabulation, lhs, rhs):
    """First (a, b, c) at which row ``lhs(a, b)`` and row ``rhs(a, b)``
    differ, both indexed by c."""
    n = len(t.elements)
    for a in range(n):
        for b in range(n):
            c = _first_difference(lhs(a, b), rhs(a, b))
            if c is not None:
                return a, b, c
    return None


# --------------------------------------------------------------------------
# Axiom validation


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    holds: bool
    witness: Optional[tuple] = None
    witness_labels: Optional[tuple] = None


@dataclass(frozen=True)
class ValidationReport:
    algebra: str
    ok: bool
    checks: tuple

    def failures(self):
        return tuple(c for c in self.checks if not c.holds)

    def __str__(self):
        lines = [f"{self.algebra}: {'pass' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.holds else "VIOLATED"
            w = f"  witness {c.witness_labels}" if c.witness_labels else ""
            lines.append(f"  {c.axiom:<20} {mark}{w}")
        return "\n".join(lines)


def validate_axioms(alg: WeightAlgebra) -> ValidationReport:
    """Exhaustively check the strong-bimonoid axioms on a finite algebra.

    Returns one verdict per axiom with the first violating tuple in carrier
    enumeration order. Structural problems (malformed tables) surface as
    MalformedTableError from the algebra constructor, never as axiom
    failures here. All six checks scan the tables of one :func:`tabulate`.
    """
    t = tabulate(alg)
    n, add, mul = len(t.elements), t.add, t.mul
    checks = []

    def record(axiom, witness):
        if witness is None:
            checks.append(AxiomCheck(axiom, True))
        else:
            checks.append(AxiomCheck(axiom, False, t.values(witness), t.labels(witness)))

    def associativity(op):
        # row of (a op b) op c against the row of a op (b op c), over c
        return _first_row_difference(
            t, lambda a, b: op[op[a][b]], lambda a, b: [op[a][x] for x in op[b]]
        )

    def commutativity(op):
        return _first_pair(t, lambda a, b: op[a][b] != op[b][a])

    def unit(op, e, expect):
        # first a with e op a or a op e other than expect(a)
        return next(((a,) for a in range(n) if op[e][a] != expect(a) or op[a][e] != expect(a)), None)

    record("add-associativity", associativity(add))
    record("add-commutativity", commutativity(add))
    record("add-identity", unit(add, t.zero, lambda a: a))
    record("mul-associativity", associativity(mul))
    record("mul-identity", unit(mul, t.one, lambda a: a))
    record("zero-annihilation", unit(mul, t.zero, lambda a: t.zero))
    return ValidationReport(alg.name, all(c.holds for c in checks), tuple(checks))


# --------------------------------------------------------------------------
# Bounded lattices from an order relation


def lattice_algebra(name, names, leq_pairs) -> FiniteTableAlgebra:
    """Bounded lattice as a strong bimonoid: add = join, mul = meet.

    ``leq_pairs`` lists the <= relation (reflexive-transitive closure is taken
    here); the order must have unique lubs/glbs and a bottom and top.
    """
    names = tuple(names)
    n = len(names)
    idx = {x: i for i, x in enumerate(names)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        leq[idx[a]][idx[b]] = True
    for k in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True

    def extremum(candidates, below):
        # below=True: greatest element of candidates; else least.
        for c in candidates:
            if all((leq[d][c] if below else leq[c][d]) for d in candidates):
                return c
        return None

    def join(i, j):
        ub = [c for c in range(n) if leq[i][c] and leq[j][c]]
        m = extremum(ub, below=False)
        if m is None:
            raise ValueError(f"{name}: no unique join for {names[i]}, {names[j]}")
        return m

    def meet(i, j):
        lb = [c for c in range(n) if leq[c][i] and leq[c][j]]
        m = extremum(lb, below=True)
        if m is None:
            raise ValueError(f"{name}: no unique meet for {names[i]}, {names[j]}")
        return m

    add = [[join(i, j) for j in range(n)] for i in range(n)]
    mul = [[meet(i, j) for j in range(n)] for i in range(n)]
    bottom = extremum(list(range(n)), below=False)  # least element
    top = extremum(list(range(n)), below=True)  # greatest element
    if bottom is None or top is None:
        raise ValueError(f"{name}: order is not bounded")
    return FiniteTableAlgebra(name, names, add, mul, bottom, top)


# --------------------------------------------------------------------------
# Infinite carriers: naturals with adjoined infinity / adjoined zero


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


class NatPlusMinAlgebra(WeightAlgebra):
    """(N u {inf}, +, min, 0, inf); exact integers, inf is a tagged sentinel."""

    name = "NatPlusMin"

    def __init__(self):
        self.zero = 0
        self.one = INFINITY

    def add(self, a, b):
        if a is INFINITY or b is INFINITY:
            return INFINITY
        return a + b

    def mul(self, a, b):
        if a is INFINITY:
            return b
        if b is INFINITY:
            return a
        return a if a <= b else b

    def describe(self, a):
        return "inf" if a is INFINITY else str(a)

    def parse(self, value):
        if value is INFINITY or value in ("inf", "infinity"):
            return INFINITY
        n = int(value)
        if n < 0:
            raise ValueError(f"{self.name} elements are naturals or 'inf', got {value!r}")
        return n


class _AdjoinedZero:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "zero"


ADJOINED_ZERO = _AdjoinedZero()


class NatPlusPlusAlgebra(WeightAlgebra):
    """Naturals with a fresh absorbing zero; both operations act as + on N.

    add is + on N with the fresh element neutral; mul is + on N with the
    fresh element absorbing; one is the natural number 0.
    """

    name = "NatPlusPlus"

    def __init__(self):
        self.zero = ADJOINED_ZERO
        self.one = 0

    def add(self, a, b):
        if a is ADJOINED_ZERO:
            return b
        if b is ADJOINED_ZERO:
            return a
        return a + b

    def mul(self, a, b):
        if a is ADJOINED_ZERO or b is ADJOINED_ZERO:
            return ADJOINED_ZERO
        return a + b

    def describe(self, a):
        return "zero" if a is ADJOINED_ZERO else str(a)

    def parse(self, value):
        if value is ADJOINED_ZERO or value == "zero":
            return ADJOINED_ZERO
        n = int(value)
        if n < 0:
            raise ValueError(f"{self.name} elements are naturals or 'zero', got {value!r}")
        return n


# --------------------------------------------------------------------------
# Truncated function algebra: pointwise saturating sum / composition


class TruncFunAlgebra(WeightAlgebra):
    """All f: [0,m] -> [0,m] with f(0)=0; add pointwise saturating, mul composition.

    This is the finite function-space construction over the saturating
    monoid on [0,m]: right-distributive and zero-sum-free, but (for m >= 2)
    not bi-strongly zero-sum-free. Elements are (m+1)-tuples (f(0),...,f(m)).
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("TruncFun needs m >= 1")
        self.m = m
        self.name = f"TruncFun({m})"
        self.zero = (0,) * (m + 1)
        self.one = tuple(range(m + 1))

    def _check(self, f):
        if (
            not isinstance(f, tuple)
            or len(f) != self.m + 1
            or f[0] != 0
            or any(not (0 <= v <= self.m) for v in f)
        ):
            raise ValueError(f"{f!r} is not a valid {self.name} element")
        return f

    def add(self, a, b):
        m = self.m
        return tuple(min(m, x + y) for x, y in zip(a, b))

    def mul(self, a, b):
        # (a mul b)(c) = a(b(c))
        return tuple(a[v] for v in b)

    def describe(self, a):
        return "[" + ",".join(str(v) for v in a) + "]"

    def parse(self, value):
        if isinstance(value, str):
            value = [int(t) for t in re.findall(r"-?\d+", value)]
        return self._check(tuple(value))

    @property
    def is_finite(self):
        return True

    def elements(self):
        span = range(self.m + 1)
        for tail in itertools.product(span, repeat=self.m):
            yield (0,) + tail


# --------------------------------------------------------------------------
# Polynomials over the naturals with the monome-split product


@dataclass(frozen=True)
class Polynomial:
    """Coefficient sequence, index = degree, normalized (no trailing zeros)."""

    coeffs: tuple

    @staticmethod
    def of(coeffs: Sequence[int]) -> "Polynomial":
        coeffs = list(coeffs)
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monome(self):
        """At most one nonzero coefficient (the zero polynomial counts)."""
        return sum(1 for c in self.coeffs if c != 0) <= 1

    def at_zero(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def plus(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial.of(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def times(self, other: "Polynomial") -> "Polynomial":
        """Ordinary polynomial product."""
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.of(out)

    def scale(self, k: int) -> "Polynomial":
        return Polynomial.of([k * c for c in self.coeffs])

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for deg in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[deg]
            if c == 0:
                continue
            if deg == 0:
                terms.append(str(c))
            else:
                x = "x" if deg == 1 else f"x^{deg}"
                terms.append(x if c == 1 else f"{c}{x}")
        return "+".join(terms)


class PolyMonomeAlgebra(WeightAlgebra):
    """Polynomials over N: coefficientwise add; mul splits on the right factor.

    p mul q is the ordinary product when q is a monome, and p(0)*q otherwise.
    Right-distributive but not bi-strongly zero-sum-free (x mul (1+x) = 0).
    """

    name = "PolyMonome"

    def __init__(self):
        self.zero = Polynomial(())
        self.one = Polynomial((1,))

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a.plus(b)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        if b.is_monome:
            return a.times(b)
        return b.scale(a.at_zero())

    def describe(self, a):
        return str(a)

    def parse(self, value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial.of([value])
        if isinstance(value, (list, tuple)):
            return Polynomial.of(value)
        text = str(value).replace(" ", "")
        if not re.fullmatch(r"[0-9x^+]+", text):
            raise ValueError(f"cannot parse polynomial {value!r}")
        coeffs: dict = {}
        for term in text.split("+"):
            m = re.fullmatch(r"(?:(\d+))?(x(?:\^(\d+))?)?", term)
            if not m or not term:
                raise ValueError(f"cannot parse polynomial term {term!r}")
            c = int(m.group(1)) if m.group(1) else (1 if m.group(2) else 0)
            deg = 0 if not m.group(2) else (int(m.group(3)) if m.group(3) else 1)
            coeffs[deg] = coeffs.get(deg, 0) + c
        size = max(coeffs, default=-1) + 1
        return Polynomial.of([coeffs.get(d, 0) for d in range(size)])


# --------------------------------------------------------------------------
# Bundled instances


def boole() -> FiniteTableAlgebra:
    return FiniteTableAlgebra(
        "Boole",
        ("0", "1"),
        ((0, 1), (1, 1)),
        ((0, 0), (0, 1)),
        zero_index=0,
        one_index=1,
    )


def pentagon() -> FiniteTableAlgebra:
    # bottom=0, top=1, chain p < q on one side, r alone on the other
    return lattice_algebra(
        "PentagonN5",
        ("0", "p", "q", "r", "1"),
        [("0", "p"), ("p", "q"), ("q", "1"), ("0", "r"), ("r", "1")],
    )


def hexagon() -> FiniteTableAlgebra:
    # two incomparable 2-chains p < q and r < s between bottom and top
    return lattice_algebra(
        "Hexagon",
        ("0", "p", "q", "r", "s", "1"),
        [("0", "p"), ("p", "q"), ("q", "1"), ("0", "r"), ("r", "s"), ("s", "1")],
    )


def diamond() -> FiniteTableAlgebra:
    """The 4-element distributive lattice (2 x 2): join/meet of two incomparables."""
    return lattice_algebra(
        "Diamond",
        ("0", "p", "q", "1"),
        [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")],
    )


def b4() -> FiniteTableAlgebra:
    # 2+2=3 collapses sums of the "big" elements; 2*2=0 creates a zero divisor
    return FiniteTableAlgebra(
        "B4",
        ("0", "1", "2", "3"),
        (
            (0, 1, 2, 3),
            (1, 1, 3, 3),
            (2, 3, 3, 3),
            (3, 3, 3, 3),
        ),
        (
            (0, 0, 0, 0),
            (0, 1, 2, 3),
            (0, 2, 0, 2),
            (0, 3, 2, 3),
        ),
        zero_index=0,
        one_index=1,
    )


def b3prime() -> FiniteTableAlgebra:
    return FiniteTableAlgebra(
        "B3prime",
        ("0'", "1'", "2'"),
        (
            (0, 1, 2),
            (1, 2, 2),
            (2, 2, 2),
        ),
        (
            (0, 0, 0),
            (0, 1, 2),
            (0, 2, 0),
        ),
        zero_index=0,
        one_index=1,
    )


def nat_plus_min() -> NatPlusMinAlgebra:
    return NatPlusMinAlgebra()


def nat_plus_plus() -> NatPlusPlusAlgebra:
    return NatPlusPlusAlgebra()


def nat_plus_plus_table(cap: int = 3) -> FiniteTableAlgebra:
    """Finite truncation of the plus-plus algebra: naturals 0..cap under
    saturating addition (for both operations) plus the fresh absorbing zero.
    Positive, hence usable wherever a finite strongly zero-sum-free instance
    is needed."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    names = ("zero",) + tuple(str(i) for i in range(cap + 1))

    def add_idx(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(cap, (i - 1) + (j - 1)) + 1

    def mul_idx(i, j):
        if i == 0 or j == 0:
            return 0
        return min(cap, (i - 1) + (j - 1)) + 1

    n = cap + 2
    add = [[add_idx(i, j) for j in range(n)] for i in range(n)]
    mul = [[mul_idx(i, j) for j in range(n)] for i in range(n)]
    return FiniteTableAlgebra(f"NatPlusPlus[{cap}]", names, add, mul, 0, 1)


def trunc_fun(m: int = 2) -> TruncFunAlgebra:
    return TruncFunAlgebra(m)


def poly_monome() -> PolyMonomeAlgebra:
    return PolyMonomeAlgebra()


# The one registry of bundled algebras: display name, factory, extra
# lookup aliases. A name ending in "(m)" or "[m]" takes a natural-number
# parameter written in the same brackets, e.g. "TruncFun(3)"; its aliases
# call the factory with its default parameter.
_REGISTRY = (
    ("Boole", boole, ()),
    ("NatPlusMin", nat_plus_min, ()),
    ("NatPlusPlus", nat_plus_plus, ()),
    ("NatPlusPlus[m]", nat_plus_plus_table, ()),
    ("PentagonN5", pentagon, ("pentagon",)),
    ("Hexagon", hexagon, ()),
    ("Diamond", diamond, ()),
    ("B4", b4, ()),
    ("B3prime", b3prime, ()),
    ("TruncFun(m)", trunc_fun, ("truncfun",)),
    ("PolyMonome", poly_monome, ()),
)

BUILTIN_NAMES = tuple(name for name, _, _ in _REGISTRY)


def builtin(name: str) -> WeightAlgebra:
    """Look up a bundled algebra by name (case-insensitive), see BUILTIN_NAMES."""
    key = name.strip().lower()
    for label, factory, aliases in _REGISTRY:
        if key in aliases:
            return factory()
        if label.endswith(("(m)", "[m]")):
            pattern = re.escape(label[:-2].lower()) + r"(\d+)" + re.escape(label[-1])
            m = re.fullmatch(pattern, key)
            if m:
                return factory(int(m.group(1)))
        elif key == label.lower():
            return factory()
    raise UnknownAlgebraError(
        f"unknown algebra {name!r}; valid names: {', '.join(BUILTIN_NAMES)}"
    )


def bundled_finite_algebras() -> tuple:
    """Every finite registry entry once, in registry order, a parametrised
    one at its factory's default (used by checks and demos)."""
    return tuple(alg for alg in (factory() for _, factory, _ in _REGISTRY) if alg.is_finite)
