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
import math
import re
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


class UnknownAlgebraError(LookupError):
    """Raised by builtin() for names outside the bundled set."""


class InfiniteCarrierError(ValueError):
    """Raised when element enumeration is requested on an infinite carrier."""


class MalformedTableError(ValueError):
    """Structural defect in an operation table (shape or index range).

    Distinct from axiom failures: a malformed table cannot even be checked.
    """


class HierarchyInconsistencyError(AssertionError):
    """Computed verdicts contradict a proven implication: an implementation bug."""


class _Frozen:
    """Immutable record: its constructor sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Semantics(Enum):
    """Which of the two automaton semantics to evaluate."""

    RUN = "run"
    INIT = "init"


class WeightedAutomaton:
    """State bookkeeping shared by word and tree automata: the algebra, the
    nonempty tuple of distinct state names, and weight vectors over them.

    States are looked up by name, whatever their type, except in a run: the
    run functions of ``words`` and ``trees`` take state indices only, as
    their run enumerators yield them, so an integer name is never misread.
    ``kind`` ("word" or "tree") names the module that evaluates the
    automaton. Callers dispatch on it instead of ``isinstance``, so they
    import neither module, and an automaton built by a second import of the
    package (one dropped from ``sys.modules`` and imported again) still
    dispatches right.
    """

    kind: str

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
        """A state in a run: an index into ``states``, never a name."""
        if not (isinstance(q, int) and 0 <= q < len(self.states)):
            raise ValueError(f"run state {q!r} is not an index into the states")
        return q

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
    """Base interface: add/mul/zero/one plus labels.

    Subclasses set ``self.zero`` and ``self.one`` and implement ``add`` and
    ``mul``. Values are immutable and shareable; the one mutable exception is
    :class:`CountingAlgebra`.

    Two weights are equal exactly when they are the same carrier element, so
    weights compare with ``==`` and must be hashable, on every carrier,
    finite or not: the init recursion interns the vectors it reaches and
    stores each step between their ids (``words.state_vector``,
    ``trees.state_vector``), and counted runs key on weights. Every bundled algebra meets this.

    Pruned run semantics (``run_semantics(..., prune=True)`` and the
    ``explore`` walks) counts runs by (state, weight) instead of listing
    them: it also relies on ``add`` being commutative and associative and on
    zero annihilating. On tables that break the axioms (loaded with
    ``allow_invalid``) only the unpruned enumeration is literal; the init
    table stays literal on them, since a hit gives the value the same step
    would compute.
    """

    name = "algebra"

    zero: Any
    one: Any

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

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

        Property decisions and axiom validation tabulate the operations
        (:func:`tabulate`) and look results up by hash, so a finite carrier's
        elements must be hashable (see :class:`WeightAlgebra`).
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


def _is_int(v) -> bool:
    # bool is an int subclass, but a JSON true is not a number
    return isinstance(v, int) and not isinstance(v, bool)


def _is_index(v, n) -> bool:
    return _is_int(v) and 0 <= v < n


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

    The counters are the one mutable state among the algebras; read them with
    ``read_counts`` and zero them with ``reset_counts``.
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

    def describe(self, a):
        return self.inner.describe(a)

    def parse(self, value):
        return self.inner.parse(value)

    @property
    def is_finite(self):
        return self.inner.is_finite

    def elements(self):
        return self.inner.elements()


class CostProfile(NamedTuple):
    kind: str  # "word" | "tree"
    input_label: str
    n_states: int
    input_size: int
    run_counts: dict
    init_counts: dict
    run_value: str
    init_value: str
    predicted: dict

    def to_dict(self):
        # the fields in order, under their JSON names
        keys = ("kind", "input", "states", "size", "run", "init", "run_value", "init_value", "predicted")
        return dict(zip(keys, self))

    def __str__(self):
        lines = [
            f"cost profile ({self.kind}, |Q|={self.n_states}, input {self.input_label})",
            f"  run : {self.run_counts['adds']} adds, {self.run_counts['muls']} muls -> {self.run_value}",
            f"  init: {self.init_counts['adds']} adds, {self.init_counts['muls']} muls -> {self.init_value}",
        ]
        for k, v in self.predicted.items():
            lines.append(f"  predicted {k}: {v}")
        return "\n".join(lines)


def _cost_profile(automaton, inp, evaluate, label: str, size: int, predicted: dict) -> CostProfile:
    """Both semantics of a checked input, evaluated by ``evaluate`` under a
    counting wrapper, with the totals and the given predictions."""
    counting = CountingAlgebra(automaton.algebra)
    shadow = automaton.with_algebra(counting)

    def measured(semantics):
        counting.reset_counts()
        value = evaluate(shadow, inp, semantics)
        return dict(zip(("adds", "muls"), counting.read_counts())), automaton.algebra.describe(value)

    run_counts, run_value = measured(Semantics.RUN)
    init_counts, init_value = measured(Semantics.INIT)
    return CostProfile(
        automaton.kind, label, len(automaton.states), size,
        run_counts, init_counts, run_value, init_value, predicted,
    )


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
    mul, zero = alg.mul, alg.zero
    totals: dict = {}
    for weights, f in zip(runs, final):
        if f == zero:
            continue
        for w, count in weights.items():
            x = mul(w, f)
            if x != zero:
                totals[x] = totals.get(x, 0) + count
    total = None
    for x, count in totals.items():
        term = _multiple(alg, count, x)
        total = term if total is None else alg.add(total, term)
    return alg.zero if total is None else total


def _count_cycle(tables: Tabulation) -> tuple:
    """The least index t and period p with (t + p)·x = t·x for every element
    x, read off the add table: x, 2x, 3x, ... run into a cycle for each x."""
    t = p = 1
    for x in range(len(tables.elements)):
        first: dict = {}  # multiple -> least n with n·x equal to it
        m = x
        while m not in first:
            first[m] = len(first) + 1
            m = tables.add[m][x]
        t, p = max(t, first[m]), math.lcm(p, len(first) + 1 - first[m])
    return t, p


def _configuration(vec: tuple, runs: list, cycle: Optional[tuple]) -> tuple:
    """The hashable configuration of an evolved vector and counted runs: both
    semantics of an input and of all its extensions depend on it alone.

    With ``cycle`` = (t, p) from :func:`_count_cycle`, each count c >= t + p
    is first set to t + (c - t) mod p, in place. That map respects the sums
    and products counts go through, and c·x depends only on its result, so
    values stay exact and a finite carrier has finitely many configurations.
    """
    if cycle is not None:
        t, p = cycle
        for weights in runs:
            for w, c in weights.items():
                if c >= t + p:
                    weights[w] = t + (c - t) % p
    return vec, tuple([frozenset(weights.items()) for weights in runs])


def _images(rows) -> dict:
    """The run and init value sets of ``(rank, input, run value, init
    value)`` rows, each in first-seen order. Values are deduplicated by hash,
    which the counted runs that produce them already need (see
    :class:`WeightAlgebra`)."""
    run: dict = {}
    init: dict = {}
    for *_, run_value, init_value in rows:
        run[run_value] = init[init_value] = None
    return {Semantics.RUN: list(run), Semantics.INIT: list(init)}


# The most vectors an init table holds (the word table of ``words`` and the
# one ``trees.state_vector`` keeps); past them its call takes plain steps: on
# a carrier whose values keep growing no vector repeats, and an unbounded
# table would keep every vector where the plain recursion keeps one.
# ``words._run_fold`` drops its memo if this many entries drew no hit. Each
# reader looks it up here when its call starts.
MEMO_MISS_LIMIT = 1024

# Entries after which the memo of an unpruned word run fold stops growing
# (``words._run_fold``); a finite carrier needs a few per symbol of the word.
RUN_MEMO_LIMIT = 2**16


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
    (``values``) and labels (``labels``). The tables are read-only after
    :func:`tabulate`; ``verdicts`` holds the property verdicts decided on
    them, which only :func:`~.properties.check` writes, and ``derived`` what
    those decisions read, which only :func:`~.properties._kept` writes.
    """

    algebra: WeightAlgebra
    elements: tuple
    add: list
    mul: list
    zero: int
    one: int
    verdicts: dict
    derived: dict

    def values(self, indices) -> tuple:
        return tuple(self.elements[i] for i in indices)

    def labels(self, indices) -> tuple:
        return tuple(self.algebra.describe(self.elements[i]) for i in indices)


_MAX_TABULATED = 4096  # elements; the two tables then hold at most 2^25 entries


def tabulate(alg: WeightAlgebra) -> Tabulation:
    """Tabulate a finite algebra: enumerate ``elements()`` once, then call
    ``add`` and ``mul`` exactly n^2 times each and index every result by
    hash; a :class:`FiniteTableAlgebra` itself (a subclass may override the
    operations) is its own tables, copied with no call. Nothing is cached on
    ``alg``; every call pays again. A carrier of more than
    ``_MAX_TABULATED`` elements is refused before any operation."""
    elements = tuple(itertools.islice(alg.elements(), _MAX_TABULATED + 1))
    if len(elements) > _MAX_TABULATED:
        raise ValueError(f"cannot tabulate {alg.name}: it has more than {_MAX_TABULATED} elements")
    if type(alg) is FiniteTableAlgebra:  # elements are range(n), closed under both tables
        return Tabulation(alg, elements, list(map(list, alg.add_table)), list(map(list, alg.mul_table)),
                          alg.zero, alg.one, {}, {})
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
    return Tabulation(alg, elements, add, mul, position(alg.zero, "zero"), position(alg.one, "one"), {}, {})


def _tables(alg: WeightAlgebra | Tabulation) -> Tabulation:
    """``alg`` if it is a tabulation, else its :func:`tabulate` tables."""
    return alg if isinstance(alg, Tabulation) else tabulate(alg)


def _first_difference(xs: list, ys: list) -> int:
    """First index at which two equally long lists differ; they must differ."""
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _first_asymmetry(op: list):
    """First (a, b) with ``op[a][b] != op[b][a]``: row a against column a."""
    for a, (row, col) in enumerate(zip(op, zip(*op))):
        if tuple(row) != col:
            return a, _first_difference(row, col)
    return None


def _gather(indices: Sequence[int]) -> Callable:
    """``row -> tuple(row[i] for i in indices)`` as one C-level call."""
    if len(indices) == 1:  # itemgetter of one index returns the item bare
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _first_slab_difference(op: list, rows: list, rhs, firsts: Iterable[int]):
    """First (a, b, c), with a taken from ``firsts`` in order, such that
    ``rows[op[a][b]][c] != rhs(a)[b][c]``.

    ``rows`` holds tuples and ``rhs(a)`` is the slab of every b at once: a
    list over b of tuples over c. Each a costs one comparison of two slabs.
    """
    for a in firsts:
        left, right = list(_gather(op[a])(rows)), rhs(a)
        if left != right:
            b = _first_difference(left, right)
            return a, b, _first_difference(left[b], right[b])
    return None


def _associativity(op: list) -> tuple:
    """The law (a op b) op c = a op (b op c) as ``(rows, rhs)`` of
    :func:`_first_slab_difference`."""
    getters = [_gather(row) for row in op]  # getters[b] reads a's row at op[b]
    return [tuple(row) for row in op], lambda a: [g(op[a]) for g in getters]


def _generators(op: list) -> Optional[list]:
    """A generating set G of the table operation ``op`` in carrier order, or
    None as soon as 2|G| >= n.

    An element joins G when the right-closure of G so far (every x op g for
    a reached x and a g in G) has not reached it, so every element is a
    left-bracketed product (...(g1 op g2) op ...) op gk of generators. The
    closure reads about n*|G| table entries.
    """
    n = len(op)
    gens, reached = [], [False] * n
    for x in range(n):
        if reached[x]:
            continue
        if 2 * (len(gens) + 1) >= n:
            return None
        gens.append(x)
        todo = [x, *(op[r][x] for r in range(n) if reached[r])]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                todo.extend(op[y][g] for g in gens)
    return gens


def _sum_generators(t: Tabulation) -> Optional[list]:
    """The generators of (B, +) where + is associative at each, and so
    everywhere; else None. Both distributive laws are proved on them
    (:func:`_first_law_difference`)."""
    gens = _generators(t.add)
    return None if gens is None or _first_slab_difference(t.add, *_associativity(t.add), gens) else gens


def _first_law_difference(op: list, law: tuple, base: Optional[list]):
    """First (a, b, c) at which the law ``(rows, rhs)`` fails, over every a
    (see :func:`_first_slab_difference`); None where it holds.

    A law that holds is proved on ``base`` instead, when given, in fewer
    slabs: for the associativity of op, its generators; for a law
    distributive over op, the same once op is associative at each
    (:func:`_sum_generators`). The a whose slab holds are closed under op:
    for associativity always (the left nucleus of a magma is a submagma,
    the argument of Light's test), for a distributive law over op once op
    is associative. So they are every a, on any table. Where a slab fails,
    the full scan runs and returns the first witness in carrier order.
    """
    if base is not None and _first_slab_difference(op, *law, base) is None:
        return None
    return _first_slab_difference(op, *law, range(len(op)))


# --------------------------------------------------------------------------
# Axiom validation


class AxiomCheck(NamedTuple):
    axiom: str
    holds: bool
    witness: Optional[tuple] = None
    witness_labels: Optional[tuple] = None


class ValidationReport(NamedTuple):
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


def validate_axioms(alg: WeightAlgebra | Tabulation) -> ValidationReport:
    """Exhaustively check the strong-bimonoid axioms on a finite algebra,
    tabulated afresh, or on its :func:`tabulate` tables.

    Returns one verdict per axiom with the first violating tuple in carrier
    enumeration order. Structural problems (malformed tables) surface as
    MalformedTableError from the algebra constructor, never as axiom
    failures here. All six checks read the tables of one :func:`tabulate`.
    Commutativity and the units scan them. An associativity that holds is
    proved on a generating set of its operation where that takes fewer
    slabs (:func:`_first_law_difference`), and one that fails is scanned for
    its first witness.
    """
    t = _tables(alg)
    n, add, mul = len(t.elements), t.add, t.mul
    checks = []

    def record(axiom, witness):
        if witness is None:
            checks.append(AxiomCheck(axiom, True))
        else:
            checks.append(AxiomCheck(axiom, False, t.values(witness), t.labels(witness)))

    def unit(op, e, expect):
        # first a with e op a or a op e other than expect(a)
        return next(((a,) for a in range(n) if op[e][a] != expect(a) or op[a][e] != expect(a)), None)

    record("add-associativity", _first_law_difference(add, _associativity(add), _generators(add)))
    record("add-commutativity", _first_asymmetry(add))
    record("add-identity", unit(add, t.zero, lambda a: a))
    record("mul-associativity", _first_law_difference(mul, _associativity(mul), _generators(mul)))
    record("mul-identity", unit(mul, t.one, lambda a: a))
    record("zero-annihilation", unit(mul, t.zero, lambda a: t.zero))
    return ValidationReport(t.algebra.name, all(c.holds for c in checks), tuple(checks))


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
        for x in (a, b):
            if x not in idx:
                raise ValueError(f"{name}: order pair ({a!r}, {b!r}) names {x!r}, which is not an element")
        leq[idx[a]][idx[b]] = True
    for k in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True

    geq = [list(column) for column in zip(*leq)]

    def least(order, candidates):
        return next((c for c in candidates if all(order[c][d] for d in candidates)), None)

    def bound(order, word, i, j):
        # the least c with i, j order c: the join under leq, the meet under geq
        found = least(order, [c for c in range(n) if order[i][c] and order[j][c]])
        if found is None:
            raise ValueError(f"{name}: no unique {word} for {names[i]}, {names[j]}")
        return found

    add = [[bound(leq, "join", i, j) for j in range(n)] for i in range(n)]
    mul = [[bound(geq, "meet", i, j) for j in range(n)] for i in range(n)]
    bottom, top = least(leq, range(n)), least(geq, range(n))
    if bottom is None or top is None:
        raise ValueError(f"{name}: order is not bounded")
    return FiniteTableAlgebra(name, names, add, mul, bottom, top)


# --------------------------------------------------------------------------
# Infinite carriers: naturals with adjoined infinity / adjoined zero


class _Adjoined:
    """An element adjoined to the naturals, unique like ``None``: its repr is
    its label, and ``copy``, ``deepcopy`` and ``pickle`` hand back the
    instance itself, through the module global ``__reduce__`` names."""

    __slots__ = ("label", "global_name")

    def __init__(self, label: str, global_name: str):
        self.label = label
        self.global_name = global_name

    def __repr__(self):
        return self.label

    def __reduce__(self):
        return self.global_name


INFINITY = _Adjoined("inf", "INFINITY")
ADJOINED_ZERO = _Adjoined("zero", "ADJOINED_ZERO")


class _NaturalsWith(WeightAlgebra):
    """The naturals with the element ``adjoined``. ``parse`` reads its
    label, the other ``labels``, or a natural number (a numeral within
    Python's integer-string limit)."""

    adjoined: _Adjoined
    labels: tuple

    def describe(self, a) -> str:
        """The adjoined element's label, or a natural's digits however many:
        ``str`` refuses more than ``sys.get_int_max_str_digits()`` digits (640
        at the least), so a longer one is split at a power of ten."""
        if a is self.adjoined or a.bit_length() <= 2000:  # at most 603 digits
            return str(a)
        half = a.bit_length() * 3 // 20  # about half its digits: log10(2) is about 3/10
        high, low = divmod(a, 10**half)
        return self.describe(high) + self.describe(low).zfill(half)

    def parse(self, value):
        if value is self.adjoined or value in self.labels:
            return self.adjoined
        # a numeral, an int or an integral float; int() would also read
        # true as 1 and 1.5 as 1
        whole = isinstance(value, str) or _is_int(value) or isinstance(value, float) and value.is_integer()
        n = int(value) if whole else -1
        if n < 0:
            raise ValueError(f"{self.name} elements are naturals or {self.labels[0]!r}, got {value!r}")
        return n


class NatPlusMinAlgebra(_NaturalsWith):
    """(N u {inf}, +, min, 0, inf); exact integers, inf is a tagged sentinel."""

    name = "NatPlusMin"
    adjoined = INFINITY
    labels = ("inf", "infinity")
    zero = 0
    one = INFINITY

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


class NatPlusPlusAlgebra(_NaturalsWith):
    """Naturals with a fresh absorbing zero; both operations act as + on N.

    add is + on N with the fresh element neutral; mul is + on N with the
    fresh element absorbing; one is the natural number 0.
    """

    name = "NatPlusPlus"
    adjoined = ADJOINED_ZERO
    labels = ("zero",)
    zero = ADJOINED_ZERO
    one = 0

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
        self._cap = tuple(min(m, k) for k in range(2 * m + 1))  # _cap[x + y] = min(m, x + y)

    def add(self, a, b):
        cap = self._cap
        return tuple([cap[x + y] for x, y in zip(a, b)])

    def mul(self, a, b):
        # (a mul b)(c) = a(b(c))
        return tuple([a[v] for v in b])

    def describe(self, a):
        return "[" + ",".join(str(v) for v in a) + "]"

    def parse(self, value):
        if isinstance(value, str):
            value = [int(t) for t in re.findall(r"-?\d+", value)]
        f = tuple(value)
        if len(f) != self.m + 1 or f[0] != 0 or not all(_is_index(v, self.m + 1) for v in f):
            raise ValueError(f"{f!r} is not a valid {self.name} element")
        return f

    @property
    def is_finite(self):
        return True

    def elements(self):
        span = range(self.m + 1)
        for tail in itertools.product(span, repeat=self.m):
            yield (0,) + tail


# --------------------------------------------------------------------------
# Polynomials over the naturals with the monome-split product


class Polynomial(_Frozen):
    """Coefficient sequence, index = degree, normalized (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"Polynomial(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return Polynomial, (self.coeffs,)

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

    def at_zero(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def plus(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial.of(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

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

    zero = Polynomial(())
    one = Polynomial((1,))

    # Coefficients are stored densely, so a label's degree is its size in
    # memory: a nine-character label could ask for gigabytes. parse refuses
    # a label of a higher degree before allocating.
    MAX_DEGREE = 2**16

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a.plus(b)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        c = b.coeffs  # normalised: a monome's one nonzero coefficient is the last
        if any(c[:-1]):
            return b.scale(a.at_zero())
        if not c or a.is_zero:
            return self.zero
        # the product with the monome k·x^d: a shifted by d, scaled by k
        return Polynomial((0,) * (len(c) - 1) + tuple([c[-1] * x for x in a.coeffs]))

    def parse(self, value):
        if isinstance(value, Polynomial):
            return value
        if _is_int(value):
            return Polynomial.of([value])
        if isinstance(value, (list, tuple)):
            if not all(_is_int(c) for c in value):
                raise ValueError(f"coefficients must be integers, got {value!r}")
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
        if size > self.MAX_DEGREE + 1:
            raise ValueError(f"{value!r} has a degree above {self.MAX_DEGREE}")
        return Polynomial.of([coeffs.get(d, 0) for d in range(size)])


# --------------------------------------------------------------------------
# Bundled instances


def boole() -> FiniteTableAlgebra:
    return lattice_algebra("Boole", ("0", "1"), [("0", "1")])


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
    if cap + 2 > _MAX_TABULATED:  # refused before the (cap + 2)^2 tables are built
        raise ValueError(f"NatPlusPlus[{cap}] has {cap + 2} elements; a table holds at most {_MAX_TABULATED}")
    names = ("zero",) + tuple(str(i) for i in range(cap + 1))

    # index 0 is the fresh zero, neutral for add and absorbing for mul;
    # index i >= 1 is the natural i - 1, and both operations add saturating
    n = cap + 2
    sums = [[min(cap, i + j - 2) + 1 for j in range(1, n)] for i in range(1, n)]
    add = [list(range(n))] + [[i] + row for i, row in enumerate(sums, start=1)]
    mul = [[0] * n] + [[0] + row for row in sums]
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
