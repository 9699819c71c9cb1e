"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive expected values by brute force
(subset-construction NFA simulation, dense state-word enumeration, pointwise
function evaluation, the literal property and axiom checkers) so the library
code paths they check are never trusted to test themselves.
"""

import itertools
import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import AxiomCheck, ValidationReport
from bimonoid_automata.properties import BimonoidProperty, HalfCondition, PropertyVerdict


@pytest.fixture(scope="session")
def finite_algebras():
    return ba.bundled_finite_algebras()


@pytest.fixture(scope="session")
def branching_alphabet():
    return T.RankedAlphabet({"alpha": 0, "sigma": 2})


# --------------------------------------------------------------------------
# NFA oracle: textbook subset-construction simulation


def nfa_accepts(initial, finals, arcs, word):
    current = set(initial)
    for a in word:
        current = {q2 for q in current for (p, sym, q2) in arcs if p == q and sym == a}
    return bool(current & set(finals))


def nfa_as_boole_automaton(alphabet, states, initial, finals, arcs):
    alg = ba.boole()
    return W.WordAutomaton(
        alg,
        alphabet,
        states,
        {q: 1 for q in initial},
        {q: 1 for q in finals},
        [(p, a, q, 1) for (p, a, q) in arcs],
    )


# --------------------------------------------------------------------------
# Dense oracle for the bottom-up state vector (enumerates every state word)


def dense_state_vector(automaton, t):
    alg = automaton.algebra
    nq = len(automaton.states)
    child_vecs = [dense_state_vector(automaton, c) for c in t.children]
    k = len(t.children)
    out = []
    for q in range(nq):
        total = alg.zero
        for sw in itertools.product(range(nq), repeat=k):
            term = alg.one
            for i, qi in enumerate(sw):
                term = alg.mul(term, child_vecs[i][qi])
            term = alg.mul(term, automaton.delta(sw, t.symbol, q))
            total = alg.add(total, term)
        out.append(total)
    return tuple(out)


# --------------------------------------------------------------------------
# Random trees and runs


def random_tree(rng: random.Random, alphabet: T.RankedAlphabet, max_depth: int) -> T.Tree:
    nullary = alphabet.of_rank(0)
    if max_depth <= 1:
        return T.Tree(nullary[rng.randrange(len(nullary))])
    sym = alphabet.symbols[rng.randrange(len(alphabet.symbols))]
    k = alphabet.rank(sym)
    return T.Tree(sym, tuple(random_tree(rng, alphabet, max_depth - 1) for _ in range(k)))


def random_run(rng: random.Random, automaton, t):
    return {p: rng.randrange(len(automaton.states)) for p in T.positions(t)}


# --------------------------------------------------------------------------
# Cut-rewrite endpoint sets, computed over the whole rewrite DAG. The memoized
# union over successors covers the endpoint of *every* maximal chain without
# enumerating chains one by one; every produced cut is validated on the way.


def expand_normal_forms(t, cut, memo):
    if cut in memo:
        return memo[cut]
    succs = []
    for i in T.expandable_indices(t, cut):
        nxt = T.expand(t, cut, i)
        T.validate_cut(t, nxt)
        succs.append(nxt)
    result = (
        frozenset([cut])
        if not succs
        else frozenset().union(*(expand_normal_forms(t, s, memo) for s in succs))
    )
    memo[cut] = result
    return result


def merge_normal_forms(t, cut, memo):
    if cut in memo:
        return memo[cut]
    succs = []
    for i in T.mergeable_indices(t, cut):
        nxt = T.merge(t, cut, i)
        T.validate_cut(t, nxt)
        succs.append(nxt)
    result = (
        frozenset([cut])
        if not succs
        else frozenset().union(*(merge_normal_forms(t, s, memo) for s in succs))
    )
    memo[cut] = result
    return result


# --------------------------------------------------------------------------
# Literal property and axiom checkers: every quantified tuple in carrier
# enumeration order, each condition evaluated with the algebra's own
# add/mul/is_zero/equal. The library decides the same conditions on
# tabulated operations; these are the reference for verdicts and witnesses.


def _verdict(alg, prop, witness):
    if witness is None:
        return PropertyVerdict(prop, True)
    return PropertyVerdict(prop, False, tuple(witness), tuple(alg.describe(x) for x in witness))


def _first(alg, arity, violates):
    elems = list(alg.elements())
    for tup in itertools.product(elems, repeat=arity):
        if violates(*tup):
            return tup
    return None


def literal_check(alg, prop: BimonoidProperty) -> PropertyVerdict:
    """Decide one property by exhaustive search; witness on failure."""
    z = alg.is_zero
    add, mul = alg.add, alg.mul
    eq = alg.equal

    if prop is BimonoidProperty.ZERO_SUM_FREE:
        witness = _first(alg, 2, lambda a, b: z(add(a, b)) != (z(a) and z(b)))
    elif prop is BimonoidProperty.STRONGLY_ZSF:
        witness = _first(
            alg, 3, lambda a, b, c: z(mul(add(a, b), c)) != (z(mul(a, c)) and z(mul(b, c)))
        )
    elif prop is BimonoidProperty.BI_STRONGLY_ZSF:
        witness = _first(
            alg,
            4,
            lambda a, b, bp, c: z(mul(mul(a, add(b, bp)), c))
            != (z(mul(mul(a, b), c)) and z(mul(mul(a, bp), c))),
        )
    elif prop is BimonoidProperty.ZERO_DIVISOR_FREE:
        witness = _first(alg, 2, lambda a, b: z(mul(a, b)) != (z(a) or z(b)))
    elif prop is BimonoidProperty.POSITIVE:
        for part in (BimonoidProperty.ZERO_SUM_FREE, BimonoidProperty.ZERO_DIVISOR_FREE):
            sub = literal_check(alg, part)
            if not sub.holds:
                return PropertyVerdict(prop, False, sub.witness, sub.witness_labels)
        witness = None
    elif prop is BimonoidProperty.ZERO_RIGHT_DISTRIBUTIVE:
        witness = _first(
            alg, 3, lambda a, b, c: z(mul(add(a, b), c)) != z(add(mul(a, c), mul(b, c)))
        )
    elif prop is BimonoidProperty.RIGHT_DISTRIBUTIVE:
        witness = _first(
            alg, 3, lambda a, b, c: not eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))
        )
    elif prop is BimonoidProperty.LEFT_DISTRIBUTIVE:
        witness = _first(
            alg, 3, lambda a, b, c: not eq(mul(c, add(a, b)), add(mul(c, a), mul(c, b)))
        )
    elif prop is BimonoidProperty.DISTRIBUTIVE:
        for part in (BimonoidProperty.RIGHT_DISTRIBUTIVE, BimonoidProperty.LEFT_DISTRIBUTIVE):
            sub = literal_check(alg, part)
            if not sub.holds:
                return PropertyVerdict(prop, False, sub.witness, sub.witness_labels)
        witness = None
    elif prop is BimonoidProperty.COMMUTATIVE:
        witness = _first(alg, 2, lambda a, b: not eq(mul(a, b), mul(b, a)))
    else:
        raise ValueError(f"unknown property {prop!r}")
    return _verdict(alg, prop, witness)


def literal_check_half(alg, half: HalfCondition) -> PropertyVerdict:
    """Decide one one-sided support condition; witness violates the implication."""
    z = alg.is_zero
    add, mul = alg.add, alg.mul

    if half is HalfCondition.RUN_TO_INIT:
        witness = _first(alg, 3, lambda a, b, c: not z(mul(a, c)) and z(mul(add(a, b), c)))
    elif half is HalfCondition.INIT_TO_RUN:
        witness = _first(
            alg, 3, lambda a, b, c: not z(mul(add(a, b), c)) and z(mul(a, c)) and z(mul(b, c))
        )
    elif half is HalfCondition.TREE_RUN_TO_INIT:
        witness = _first(
            alg,
            4,
            lambda a, b, bp, c: not z(mul(mul(a, b), c)) and z(mul(mul(a, add(b, bp)), c)),
        )
    elif half is HalfCondition.TREE_INIT_TO_RUN:
        witness = _first(
            alg,
            4,
            lambda a, b, bp, c: not z(mul(mul(a, add(b, bp)), c))
            and z(mul(mul(a, b), c))
            and z(mul(mul(a, bp), c)),
        )
    else:
        raise ValueError(f"unknown half condition {half!r}")
    return _verdict(alg, half, witness)


def literal_validate_axioms(alg) -> ValidationReport:
    """Exhaustively check the strong-bimonoid axioms on a finite algebra."""
    elems = list(alg.elements())
    checks = []

    def record(axiom, witness):
        if witness is None:
            checks.append(AxiomCheck(axiom, True))
        else:
            labels = tuple(alg.describe(x) for x in witness)
            checks.append(AxiomCheck(axiom, False, tuple(witness), labels))

    def first_triple(violates):
        for triple in itertools.product(elems, repeat=3):
            if violates(*triple):
                return triple
        return None

    def first_pair(violates):
        for pair in itertools.product(elems, repeat=2):
            if violates(*pair):
                return pair
        return None

    record(
        "add-associativity",
        first_triple(lambda a, b, c: not alg.equal(alg.add(alg.add(a, b), c), alg.add(a, alg.add(b, c)))),
    )
    record(
        "add-commutativity",
        first_pair(lambda a, b: not alg.equal(alg.add(a, b), alg.add(b, a))),
    )
    record(
        "add-identity",
        next(
            (
                (a,)
                for a in elems
                if not alg.equal(alg.add(alg.zero, a), a) or not alg.equal(alg.add(a, alg.zero), a)
            ),
            None,
        ),
    )
    record(
        "mul-associativity",
        first_triple(lambda a, b, c: not alg.equal(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c)))),
    )
    record(
        "mul-identity",
        next(
            (
                (a,)
                for a in elems
                if not alg.equal(alg.mul(alg.one, a), a) or not alg.equal(alg.mul(a, alg.one), a)
            ),
            None,
        ),
    )
    record(
        "zero-annihilation",
        next(
            (
                (a,)
                for a in elems
                if not alg.is_zero(alg.mul(alg.zero, a)) or not alg.is_zero(alg.mul(a, alg.zero))
            ),
            None,
        ),
    )
    return ValidationReport(alg.name, all(c.holds for c in checks), tuple(checks))


# --------------------------------------------------------------------------
# Literal word semantics, written out from the definitions with explicit
# index loops. On tables that break the axioms the order of every add and
# mul matters, so these fix it: runs in lexicographic order, each run
# multiplied left to right, each column summed from the first state on.


def literal_word_runs(automaton, word):
    """Sum over runs in lexicographic order of initial[q0]·M1[q0][q1]·…·final[qn]."""
    alg = automaton.algebra
    total = None
    for run in itertools.product(range(len(automaton.states)), repeat=len(word) + 1):
        weight = automaton.initial[run[0]]
        for j, a in enumerate(word):
            weight = alg.mul(weight, automaton.transitions[a][run[j]][run[j + 1]])
        weight = alg.mul(weight, automaton.final[run[-1]])
        total = weight if total is None else alg.add(total, weight)
    return total


def _literal_dot(alg, vec, column):
    acc = alg.mul(vec[0], column[0])
    for p in range(1, len(vec)):
        acc = alg.add(acc, alg.mul(vec[p], column[p]))
    return acc


def literal_word_vectors(automaton, word):
    """The initial vector, then the vector after each prefix: no memo, one
    matrix product per symbol."""
    alg = automaton.algebra
    nq = len(automaton.states)
    vecs = [tuple(automaton.initial)]
    for a in word:
        m = automaton.transitions[a]
        vecs.append(tuple(_literal_dot(alg, vecs[-1], [m[p][q] for p in range(nq)]) for q in range(nq)))
    return vecs


def literal_word_init(automaton, word):
    """The initial vector times each symbol's matrix, then the final fold."""
    return _literal_dot(automaton.algebra, literal_word_vectors(automaton, word)[-1], automaton.final)


# --------------------------------------------------------------------------
# The tree init recursion with one node step per position and no memo at all:
# neither equal subtrees nor equal child vectors are shared.


def plain_tree_vectors(automaton, t):
    """Position -> (symbol, child vectors, evolved vector), post-order."""
    out = {}
    for pos in T.postorder(t):
        node = T.subtree_at(t, pos)
        children = tuple(out[pos + (i,)][2] for i in range(1, len(node.children) + 1))
        out[pos] = (node.symbol, children, T._init_node(automaton, node.symbol, children))
    return out


# --------------------------------------------------------------------------
# The support sweep decided input by input: no configurations, no walk.


def per_input_sweep(theorem, config, random_automaton, mod, inputs, compare) -> dict:
    """The report of a support sweep as a dict, from ``run_semantics`` and
    ``initial_semantics`` of every input of every automaton in order, up to
    the first input on which ``compare`` names a direction."""
    from bimonoid_automata.harness import CheckReport, CheckWitness

    alg = config.algebra
    rng = random.Random(config.seed)
    checked = 0
    for trial in range(config.num_automata):
        automaton = random_automaton(rng)
        for inp in inputs:
            checked += 1
            run = mod.run_semantics(automaton, inp, prune=True)
            init = mod.initial_semantics(automaton, inp)
            direction = compare(alg, run, init)
            if direction is not None:
                witness = CheckWitness(automaton, inp, alg.describe(run), alg.describe(init), direction)
                stats = {"automata_checked": trial + 1, "inputs_checked": checked}
                return CheckReport(theorem, alg.name, "counterexample", False, {}, witness, stats, config.seed).to_dict()
    stats = {"automata_checked": config.num_automata, "inputs_checked": checked}
    return CheckReport(theorem, alg.name, "consistent", True, {}, None, stats, config.seed).to_dict()


def per_input_images(mod, automaton, inputs) -> dict:
    """Both semantics' value sets in first-seen order, from ``run_semantics``
    and ``initial_semantics`` of each input."""
    run: dict = {}
    init: dict = {}
    for inp in inputs:
        run[mod.run_semantics(automaton, inp, prune=True)] = None
        init[mod.initial_semantics(automaton, inp)] = None
    return {ba.Semantics.RUN: list(run), ba.Semantics.INIT: list(init)}
