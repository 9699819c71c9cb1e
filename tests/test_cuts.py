import random

import pytest

import bimonoid_automata as ba
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T

from conftest import expand_normal_forms, merge_normal_forms, random_run

MIXED = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})

# the worked two-sigma example tree: eta(eta(alpha,sigma(alpha,beta),alpha), sigma(sigma(beta,beta),alpha), alpha)
WIDE_ALPHABET = T.RankedAlphabet({"eta": 3, "sigma": 2, "alpha": 0, "beta": 0})
WIDE = T.parse(
    "eta(eta(alpha,sigma(alpha,beta),alpha),sigma(sigma(beta,beta),alpha),alpha)",
    WIDE_ALPHABET,
)


def test_leaves_cut_of_small_example():
    t = T.parse("sigma(delta(alpha,beta),alpha)", T.RankedAlphabet({"sigma": 2, "delta": 2, "alpha": 0, "beta": 0}))
    assert T.leaves_cut(t) == ((1, 1), (1, 2), (2,))


def test_expand_root_to_children():
    t = T.parse("sigma(alpha,sigma(alpha,alpha))", T.RankedAlphabet({"alpha": 0, "sigma": 2}))
    assert T.expand(t, ((),), 0) == ((1,), (2,))


def test_merge_children_block_in_wide_tree():
    cut = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3,))
    T.validate_cut(WIDE, cut)
    merged = T.merge(WIDE, cut, 3)
    assert merged == ((1, 1), (1, 2), (1, 3), (2,), (3,))
    T.validate_cut(WIDE, merged)
    # and expanding index 3 undoes it
    assert T.expand(WIDE, merged, 3) == cut


def test_invalid_rewrites_raise():
    t = T.parse("sigma(alpha,sigma(alpha,alpha))", T.RankedAlphabet({"alpha": 0, "sigma": 2}))
    lc = T.leaves_cut(t)
    with pytest.raises(ValueError):
        T.expand(t, lc, 0)  # leaf cannot expand
    with pytest.raises(ValueError):
        T.merge(t, ((),), 0)  # root has no parent
    with pytest.raises(ValueError):
        T.merge(t, ((1,), (2, 1), (2, 2)), 0)  # (1,) is not a full children block
    with pytest.raises(ValueError):
        T.expand(t, lc, 9)
    with pytest.raises(ValueError):
        T.validate_cut(t, ((1,), (2, 1)))  # leaf (2,2) uncovered
    with pytest.raises(ValueError):
        T.validate_cut(t, ((2,), (1,)))  # wrong order
    with pytest.raises(ValueError):
        T.validate_cut(t, ((), (1,)))  # not independent


def test_rewrites_refuse_a_non_cut():
    # each of these returned a tuple before the rewrites validated the cut
    leaf = T.Tree("alpha")
    pair = T.parse("sigma(alpha,alpha)", T.RankedAlphabet({"alpha": 0, "sigma": 2}))
    for rewrite in (
        lambda: T.merge(leaf, ((1,),), 0),  # (1,) is not a position of a leaf
        lambda: T.mergeable_indices(leaf, ((1,),)),
        lambda: T.merge(pair, ((1,), (2,), (2, 1)), 0),  # (2,) and (2, 1) are not independent
        lambda: T.expandable_indices(pair, ((), (1,))),
    ):
        with pytest.raises(ValueError):
            rewrite()


def test_rewrite_normal_forms_exhaustive_to_seven_nodes():
    # the acceptance suite pushes this to nine nodes
    for t in T.enumerate_trees(MIXED, 7):
        cuts = T.all_cuts(t)
        for cut in cuts:
            T.validate_cut(t, cut)
        root_cut = ((),)
        lc = T.leaves_cut(t)
        expand_memo, merge_memo = {}, {}
        # every maximal expand-chain from the root cut ends at the leaves cut
        assert expand_normal_forms(t, root_cut, expand_memo) == frozenset([lc])
        # every maximal merge-chain from every cut ends at the root cut
        for cut in cuts:
            assert merge_normal_forms(t, cut, merge_memo) == frozenset([root_cut])
        # expansion from the root reaches exactly the full cut set
        assert set(expand_memo) == set(cuts)
        # normal-form predicates agree with rewrite applicability
        for cut in cuts:
            assert T.is_normal_form(t, cut, "expand") == (cut == lc)
            assert T.is_normal_form(t, cut, "merge") == (cut == root_cut)


def test_cut_partial_product_boundaries():
    rng = random.Random(67)
    for alg in (ba.b4(), ba.pentagon()):
        automaton = H.random_tree_automaton(rng, alg, MIXED, 3)
        for t in T.enumerate_trees(MIXED, 5):
            for _ in range(3):
                rho = random_run(rng, automaton, t)
                base = T.cut_partial_product(automaton, t, rho, T.leaves_cut(t))
                expected = alg.mul(
                    T.run_weight(automaton, t, rho), automaton.root_weights[rho[()]]
                )
                assert base == expected
                top = T.cut_partial_product(automaton, t, rho, ((),))
                vec = T.state_vector(automaton, t)
                assert top == alg.mul(vec[rho[()]], automaton.root_weights[rho[()]])


def test_cut_partial_product_stays_nonzero_on_pentagon():
    # with a bi-strongly zero-sum-free algebra, a nonzero run keeps every cut
    # stage nonzero
    rng = random.Random(71)
    alg = ba.pentagon()
    checked = 0
    while checked < 8:
        automaton = H.random_tree_automaton(rng, alg, MIXED, 3)
        for t in T.enumerate_trees(MIXED, 7):
            for rho in T.enumerate_runs(automaton, t):
                full = alg.mul(
                    T.run_weight(automaton, t, rho), automaton.root_weights[rho[()]]
                )
                if full == alg.zero:
                    continue
                for cut in T.all_cuts(t):
                    assert T.cut_partial_product(automaton, t, rho, cut) != alg.zero
                checked += 1
                break
            if checked >= 8:
                break


def test_cut_partial_product_validates_inputs():
    rng = random.Random(73)
    automaton = H.random_tree_automaton(rng, ba.b4(), MIXED, 2)
    t = T.parse("sigma(alpha,gamma(alpha))", MIXED)
    rho = random_run(rng, automaton, t)
    with pytest.raises(ValueError):
        T.cut_partial_product(automaton, t, rho, ((1,),))  # incomplete cut
    with pytest.raises(ValueError):
        T.cut_partial_product(automaton, t, {(): 0}, T.leaves_cut(t))
