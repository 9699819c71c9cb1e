"""Every strong bimonoid of order 2 and 3, from the brute-force enumerator in
conftest: the property decisions against the literal checker, and the four
theorem checks; and the decisions on every one of order 4."""

import pytest

from bimonoid_automata import harness as H
from bimonoid_automata.properties import BimonoidProperty as P
from bimonoid_automata.properties import HalfCondition, classify

from conftest import literal_check, literal_check_half, small_strong_bimonoids

ATLAS = small_strong_bimonoids(2) + small_strong_bimonoids(3)


def test_atlas_counts():
    assert [len(small_strong_bimonoids(n)) for n in (2, 3)] == [2, 27]


@pytest.mark.parametrize("alg", ATLAS, ids=lambda alg: alg.name)
def test_atlas_algebra(alg):
    report = classify(alg)
    for prop in P:
        assert report.verdicts[prop] == literal_check(alg, prop), prop
    for half in HalfCondition:
        assert report.verdicts[half] == literal_check_half(alg, half), half
    for mode in ("words", "trees"):
        assert H.check_image_theorem(alg, mode).as_predicted, mode
    # on an algebra that is not zero-sum-free the support probe can cancel
    # to zero under both semantics, so only zero-sum-free ones are gated
    if report.holds(P.ZERO_SUM_FREE):
        config = H.TheoremCheckConfig(algebra=alg)
        assert H.check_support_theorem_words(config).as_predicted
        assert H.check_support_theorem_trees(config).as_predicted


def test_atlas_order_4_decisions_match_the_literal_checker():
    # classify raises HierarchyInconsistencyError where a verdict breaks a
    # rule of the hierarchy, so this also runs every rule on 1,190 tables
    algebras = small_strong_bimonoids(4)
    assert len(algebras) == 1190
    for alg in algebras:
        report = classify(alg)
        for prop in P:
            assert report.verdicts[prop] == literal_check(alg, prop), (alg.name, prop)
        for half in HalfCondition:
            assert report.verdicts[half] == literal_check_half(alg, half), (alg.name, half)


def test_atlas_order_4_image_checks_as_predicted():
    # 2,380 checks: each sweeps at the defaults where its laws hold and
    # probes the first failing law's witness where one fails
    algebras = small_strong_bimonoids(4)
    for alg in algebras:
        for mode in ("words", "trees"):
            assert H.check_image_theorem(alg, mode).as_predicted, (alg.name, mode)
