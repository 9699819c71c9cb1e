"""Every strong bimonoid of order 2 and 3, from the brute-force enumerator in
conftest: the property decisions against the literal checker, and the four
theorem checks."""

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
        assert report.halves[half] == literal_check_half(alg, half), half
    for mode in ("words", "trees"):
        assert H.check_image_theorem(alg, mode).as_predicted, mode
    # on an algebra that is not zero-sum-free the support probe can cancel
    # to zero under both semantics, so only zero-sum-free ones are gated
    if report.holds(P.ZERO_SUM_FREE):
        config = H.TheoremCheckConfig(algebra=alg)
        assert H.check_support_theorem_words(config).as_predicted
        assert H.check_support_theorem_trees(config).as_predicted
