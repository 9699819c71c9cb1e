import pytest

import bimonoid_automata as ba
from bimonoid_automata import properties
from bimonoid_automata.algebra import HierarchyInconsistencyError, InfiniteCarrierError, tabulate
from bimonoid_automata.properties import BimonoidProperty as P
from bimonoid_automata.properties import HalfCondition as H
from bimonoid_automata.properties import check, classify

from conftest import small_strong_bimonoids


def holds(alg, prop):
    return check(alg, prop).holds


def test_boole_is_positive_and_distributive():
    report = classify(ba.boole())
    for prop in P:
        assert report.holds(prop), prop


def test_pentagon_and_hexagon_classification():
    for alg in (ba.pentagon(), ba.hexagon()):
        report = classify(alg)
        assert report.holds(P.ZERO_SUM_FREE)
        assert report.holds(P.STRONGLY_ZSF)
        assert report.holds(P.BI_STRONGLY_ZSF)
        assert not report.holds(P.POSITIVE)
        assert not report.holds(P.RIGHT_DISTRIBUTIVE)
        assert report.holds(P.COMMUTATIVE)


def test_b4_classification_and_halves():
    alg = ba.b4()
    assert holds(alg, P.ZERO_SUM_FREE)
    strongly = check(alg, P.STRONGLY_ZSF)
    assert not strongly.holds
    assert strongly.witness_labels == ("2", "2", "2")
    assert check(alg, H.RUN_TO_INIT).holds
    init_to_run = check(alg, H.INIT_TO_RUN)
    assert not init_to_run.holds
    assert init_to_run.witness_labels == ("2", "2", "2")


def test_b3prime_classification_and_halves():
    alg = ba.b3prime()
    assert holds(alg, P.ZERO_SUM_FREE)
    assert check(alg, H.INIT_TO_RUN).holds
    run_to_init = check(alg, H.RUN_TO_INIT)
    assert not run_to_init.holds
    assert run_to_init.witness_labels == ("1'", "1'", "2'")
    strongly = check(alg, P.STRONGLY_ZSF)
    assert not strongly.holds
    assert strongly.witness_labels == ("1'", "1'", "2'")


def test_trunc_fun_classification():
    alg = ba.trunc_fun(2)
    assert holds(alg, P.ZERO_SUM_FREE)
    assert holds(alg, P.RIGHT_DISTRIBUTIVE)
    assert holds(alg, P.STRONGLY_ZSF)
    assert not holds(alg, P.BI_STRONGLY_ZSF)
    assert not holds(alg, P.COMMUTATIVE)


def test_trunc_fun_specific_bi_strong_violation():
    # the doubling function g kills its own doubled image but not itself
    alg = ba.trunc_fun(2)
    g = (0, 1, 0)
    lhs = alg.mul(alg.mul(g, alg.add(g, g)), alg.one)
    assert lhs == alg.zero
    assert alg.mul(alg.mul(g, g), alg.one) != alg.zero
    verdict = check(alg, P.BI_STRONGLY_ZSF)
    assert not verdict.holds


def test_diamond_is_distributive_but_not_positive():
    alg = ba.diamond()
    assert holds(alg, P.DISTRIBUTIVE)
    assert holds(alg, P.BI_STRONGLY_ZSF)
    assert not holds(alg, P.ZERO_DIVISOR_FREE)


def _defining_violation(alg, prop, witness):
    """Re-evaluate the defining condition on a witness; True means violated."""
    z, add, mul = lambda x: x == alg.zero, alg.add, alg.mul
    if prop is P.ZERO_SUM_FREE:
        a, b = witness
        return z(add(a, b)) != (z(a) and z(b))
    if prop is P.STRONGLY_ZSF:
        a, b, c = witness
        return z(mul(add(a, b), c)) != (z(mul(a, c)) and z(mul(b, c)))
    if prop is P.BI_STRONGLY_ZSF:
        a, b, bp, c = witness
        return z(mul(mul(a, add(b, bp)), c)) != (z(mul(mul(a, b), c)) and z(mul(mul(a, bp), c)))
    if prop is P.ZERO_DIVISOR_FREE:
        a, b = witness
        return z(mul(a, b)) != (z(a) or z(b))
    if prop is P.ZERO_RIGHT_DISTRIBUTIVE:
        a, b, c = witness
        return z(mul(add(a, b), c)) != z(add(mul(a, c), mul(b, c)))
    if prop is P.RIGHT_DISTRIBUTIVE:
        a, b, c = witness
        return mul(add(a, b), c) != add(mul(a, c), mul(b, c))
    if prop is P.LEFT_DISTRIBUTIVE:
        a, b, c = witness
        return mul(c, add(a, b)) != add(mul(c, a), mul(c, b))
    if prop is P.COMMUTATIVE:
        a, b = witness
        return mul(a, b) != mul(b, a)
    if prop in (P.POSITIVE, P.DISTRIBUTIVE):
        return True  # composite: sub-check witnesses validated under their own property
    raise AssertionError(prop)


def test_witness_soundness_everywhere(finite_algebras):
    for alg in finite_algebras:
        for prop in P:
            verdict = check(alg, prop)
            if not verdict.holds and prop not in (P.POSITIVE, P.DISTRIBUTIVE):
                assert _defining_violation(alg, prop, verdict.witness), (alg.name, prop)


def test_half_witness_soundness(finite_algebras):
    for alg in finite_algebras:
        z, add, mul = lambda x: x == alg.zero, alg.add, alg.mul
        for half in H:
            verdict = check(alg, half)
            if verdict.holds:
                continue
            w = verdict.witness
            if half is H.RUN_TO_INIT:
                a, b, c = w
                assert not z(mul(a, c)) and z(mul(add(a, b), c))
            elif half is H.INIT_TO_RUN:
                a, b, c = w
                assert not z(mul(add(a, b), c)) and z(mul(a, c)) and z(mul(b, c))
            elif half is H.TREE_RUN_TO_INIT:
                a, b, bp, c = w
                assert not z(mul(mul(a, b), c)) and z(mul(mul(a, add(b, bp)), c))
            else:
                a, b, bp, c = w
                assert not z(mul(mul(a, add(b, bp)), c))
                assert z(mul(mul(a, b), c)) and z(mul(mul(a, bp), c))


def test_hierarchy_is_monotone_on_bundled_algebras(finite_algebras):
    for alg in finite_algebras:
        report = classify(alg)  # raises on internal inconsistency
        chain = [P.POSITIVE, P.BI_STRONGLY_ZSF, P.STRONGLY_ZSF, P.ZERO_SUM_FREE]
        for stronger, weaker in zip(chain, chain[1:]):
            assert not report.holds(stronger) or report.holds(weaker)
        assert report.holds(P.STRONGLY_ZSF) == (
            report.holds(P.ZERO_SUM_FREE) and report.holds(P.ZERO_RIGHT_DISTRIBUTIVE)
        )
        assert not report.holds(P.RIGHT_DISTRIBUTIVE) or report.holds(P.ZERO_RIGHT_DISTRIBUTIVE)


def test_a_lone_check_gives_the_verdict_classify_reports():
    # each check gets tables of its own, so no verdict decided for another
    # condition is there to reuse: implied verdicts and composites come
    # from deciding their impliers and parts on the spot
    for alg in (*ba.bundled_finite_algebras(), *small_strong_bimonoids(2), *small_strong_bimonoids(3)):
        report = classify(alg)
        for cond in (*P, *H):
            assert check(alg, cond) == report.verdicts[cond], (alg.name, cond)


def test_a_lone_zero_right_distributivity_check_reads_right_distributivity(monkeypatch):
    def no_scan(*args):
        raise AssertionError("zero-right-distributivity was scanned")

    monkeypatch.setattr(properties, "_first_slab_difference", no_scan)
    for alg in (ba.boole(), ba.trunc_fun(2), ba.trunc_fun(3)):
        t = tabulate(alg)
        assert check(t, P.ZERO_RIGHT_DISTRIBUTIVE) == properties.PropertyVerdict(P.ZERO_RIGHT_DISTRIBUTIVE, True)
        assert set(t.verdicts) == {P.RIGHT_DISTRIBUTIVE, P.ZERO_RIGHT_DISTRIBUTIVE}


def test_classify_raises_on_the_first_broken_rule():
    # constant-zero mul with a sum-free add breaks the axioms: strong
    # zero-sum-freeness holds vacuously while plain zero-sum-freeness fails
    alg = ba.FiniteTableAlgebra("degenerate", ["0", "1"], [[1, 1], [1, 1]], [[0, 0], [0, 0]], 0, 1)
    with pytest.raises(HierarchyInconsistencyError,
                       match="^degenerate: strongly-zero-sum-free holds but zero-sum-free fails$"):
        classify(alg)


def test_infinite_algebra_refused():
    with pytest.raises(InfiniteCarrierError):
        check(ba.nat_plus_min(), P.ZERO_SUM_FREE)


def test_check_refuses_an_unknown_condition():
    with pytest.raises(ValueError, match="^unknown condition 'commutative'$"):
        check(ba.boole(), "commutative")


def test_report_formats():
    report = classify(ba.b4())
    text = str(report)
    assert "strongly-zero-sum-free" in text and "witness" in text
    data = report.to_dict()
    assert data["properties"]["strongly-zero-sum-free"]["witness"] == ["2", "2", "2"]
    assert data["half_conditions"]["run-to-init"]["holds"] is True
