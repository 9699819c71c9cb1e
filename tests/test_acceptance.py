"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by. Random draws are seeded, so the whole gate is reproducible.
"""

import itertools
import random
import time

import bimonoid_automata as ba
from bimonoid_automata import bridge as BR
from bimonoid_automata import harness as H
from bimonoid_automata import trees as T
from bimonoid_automata import words as W
from bimonoid_automata.algebra import Semantics
from bimonoid_automata.properties import BimonoidProperty as P
from bimonoid_automata.properties import HalfCondition as HC
from bimonoid_automata.properties import check, classify

from conftest import expand_normal_forms, merge_normal_forms, random_run, random_tree

FINITE = ba.bundled_finite_algebras()


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def _draw(rng, carrier):
    return carrier[rng.randrange(len(carrier))]


def test_criterion_01_axioms():
    start = time.perf_counter()
    ok = all(ba.validate_axioms(alg).ok for alg in FINITE)
    elapsed = time.perf_counter() - start
    _report(1, "strong-bimonoid axioms hold on all bundled finite algebras",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_02_hierarchy():
    ok = True
    for alg in FINITE:
        report = classify(alg)  # raises on internal inconsistency
        chain = [P.POSITIVE, P.BI_STRONGLY_ZSF, P.STRONGLY_ZSF, P.ZERO_SUM_FREE]
        for stronger, weaker in zip(chain, chain[1:]):
            ok = ok and (not report.holds(stronger) or report.holds(weaker))
        ok = ok and report.holds(P.STRONGLY_ZSF) == (
            report.holds(P.ZERO_SUM_FREE) and report.holds(P.ZERO_RIGHT_DISTRIBUTIVE)
        )
    _report(2, "zero-sum-freeness hierarchy is monotone and strongly = zsf & zero-right-distributive", ok)


def test_criterion_03_reference_classifications():
    checks = []
    for alg in (ba.pentagon(), ba.hexagon()):
        checks += [
            check(alg, P.STRONGLY_ZSF).holds,
            check(alg, P.BI_STRONGLY_ZSF).holds,
            not check(alg, P.POSITIVE).holds,
            not check(alg, P.RIGHT_DISTRIBUTIVE).holds,
        ]
    b4 = ba.b4()
    init_to_run = check(b4, HC.INIT_TO_RUN)
    checks += [
        check(b4, P.ZERO_SUM_FREE).holds,
        check(b4, HC.RUN_TO_INIT).holds,
        not init_to_run.holds,
        init_to_run.witness_labels == ("2", "2", "2"),
    ]
    b3 = ba.b3prime()
    checks += [
        check(b3, P.ZERO_SUM_FREE).holds,
        check(b3, HC.INIT_TO_RUN).holds,
        not check(b3, HC.RUN_TO_INIT).holds,
    ]
    tf = ba.trunc_fun(2)
    checks += [
        check(tf, P.ZERO_SUM_FREE).holds,
        check(tf, P.RIGHT_DISTRIBUTIVE).holds,
        not check(tf, P.BI_STRONGLY_ZSF).holds,
    ]
    _report(3, "reference classifications (pentagon, hexagon, B4, B3', TruncFun(2)) reproduced",
            all(checks))


def test_criterion_04_word_probe_identities():
    rng = random.Random(104)
    failures = 0
    for alg in FINITE:
        carrier = list(alg.elements())
        for _ in range(50):
            a, b, c = (_draw(rng, carrier) for _ in range(3))
            automaton = W.probe_automaton(alg, a, b, c)
            run_direct = alg.add(alg.mul(a, c), alg.mul(b, c))
            init_direct = alg.mul(alg.add(a, b), c)
            if W.run_semantics(automaton, ("gamma",)) != run_direct:
                failures += 1
            if W.initial_semantics(automaton, ("gamma",)) != init_direct:
                failures += 1
            expect_run = [alg.zero] if run_direct == alg.zero else [alg.zero, run_direct]
            expect_init = [alg.zero] if init_direct == alg.zero else [alg.zero, init_direct]
            images = W.images_up_to(automaton, 1)
            if images[Semantics.RUN] != expect_run:
                failures += 1
            if images[Semantics.INIT] != expect_init:
                failures += 1
    _report(4, "word probe: 50 random triples per algebra, values and images match the direct expressions",
            failures == 0, f"{failures} failures")


def test_criterion_05_tree_probe_identities():
    rng = random.Random(105)
    failures = 0
    for alg in FINITE:
        carrier = list(alg.elements())
        for k in (2, 3):
            alphabet = T.RankedAlphabet({"alpha": 0, "sigma": k})
            xi = T.doubled_probe_tree(alphabet)
            for _ in range(50):
                a, b, bp, c = (_draw(rng, carrier) for _ in range(4))
                automaton = T.branching_probe_automaton(alg, a, b, bp, c, alphabet)
                run_direct = alg.add(alg.mul(alg.mul(a, b), c), alg.mul(alg.mul(a, bp), c))
                init_direct = alg.mul(alg.mul(a, alg.add(b, bp)), c)
                if T.run_semantics(automaton, xi, prune=True) != run_direct:
                    failures += 1
                if T.initial_semantics(automaton, xi) != init_direct:
                    failures += 1
                expect_run = [alg.zero] if run_direct == alg.zero else [alg.zero, run_direct]
                expect_init = [alg.zero] if init_direct == alg.zero else [alg.zero, init_direct]
                images = T.images_up_to(automaton, T.size(xi))
                if images[Semantics.RUN] != expect_run:
                    failures += 1
                if images[Semantics.INIT] != expect_init:
                    failures += 1
    _report(5, "tree probe: 50 random quadruples per algebra, k in {2,3}, values and images match",
            failures == 0, f"{failures} failures")


def test_criterion_06_support_theorems():
    ok = True
    details = []
    for alg in (ba.pentagon(), ba.hexagon(), ba.boole()):
        report = H.check_support_theorem_words(H.TheoremCheckConfig(algebra=alg))
        ok = ok and report.verdict == "consistent" and report.as_predicted
        details.append(f"{alg.name} words {report.verdict}")
    for alg, half in ((ba.b4(), "init-to-run"), (ba.b3prime(), "run-to-init")):
        report = H.check_support_theorem_words(H.TheoremCheckConfig(algebra=alg))
        ok = ok and report.verdict == "counterexample" and report.as_predicted
        ok = ok and report.hypothesis["failing-half"] == half
        details.append(f"{alg.name} words {report.verdict}")
    for alg in (ba.pentagon(), ba.hexagon(), ba.boole()):
        report = H.check_support_theorem_trees(H.TheoremCheckConfig(algebra=alg))
        ok = ok and report.verdict == "consistent" and report.as_predicted
        details.append(f"{alg.name} trees {report.verdict}")
    for alg in (ba.b4(), ba.b3prime()):
        report = H.check_support_theorem_trees(H.TheoremCheckConfig(algebra=alg))
        ok = ok and report.verdict == "counterexample" and report.as_predicted
    tf_report = H.check_support_theorem_trees(H.TheoremCheckConfig(algebra=ba.trunc_fun(2)))
    tf_alg = ba.trunc_fun(2)
    ok = ok and tf_report.verdict == "counterexample" and tf_report.as_predicted
    ok = ok and tf_report.witness.direction == "run-only"
    ok = ok and tf_report.witness.init_value == tf_alg.describe(tf_alg.zero)
    details.append("TruncFun(2) trees run-only witness")
    _report(6, "support theorems: consistency on strongly/bi-strongly zsf, predicted counterexamples otherwise",
            ok, "; ".join(details))


def test_criterion_07_distributive_semantics_equality():
    rng = random.Random(107)
    failures = 0
    tree_alphabet = T.RankedAlphabet({"alpha": 0, "sigma": 2})
    test_trees = list(T.enumerate_trees(tree_alphabet, 7))
    for alg in (ba.boole(), ba.diamond()):
        for _ in range(100):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            for word in W.all_words(("a", "b"), 4):
                if W.run_semantics(automaton, word, prune=True) != W.initial_semantics(automaton, word):
                    failures += 1
        for _ in range(100):
            automaton = H.random_tree_automaton(rng, alg, tree_alphabet, 3)
            for t in test_trees:
                if T.run_semantics(automaton, t, prune=True) != T.initial_semantics(automaton, t):
                    failures += 1
    _report(7, "run = init pointwise over Boole and the diamond lattice (100 word + 100 tree automata each)",
            failures == 0, f"{failures} failures")


def test_criterion_08_postorder_product_equivalence():
    rng = random.Random(108)
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    failures = 0
    algebras = (ba.b4(), ba.pentagon(), ba.trunc_fun(2), ba.b3prime(), ba.hexagon())
    automata = [H.random_tree_automaton(rng, alg, alphabet, 3) for alg in algebras]
    for i in range(1000):
        automaton = automata[i % len(automata)]
        t = random_tree(rng, alphabet, 4)
        rho = random_run(rng, automaton, t)
        if T.run_weight(automaton, t, rho) != T.run_weight_postorder(automaton, t, rho):
            failures += 1
    _report(8, "inductive run weight equals the post-order product on 1000 random (tree, run) pairs",
            failures == 0, f"{failures} failures")


def test_criterion_09_cut_machinery():
    alphabet = T.RankedAlphabet({"alpha": 0, "gamma": 1, "sigma": 2})
    rng = random.Random(109)
    alg = ba.pentagon()
    automaton = H.random_tree_automaton(rng, alg, alphabet, 3)
    trees_checked = 0
    ok = True
    for t in T.enumerate_trees(alphabet, 9):
        trees_checked += 1
        cuts = T.all_cuts(t)
        root_cut, lc = ((),), T.leaves_cut(t)
        expand_memo, merge_memo = {}, {}
        ok = ok and expand_normal_forms(t, root_cut, expand_memo) == frozenset([lc])
        for cut in cuts:
            ok = ok and merge_normal_forms(t, cut, merge_memo) == frozenset([root_cut])
        ok = ok and set(expand_memo) == set(cuts)
        # boundary identities for a random run on this tree
        rho = random_run(rng, automaton, t)
        base = T.cut_partial_product(automaton, t, rho, lc)
        expected_base = alg.mul(T.run_weight(automaton, t, rho), automaton.root_weights[rho[()]])
        vec = T.state_vector(automaton, t)
        expected_top = alg.mul(vec[rho[()]], automaton.root_weights[rho[()]])
        ok = ok and base == expected_base
        ok = ok and T.cut_partial_product(automaton, t, rho, root_cut) == expected_top
        if not ok:
            break
    _report(9, "cut rewrites normalize to leaves-cut/root-cut with invariants preserved, boundaries exact",
            ok, f"{trees_checked} trees up to 9 nodes")


def test_criterion_10_bridge_transfer():
    rng = random.Random(110)
    failures = 0
    for alg in FINITE:
        for _ in range(50):
            automaton = H.random_word_automaton(rng, alg, ("a", "b"), 3)
            converted = BR.wsa_to_wta(automaton)
            back = BR.string_wta_to_wsa(converted)
            if not (
                back.states == automaton.states
                and back.initial == automaton.initial
                and back.final == automaton.final
                and back.transitions == automaton.transitions
            ):
                failures += 1
            for word in W.all_words(("a", "b"), 4):
                t = BR.word_to_tree(word)
                if W.run_semantics(automaton, word, prune=True) != T.run_semantics(converted, t, prune=True):
                    failures += 1
                if W.initial_semantics(automaton, word) != T.initial_semantics(converted, t):
                    failures += 1
    _report(10, "word<->tree transfer: both semantics commute with the spine encoding; round trip is identity",
            failures == 0, f"{failures} failures")


def test_criterion_11_complexity():
    rng = random.Random(111)
    alg = ba.pentagon()
    automaton = H.random_word_automaton(rng, alg, ("a",), 3)
    while len(automaton.states) != 3:
        automaton = H.random_word_automaton(rng, alg, ("a",), 3)
    ok = True
    ratios = []
    for n in range(1, 9):
        profile = H.cost_profile(automaton, ("a",) * n)
        ok = ok and profile.init_counts["muls"] == 9 * n + 3
        ok = ok and profile.init_counts["adds"] == 3 * 2 * n + 2
        ok = ok and profile.run_counts["muls"] == 3 ** (n + 1) * (n + 1)
        ok = ok and profile.run_counts["adds"] == 3 ** (n + 1) - 1
        ratios.append(profile.run_counts["muls"] / profile.init_counts["muls"])
    ok = ok and all(x < y for x, y in zip(ratios, ratios[1:]))
    _report(11, "measured costs match closed forms (init 9n+3 muls, run |Q|^(n+1)(n+1)); ratio grows",
            ok, f"ratio {ratios[0]:.1f} -> {ratios[-1]:.1f}")


def test_criterion_12_image_theorem():
    ok = True
    for alg in FINITE:
        for mode in ("words", "trees"):
            report = H.check_image_theorem(alg, mode)
            rd = check(alg, P.RIGHT_DISTRIBUTIVE).holds
            ld = check(alg, P.LEFT_DISTRIBUTIVE).holds
            expected = rd if mode == "words" else (rd and ld)
            ok = ok and report.as_predicted
            ok = ok and (report.verdict == "consistent") == expected
    _report(12, "image checks match the distributivity verdicts: sweep when the laws hold, one probe per failing law",
            ok)
