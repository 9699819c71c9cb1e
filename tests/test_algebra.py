import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata.algebra import (
    ADJOINED_ZERO,
    INFINITY,
    InfiniteCarrierError,
    MalformedTableError,
    Polynomial,
    UnknownAlgebraError,
)
from conftest import bundled_carriers, natural_of


def test_axioms_pass_on_all_bundled_finite_algebras(finite_algebras):
    for alg in finite_algebras:
        report = ba.validate_axioms(alg)
        assert report.ok, f"{alg.name}: {report}"


def test_bundled_finite_algebras_are_the_finite_registry_entries():
    # every finite registry entry once, in registry order, NatPlusPlus[m] and
    # TruncFun(m) at their defaults
    names = [alg.name for alg in ba.bundled_finite_algebras()]
    assert names == [
        "Boole", "NatPlusPlus[3]", "PentagonN5", "Hexagon", "Diamond", "B4", "B3prime", "TruncFun(2)",
    ]
    plain = [name for name in ba.BUILTIN_NAMES if not name.endswith(("(m)", "[m]"))]
    assert [name for name in plain if ba.builtin(name).is_finite] == [
        name for name in names if name in plain
    ]


def test_nat_plus_plus_table_matches_unbounded_algebra_below_cap():
    table = ba.nat_plus_plus_table(3)
    free = ba.nat_plus_plus()
    for i in range(3):
        for j in range(3 - i):
            assert table.describe(table.mul(table.parse(str(i)), table.parse(str(j)))) == str(
                free.mul(i, j)
            )
    assert table.mul(table.zero, table.parse("2")) == table.zero
    from bimonoid_automata.properties import BimonoidProperty, check

    assert check(table, BimonoidProperty.POSITIVE).holds
    assert check(table, BimonoidProperty.STRONGLY_ZSF).holds


def test_mutated_b4_fails_associativity_with_witness():
    good = ba.b4()
    add = [list(row) for row in good.add_table]
    add[2][3] = 1
    bad = ba.FiniteTableAlgebra("B4-broken", good.names, add, good.mul_table, 0, 1)
    report = ba.validate_axioms(bad)
    assert not report.ok
    assoc = next(c for c in report.checks if c.axiom == "add-associativity")
    assert not assoc.holds
    a, b, c = assoc.witness
    assert bad.add(bad.add(a, b), c) != bad.add(a, bad.add(b, c))


def test_malformed_table_is_a_structural_error():
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, 1), (1, 5)), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, 1),), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 7)
    with pytest.raises(MalformedTableError, match="^empty carrier$"):
        ba.FiniteTableAlgebra("bad", (), (), (), 0, 0)


@pytest.mark.parametrize("names, pairs, message", [
    (("a", "b", "1"), [("a", "1"), ("b", "1")], "no unique meet for a, b"),
    (("0", "a", "b", "c", "d", "1"),
     [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
     "no unique join for a, b"),
    # a finite order with every join and meet is bounded, unless it is empty
    ((), [], "order is not bounded"),
], ids=["no-meet", "no-join", "empty"])
def test_lattice_algebra_refuses_an_order_that_is_not_a_bounded_lattice(names, pairs, message):
    with pytest.raises(ValueError, match=f"^bad: {message}$"):
        ba.lattice_algebra("bad", names, pairs)


@pytest.mark.parametrize("pairs, element", [([("a", "b")], "b"), ([("c", "a")], "c")])
def test_lattice_algebra_refuses_an_order_pair_outside_the_elements(pairs, element):
    with pytest.raises(ValueError, match=f"^x: order pair .* names '{element}', which is not an element$"):
        ba.lattice_algebra("x", ("a",), pairs)


def test_builtin_lookup_and_unknown_name():
    assert ba.builtin("Boole").name == "Boole"
    assert ba.builtin("pentagon").name == "PentagonN5"
    assert ba.builtin("TruncFun(3)").m == 3
    with pytest.raises(UnknownAlgebraError) as exc:
        ba.builtin("NoSuchThing")
    assert "PentagonN5" in str(exc.value)


def _registry_instances():
    """One algebra per registry name, two per parameterised name."""
    for name in ba.BUILTIN_NAMES:
        if name.endswith(("(m)", "[m]")):
            for m in (1, 3):
                yield ba.builtin(f"{name[:-2]}{m}{name[-1]}")
        else:
            yield ba.builtin(name)


def test_registry_round_trips_every_bundled_algebra(finite_algebras):
    assert {"Diamond", "NatPlusPlus[m]", "TruncFun(m)"} <= set(ba.BUILTIN_NAMES)
    with pytest.raises(UnknownAlgebraError) as exc:
        ba.builtin("NoSuchThing")
    assert all(name in str(exc.value) for name in ba.BUILTIN_NAMES)

    instances = list(_registry_instances()) + list(finite_algebras)
    for alg in instances:
        again = ba.builtin(alg.name)
        assert type(again) is type(alg) and again.name == alg.name
        assert again.zero == alg.zero and again.one == alg.one
        if alg.is_finite:
            elems = list(alg.elements())
            assert list(again.elements()) == elems
            for a, b in itertools.product(elems, repeat=2):
                assert again.add(a, b) == alg.add(a, b), (alg.name, a, b)
                assert again.mul(a, b) == alg.mul(a, b), (alg.name, a, b)


def test_nat_plus_plus_multiplication_is_addition():
    alg = ba.nat_plus_plus()
    assert alg.mul(3, 2) == 5
    assert alg.add(3, 2) == 5
    assert alg.mul(ADJOINED_ZERO, 3) is ADJOINED_ZERO
    assert alg.add(ADJOINED_ZERO, 3) == 3
    assert alg.one == 0 and alg.zero is ADJOINED_ZERO


def test_nat_plus_min_extends_naturally():
    alg = ba.nat_plus_min()
    assert alg.add(4, INFINITY) is INFINITY
    assert alg.mul(4, INFINITY) == 4
    assert alg.mul(INFINITY, 4) == 4
    assert alg.mul(0, 7) == 0  # zero annihilates under min
    assert alg.parse("inf") is INFINITY and alg.parse("3") == 3


def test_poly_monome_case_split_product():
    alg = ba.poly_monome()
    x = Polynomial((0, 1))
    one = Polynomial((1,))
    assert alg.mul(x, alg.add(one, x)) == alg.zero
    # ordinary product when the right factor is a monome
    assert alg.mul(alg.add(one, x), x) == Polynomial((0, 1, 1))
    assert alg.mul(alg.one, alg.add(one, x)) == alg.add(one, x)
    assert alg.mul(alg.add(one, x), alg.one) == alg.add(one, x)


def test_b4_sum_collapse_identities():
    alg = ba.b4()
    two, three = alg.parse("2"), alg.parse("3")
    assert alg.mul(alg.add(two, two), two) == two
    assert alg.mul(two, two) == alg.zero
    assert alg.mul(two, three) == two and alg.mul(three, two) == two


def test_trunc_fun_witness_function_pointwise():
    alg = ba.trunc_fun(2)
    g = (0, 1, 0)
    # independent pointwise evaluation of g(g+g) and g.g on {0,1,2}
    gp = tuple(min(2, g[c] + g[c]) for c in range(3))
    expected_mul = tuple(g[gp[c]] for c in range(3))
    expected_self = tuple(g[g[c]] for c in range(3))
    assert alg.mul(g, alg.add(g, g)) == expected_mul == alg.zero
    assert alg.mul(g, g) == expected_self == g


def test_element_counts():
    assert list(ba.boole().elements()) == [0, 1]
    assert len(list(ba.pentagon().elements())) == 5
    assert len(list(ba.hexagon().elements())) == 6
    elems = list(ba.trunc_fun(2).elements())
    assert len(elems) == 3 ** 2  # f(1), f(2) free; f(0) pinned to 0
    assert len(set(elems)) == len(elems)


def test_infinite_carriers_refuse_enumeration():
    for alg in (ba.nat_plus_min(), ba.nat_plus_plus(), ba.poly_monome()):
        with pytest.raises(InfiniteCarrierError):
            list(alg.elements())
        assert not alg.is_finite


def test_pentagon_lattice_tables():
    alg = ba.pentagon()
    p, q, r, top = (alg.parse(x) for x in ("p", "q", "r", "1"))
    assert alg.add(p, r) == top and alg.mul(p, r) == alg.zero
    assert alg.add(p, q) == q and alg.mul(p, q) == p
    assert alg.mul(alg.add(p, r), q) == q  # join then meet
    assert alg.add(alg.mul(p, q), alg.mul(r, q)) == p  # not right-distributive


def test_trunc_fun_right_distributive_exhaustively():
    for m in (1, 2):
        alg = ba.trunc_fun(m)
        elems = list(alg.elements())
        for f, g, h in itertools.product(elems, repeat=3):
            assert alg.mul(alg.add(f, g), h) == alg.add(alg.mul(f, h), alg.mul(g, h))


coeffs = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=4)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=300, deadline=None)
def test_poly_monome_associativity(p, q, r):
    alg = ba.poly_monome()
    p, q, r = Polynomial.of(p), Polynomial.of(q), Polynomial.of(r)
    assert alg.mul(alg.mul(p, q), r) == alg.mul(p, alg.mul(q, r))


@given(coeffs, coeffs, coeffs)
@settings(max_examples=200, deadline=None)
def test_poly_monome_right_distributive(p, q, r):
    alg = ba.poly_monome()
    p, q, r = Polynomial.of(p), Polynomial.of(q), Polynomial.of(r)
    assert alg.mul(alg.add(p, q), r) == alg.add(alg.mul(p, r), alg.mul(q, r))


@given(coeffs)
def test_polynomial_normalization(c):
    poly = Polynomial.of(c)
    assert not poly.coeffs or poly.coeffs[-1] != 0
    assert poly.at_zero() == (c[0] if c else 0)
    assert Polynomial.of([]).is_zero


def test_polynomial_parse_and_describe_round_trip():
    alg = ba.poly_monome()
    for coeffs in ([], [3], [0, 1], [5, 0, 2], [1, 1, 1]):
        poly = Polynomial.of(coeffs)
        assert alg.parse(alg.describe(poly)) == poly
    assert alg.parse([0, 1]) == Polynomial((0, 1))
    assert alg.parse("2x^2+x") == Polynomial((0, 1, 2))


def test_counting_basic_increments():
    alg = ba.CountingAlgebra(ba.b4())
    alg.add(1, 2)
    assert alg.read_counts() == (1, 0)
    alg.reset_counts()
    alg.mul(alg.add(1, 2), 3)
    assert alg.read_counts() == (1, 1)
    alg.reset_counts()
    assert alg.read_counts() == (0, 0)


@given(st.integers(0, 3), st.integers(0, 3))
def test_counting_transparency(i, j):
    inner = ba.b4()
    counting = ba.CountingAlgebra(inner)
    assert counting.add(i, j) == inner.add(i, j)
    assert counting.mul(i, j) == inner.mul(i, j)
    assert counting.describe(i) == inner.describe(i)


def test_counting_initial_semantics_cost_bound():
    import random

    from bimonoid_automata import harness as H
    from bimonoid_automata import words as W

    rng = random.Random(0)
    automaton = H.random_word_automaton(rng, ba.pentagon(), ("a", "b"), 3)
    while len(automaton.states) != 3:
        automaton = H.random_word_automaton(rng, ba.pentagon(), ("a", "b"), 3)
    counting = ba.CountingAlgebra(automaton.algebra)
    shadow = automaton.with_algebra(counting)
    W.initial_semantics(shadow, ("a", "b", "a", "b"))
    adds, muls = counting.read_counts()
    assert muls <= 3 * 3 * 4 + 3
    assert adds <= (3 - 1) * 3 * 4 + 2


def test_validation_report_covers_all_six_axioms():
    report = ba.validate_axioms(ba.boole())
    assert sorted(c.axiom for c in report.checks) == sorted(
        [
            "add-associativity",
            "add-commutativity",
            "add-identity",
            "mul-associativity",
            "mul-identity",
            "zero-annihilation",
        ]
    )


@pytest.mark.parametrize("sentinel, label", [(INFINITY, "inf"), (ADJOINED_ZERO, "zero")])
def test_sentinels_stay_themselves_through_copy_and_pickle(sentinel, label):
    assert repr(sentinel) == str(sentinel) == label
    assert copy.copy(sentinel) is sentinel and copy.deepcopy(sentinel) is sentinel
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sentinel, protocol)) is sentinel
    held = copy.deepcopy({sentinel: [sentinel]})
    assert list(held) == [sentinel] and held[sentinel][0] is sentinel
    assert INFINITY is not ADJOINED_ZERO and INFINITY != ADJOINED_ZERO


NATURALS = [
    # algebra, its adjoined element, the labels it reads, the other's label
    (ba.nat_plus_min(), INFINITY, ("inf", "infinity"), "zero"),
    (ba.nat_plus_plus(), ADJOINED_ZERO, ("zero",), "inf"),
]


@pytest.mark.parametrize("alg, adjoined, labels, foreign", NATURALS, ids=["NatPlusMin", "NatPlusPlus"])
@pytest.mark.parametrize("value", [1.5, -0.5, True, False, -1, "-1", float("inf"), float("nan"), None, [1]])
def test_naturals_refuse_what_is_not_a_natural(alg, adjoined, labels, foreign, value):
    # int() would read 1.5 as 1, -0.5 as 0 and true as 1
    with pytest.raises(ValueError, match=f"^{alg.name} elements are naturals or '{labels[0]}', got "):
        alg.parse(value)


@pytest.mark.parametrize("alg, adjoined, labels, foreign", NATURALS, ids=["NatPlusMin", "NatPlusPlus"])
def test_naturals_read_numerals_integers_and_their_labels(alg, adjoined, labels, foreign):
    assert [alg.parse(v) for v in ("3", 3, 2.0, 0)] == [3, 3, 2, 0]
    assert type(alg.parse(2.0)) is int
    assert all(alg.parse(label) is adjoined for label in labels) and alg.parse(adjoined) is adjoined
    with pytest.raises(ValueError, match="invalid literal"):
        alg.parse(foreign)


@pytest.mark.parametrize("alg, adjoined, labels, foreign", NATURALS, ids=["NatPlusMin", "NatPlusPlus"])
def test_naturals_describe_a_natural_of_any_length(alg, adjoined, labels, foreign):
    # str() refuses an int of more than 4,300 digits; runs of zeros land
    # in the low halves the split pads back to length
    rng = random.Random(29)
    digits = "7" + "".join(rng.choice("0123456789") for _ in range(5999)) + "0" * 700 + "1" + "0" * 700
    for x, expected in ((natural_of(digits), digits), (10**5000, "1" + "0" * 5000), (12, "12"), (0, "0")):
        assert alg.describe(x) == expected


def test_trunc_fun_and_poly_monome_refuse_bools_and_fractions():
    tf = ba.trunc_fun(2)
    for value in ([0, True, 2], [0, 1.5, 2], [0, 1.0, 2], [False, 1, 2], [0, 1, 3], [0, 1], "[0,1,3]"):
        with pytest.raises(ValueError, match="is not a valid TruncFun\\(2\\) element"):
            tf.parse(value)
    assert tf.parse("[0,1,2]") == tf.parse([0, 1, 2]) == (0, 1, 2)
    pm = ba.poly_monome()
    for value in (True, 1.5, [1.5], [True], [0, False, 1], [2.0]):
        with pytest.raises(ValueError):
            pm.parse(value)
    assert pm.parse(3) == pm.parse([3]) == pm.parse("3") == Polynomial((3,))


def test_describe_then_parse_round_trips_on_every_bundled_carrier():
    carriers = bundled_carriers()
    # one entry per registry name, each parametrised one at its default
    assert len({alg.name for alg, _ in carriers}) == len(ba.BUILTIN_NAMES)
    for alg, samples in carriers:
        for x in samples:
            label = alg.describe(x)
            assert isinstance(label, str)
            assert alg.parse(label) == x, (alg.name, label)


def _convolution(p, q):
    """The ordinary product of two coefficient lists, term by term."""
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_monome_reference(p, q):
    """The PolyMonome product from its definition: the ordinary product when
    q has at most one nonzero coefficient, else p(0) times q."""
    if sum(1 for c in q if c) <= 1:
        return Polynomial.of(_convolution(p, q))
    return Polynomial.of([(p[0] if p else 0) * c for c in q])


@given(coeffs, st.lists(st.integers(min_value=0, max_value=3), max_size=5), st.integers(0, 5), st.integers(0, 9))
@settings(max_examples=400, deadline=None)
def test_poly_monome_mul_is_the_literal_product(p, q, degree, k):
    alg = ba.poly_monome()
    monome = [0] * degree + [k]
    for left, right in ((p, q), (p, monome), (monome, p), (p, [k]), ([k], q), ([], q), (p, [])):
        a, b = Polynomial.of(left), Polynomial.of(right)
        assert alg.mul(a, b) == _poly_monome_reference(a.coeffs, b.coeffs), (left, right)
