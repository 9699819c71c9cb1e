"""Tabulated property decisions and axiom validation against the literal
checkers in conftest: equal verdicts and the same first witness, plus the
operation-count gates and error paths of ``tabulate``."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimonoid_automata as ba
from bimonoid_automata import cli, properties
from bimonoid_automata.algebra import (
    CarrierNotClosedError,
    MalformedTableError,
    WeightAlgebra,
    tabulate,
)
from bimonoid_automata.properties import BimonoidProperty as P
from bimonoid_automata.properties import HalfCondition as H
from bimonoid_automata.properties import check, classify

from conftest import literal_check, literal_check_half, literal_validate_axioms

ROOT = Path(__file__).resolve().parent.parent


def assert_same_as_literal(alg):
    for prop in P:
        assert check(alg, prop) == literal_check(alg, prop), (alg.name, prop)
    for half in H:
        assert check(alg, half) == literal_check_half(alg, half), (alg.name, half)
    assert ba.validate_axioms(alg) == literal_validate_axioms(alg), alg.name


class Relabelled(WeightAlgebra):
    """A table algebra whose elements are its names, enumerated in a given
    order, so witnesses must map back through the tabulation."""

    def __init__(self, table, order):
        self.table = table
        self.name = f"{table.name}/relabelled"
        self.order = [table.names[i] for i in order]
        self.zero = table.names[table.zero]
        self.one = table.names[table.one]

    def _op(self, op, a, b):
        return self.table.names[op(self.table.parse(a), self.table.parse(b))]

    def add(self, a, b):
        return self._op(self.table.add, a, b)

    def mul(self, a, b):
        return self._op(self.table.mul, a, b)

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(self.order)


@st.composite
def random_tables(draw):
    """Arbitrary 1-5 element tables with arbitrary zero and one: the axioms
    need not hold."""
    n = draw(st.integers(1, 5))
    entry = st.integers(0, n - 1)
    table = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    alg = ba.FiniteTableAlgebra(
        "random", [f"e{i}" for i in range(n)], draw(table), draw(table), draw(entry), draw(entry)
    )
    return alg, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_random_tables_match_literal_checker(case):
    alg, order = case
    assert_same_as_literal(alg)
    assert_same_as_literal(Relabelled(alg, order))


def _chain_with_random_rows(rng, n):
    """An n-element chain's tables (add = max, mul = min) with the mul rows
    from a random k on redrawn: the 4-ary conditions hold (k = n) or first
    fail at some a >= k, often at several a's of one packed block."""
    add = [[max(i, j) for j in range(n)] for i in range(n)]
    mul = [[min(i, j) for j in range(n)] for i in range(n)]
    for a in range(rng.randint(1, n), n):
        mul[a] = [rng.randrange(n) for _ in range(n)]
    return ba.FiniteTableAlgebra("chain", [f"e{i}" for i in range(n)], add, mul, 0, n - 1)


def _random_table(rng, n):
    def table():
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]

    return ba.FiniteTableAlgebra(
        "random", [f"e{i}" for i in range(n)], table(), table(), rng.randrange(n), rng.randrange(n)
    )


def test_six_to_ten_element_tables_match_literal_checker():
    # The 4-ary decisions pack the a's in blocks [0,1), [1,2), [2,4), [4,8),
    # [8,16); these tables reach the blocks of 4 and 8 a's.
    rng = random.Random(13)
    first_a = set()
    for i in range(40):
        n = rng.randint(6, 10)
        alg = _chain_with_random_rows(rng, n) if i % 4 else _random_table(rng, n)
        assert_same_as_literal(alg)
        assert_same_as_literal(Relabelled(alg, rng.sample(range(n), n)))
        quads = (check(alg, P.BI_STRONGLY_ZSF), check(alg, H.TREE_RUN_TO_INIT),
                 check(alg, H.TREE_INIT_TO_RUN))
        first_a |= {v.witness[0] for v in quads if not v.holds}
    assert first_a & {4, 5, 6, 7} and first_a & {8, 9}, first_a


def test_quad_decisions_cost_n_squared_per_block(monkeypatch):
    # On a 16-element chain every 4-ary condition holds, so each decision
    # scans all five blocks: 5 * 16^2 violation masks, where one mask per
    # (a, b, b') would be 16^3.
    names, pairs = _chain(16)
    t = tabulate(ba.lattice_algebra("chain-16", names, pairs))
    calls = []
    first_quad = properties._first_quad

    def counted(t, violations):
        def violations_counted(*args):
            calls[-1] += 1
            return violations(*args)

        calls.append(0)
        return first_quad(t, violations_counted)

    monkeypatch.setattr(properties, "_first_quad", counted)
    verdicts = [check(t, P.BI_STRONGLY_ZSF), check(t, H.TREE_RUN_TO_INIT),
                check(t, H.TREE_INIT_TO_RUN)]
    assert all(v.holds for v in verdicts)
    assert calls == [5 * 16**2] * 3


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return names, list(zip(names, names[1:]))


def _grid(a, b):
    names = [f"g{i}{j}" for i in range(a) for j in range(b)]
    pairs = [(f"g{i}{j}", f"g{i + 1}{j}") for i in range(a - 1) for j in range(b)]
    pairs += [(f"g{i}{j}", f"g{i}{j + 1}") for i in range(a) for j in range(b - 1)]
    return names, pairs


def _two_chain(a, b):
    xs, ys = [f"x{i}" for i in range(a)], [f"y{i}" for i in range(b)]
    pairs = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    pairs += [("0", xs[0]), ("0", ys[0]), (xs[-1], "1"), (ys[-1], "1")]
    return ["0", *xs, *ys, "1"], pairs


def _m_k(k):
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", x) for x in atoms] + [(x, "1") for x in atoms]


def _generated_lattices():
    rng = random.Random(7)
    for name, (names, pairs) in {
        "chain-2": _chain(2),
        "chain-8": _chain(8),
        "chain-16": _chain(16),
        "grid-2x2": _grid(2, 2),
        "grid-3x3": _grid(3, 3),
        "grid-4x4": _grid(4, 4),
        "two-chain-1-3": _two_chain(1, 3),
        "two-chain-5-9": _two_chain(5, 9),
        "m-3": _m_k(3),
        "m-7": _m_k(7),
        "m-14": _m_k(14),
    }.items():
        rng.shuffle(names)  # moves the first witness of every failing property
        yield ba.lattice_algebra(name, names, pairs)


def _bundled():
    yield from ba.bundled_finite_algebras()
    yield ba.nat_plus_plus_table(14)


@pytest.mark.parametrize(
    "alg", [*_bundled(), *_generated_lattices()], ids=lambda alg: alg.name
)
def test_bundled_and_generated_algebras_match_literal_checker(alg):
    assert_same_as_literal(alg)
    # classify derives the composite verdicts from their parts' verdicts
    report = classify(alg)
    assert list(report.verdicts.items()) == [(cond, check(alg, cond)) for cond in (*P, *H)]


# TruncFun(3)'s witnesses, computed once with the literal checker (about 20 s).
TRUNC_FUN_3_WITNESSES = {
    "zero-sum-free": None,
    "strongly-zero-sum-free": None,
    "bi-strongly-zero-sum-free": ["[0,0,0,1]", "[0,0,0,1]", "[0,0,0,2]", "[0,0,0,3]"],
    "zero-divisor-free": ["[0,0,0,1]", "[0,0,0,1]"],
    "positive": ["[0,0,0,1]", "[0,0,0,1]"],
    "zero-right-distributive": None,
    "right-distributive": None,
    "left-distributive": ["[0,0,0,1]", "[0,0,0,1]", "[0,0,1,0]"],
    "distributive": ["[0,0,0,1]", "[0,0,0,1]", "[0,0,1,0]"],
    "commutative": ["[0,0,0,1]", "[0,0,0,3]"],
    "run-to-init": None,
    "init-to-run": None,
    "tree-run-to-init": ["[0,0,1,0]", "[0,0,0,2]", "[0,0,0,1]", "[0,0,0,3]"],
    "tree-init-to-run": ["[0,0,0,1]", "[0,0,0,1]", "[0,0,0,2]", "[0,0,0,3]"],
}


def _witnesses(report_dict):
    rows = {**report_dict["properties"], **report_dict["half_conditions"]}
    return {name: row.get("witness") for name, row in rows.items()}


def test_trunc_fun_3_pinned_witnesses():
    assert _witnesses(classify(ba.trunc_fun(3)).to_dict()) == TRUNC_FUN_3_WITNESSES


def test_trunc_fun_3_costs_one_tabulation():
    counting = ba.CountingAlgebra(ba.trunc_fun(3))
    classify(counting)
    assert counting.read_counts() == (64 * 64, 64 * 64)
    counting.reset_counts()
    assert ba.validate_axioms(counting).ok
    assert counting.read_counts() == (64 * 64, 64 * 64)


def test_tabulation_is_not_cached_between_calls():
    counting = ba.CountingAlgebra(ba.b4())
    classify(counting)
    classify(counting)
    assert counting.read_counts() == (2 * 16, 2 * 16)


def test_trunc_fun_3_native_and_table_copy_agree():
    native = ba.trunc_fun(3)
    t = tabulate(native)
    copy = ba.FiniteTableAlgebra(
        native.name, t.labels(range(len(t.elements))), t.add, t.mul, t.zero, t.one
    )
    assert classify(copy).to_dict() == classify(native).to_dict()


def test_cli_props_trunc_fun_3_end_to_end():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "bimonoid_automata", "props", "--algebra", "TruncFun(3)",
         "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["algebra"] == "TruncFun(3)"
    assert _witnesses(data) == TRUNC_FUN_3_WITNESSES


class Leaky(WeightAlgebra):
    """Two elements whose sum 1 + 1 = 2 is not one of them."""

    name = "Leaky"
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter((0, 1))


def test_non_closed_carrier_is_a_named_error():
    with pytest.raises(CarrierNotClosedError, match=r"1 \+ 1 = 2"):
        tabulate(Leaky())
    assert issubclass(CarrierNotClosedError, ValueError)
    with pytest.raises(CarrierNotClosedError):
        check(Leaky(), P.ZERO_SUM_FREE)
    with pytest.raises(CarrierNotClosedError):
        ba.validate_axioms(Leaky())
    # closed under both operations on {0}, which holds the zero but not the one
    only_zero = Leaky()
    only_zero.elements = lambda: iter((0,))
    with pytest.raises(CarrierNotClosedError, match=r"^Leaky: one 1 is not in elements\(\)$"):
        tabulate(only_zero)
    only_zero.zero = 5
    with pytest.raises(CarrierNotClosedError, match=r"^Leaky: zero 5 is not in elements\(\)$"):
        tabulate(only_zero)


class Crowded(WeightAlgebra):
    """One element more than ``tabulate`` takes; its operations are never due."""

    name = "Crowded"
    zero, one = 0, 1

    def add(self, a, b):
        raise AssertionError("add called")

    mul = add

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(range(4097))


def test_tabulate_refuses_a_carrier_above_4096_elements():
    with pytest.raises(ValueError, match=r"^cannot tabulate Crowded: it has more than 4096 elements$"):
        tabulate(Crowded())


def test_check_takes_an_algebra_or_its_tables():
    alg = ba.b4()
    t = tabulate(alg)
    for prop in P:
        assert check(t, prop) == check(alg, prop)
    for half in H:
        assert check(t, half) == check(alg, half)


def test_bool_is_not_a_table_index_or_rank():
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, True), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), False, 1)
    with pytest.raises(MalformedTableError):
        ba.FiniteTableAlgebra("bad", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, True)
    with pytest.raises(ValueError):
        ba.RankedAlphabet({"e": 0, "a": True})


def test_cli_rejects_bool_rank(tmp_path, capsys):
    path = tmp_path / "bool-rank.json"
    path.write_text(json.dumps({
        "algebra": "Boole",
        "alphabet": {"e": 0, "a": True},
        "states": ["p"],
        "final": {"p": "1"},
        "transitions": [
            {"from": [], "symbol": "e", "to": "p", "weight": "1"},
            {"from": ["p"], "symbol": "a", "to": "p", "weight": "1"},
        ],
    }))
    code = cli.main(["eval", "--automaton", str(path), "--input", "a(e)"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ")
