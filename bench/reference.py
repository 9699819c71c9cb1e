"""Answers the benchmark checks the library against, computed without it.

Algebra operations are re-implemented from their definitions, or read from
the operation tables the input generator wrote, in the benchmark's own value
representation. Semantics are computed by a table-lookup vector-matrix
recursion (initial-algebra semantics) or by literal run enumeration (run
semantics). Property and theorem verdicts come from the hand-written
``known_answers.json``. Nothing here calls an evaluator or property checker
of the library.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")


class Mismatch(Exception):
    """A library answer differs from the reference."""


# --------------------------------------------------------------------------
# Algebras in the benchmark's own representation


class Ops:
    """add/mul/zero/one plus conversions to and from library values.

    ``label`` gives the text a library algebra parses back into the same
    element; ``from_lib`` maps a library value into this representation so
    results compare with ``==``.
    """

    def __init__(self, name, add, mul, zero, one, label, from_lib):
        self.name = name
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.label = label
        self.from_lib = from_lib

    def sum(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc


def table_ops(d: dict) -> Ops:
    """From an algebra file dict: element i is the i-th name, as in the library."""
    names = list(d["names"])
    index = {x: i for i, x in enumerate(names)}
    add_t = [[index[v] for v in row] for row in d["add"]]
    mul_t = [[index[v] for v in row] for row in d["mul"]]
    return Ops(
        d["name"],
        lambda a, b: add_t[a][b],
        lambda a, b: mul_t[a][b],
        index[d["zero"]],
        index[d["one"]],
        lambda x: names[x],
        int,
    )


def trunc_fun_ops(m: int) -> Ops:
    """f: [0,m] -> [0,m] with f(0)=0; pointwise saturating sum, composition."""
    return Ops(
        f"TruncFun({m})",
        lambda a, b: tuple(min(m, x + y) for x, y in zip(a, b)),
        lambda a, b: tuple(a[v] for v in b),
        (0,) * (m + 1),
        tuple(range(m + 1)),
        lambda f: "[" + ",".join(map(str, f)) + "]",
        tuple,
    )


def nat_plus_min_ops() -> Ops:
    """(N u {inf}, +, min, 0, inf) with math.inf as the adjoined element."""
    return Ops(
        "NatPlusMin",
        lambda a, b: a + b,
        min,
        0,
        math.inf,
        lambda x: "inf" if x == math.inf else str(x),
        lambda v: v if isinstance(v, int) else math.inf,
    )


def _poly_norm(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_norm((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_mul(a, b):
    """Ordinary product when b is a monome, otherwise a(0) times b."""
    if sum(1 for c in b if c) <= 1:
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly_norm(out)
    k = a[0] if a else 0
    return _poly_norm(k * c for c in b)


def poly_monome_ops() -> Ops:
    """Coefficient tuples (index = degree) with the monome-split product."""
    return Ops(
        "PolyMonome", _poly_add, _poly_mul, (), (1,), list,
        lambda v: tuple(v.coeffs),
    )


# --------------------------------------------------------------------------
# Semantics references. A word automaton is a dict with "initial", "final"
# (lists) and "matrices" (symbol -> |Q| x |Q| list). A tree automaton is a
# dict with "delta" (symbol -> list of (state word, state, weight)) and
# "root" (list). Trees are post-order lists of (symbol, arity).


def word_init(ops: Ops, aut: dict, word) -> object:
    """Initial vector times each symbol's matrix, then the final vector."""
    vec = list(aut["initial"])
    states = range(len(vec))
    for a in word:
        m = aut["matrices"][a]
        vec = [ops.sum(ops.mul(vec[p], m[p][q]) for p in states) for q in states]
    return ops.sum(ops.mul(vec[q], aut["final"][q]) for q in states)


def word_runs(ops: Ops, aut: dict, word) -> object:
    """Literal run semantics: every state sequence, multiplied out in full."""
    mats = [aut["matrices"][a] for a in word]
    total = ops.zero
    for run in itertools.product(range(len(aut["initial"])), repeat=len(word) + 1):
        w = aut["initial"][run[0]]
        for j, m in enumerate(mats):
            w = ops.mul(w, m[run[j]][run[j + 1]])
        total = ops.add(total, ops.mul(w, aut["final"][run[-1]]))
    return total


def tree_init(ops: Ops, aut: dict, postorder) -> object:
    """Bottom-up state vectors, evaluated on an explicit stack."""
    nq = len(aut["root"])
    stack = []
    for sym, k in postorder:
        kids = stack[len(stack) - k:]
        del stack[len(stack) - k:]
        vec = [ops.zero] * nq
        for sw, q, w in aut["delta"].get(sym, ()):
            term = w
            if k:
                term = kids[0][sw[0]]
                for i in range(1, k):
                    term = ops.mul(term, kids[i][sw[i]])
                term = ops.mul(term, w)
            vec[q] = ops.add(vec[q], term)
        stack.append(vec)
    (root,) = stack
    return ops.sum(ops.mul(root[q], aut["root"][q]) for q in range(nq))


def tree_runs(ops: Ops, aut: dict, postorder) -> object:
    """Literal run semantics: every state labeling; a run's weight is the
    post-order product of its local transition weights, times the root weight."""
    nq = len(aut["root"])
    local = {(sym, sw, q): w for sym, rows in aut["delta"].items() for sw, q, w in rows}
    children = []
    stack = []
    for i, (sym, k) in enumerate(postorder):
        children.append(stack[len(stack) - k:])
        del stack[len(stack) - k:]
        stack.append(i)
    total = ops.zero
    for run in itertools.product(range(nq), repeat=len(postorder)):
        w = ops.one
        for i, (sym, _) in enumerate(postorder):
            sw = tuple(run[c] for c in children[i])
            w = ops.mul(w, local.get((sym, sw, run[i]), ops.zero))
        total = ops.add(total, ops.mul(w, aut["root"][run[-1]]))
    return total


def spine_text(depth: int, unary: str = "gamma", leaf: str = "alpha") -> str:
    return f"{unary}(" * depth + leaf + ")" * depth


def is_spine(t, depth: int, unary: str = "gamma", leaf: str = "alpha") -> bool:
    """Iterative shape check, safe on trees of any depth."""
    for _ in range(depth):
        if t.symbol != unary or len(t.children) != 1:
            return False
        t = t.children[0]
    return t.symbol == leaf and not t.children


# --------------------------------------------------------------------------
# Expected verdicts


class KnownAnswers:
    def __init__(self, path=KNOWN_ANSWERS):
        with open(path) as fh:
            data = json.load(fh)
        self.names = data["properties"] + data["half_conditions"]
        self.algebras = data["algebras"]
        self.families = data["families"]
        self.theorems = data["theorems"]

    def expected(self, key: str) -> dict:
        """Property/half name -> holds, for a bundled algebra or a family."""
        entry = self.algebras.get(key) or self.families[key]
        fails = set(entry["fails"])
        return {name: name not in fails for name in self.names}

    def check_report(self, key: str, report: dict):
        """Compare a PropertyReport.to_dict() (library or CLI) with the file."""
        verdicts = {**report["properties"], **report["half_conditions"]}
        for name, holds in self.expected(key).items():
            if verdicts[name]["holds"] != holds:
                raise Mismatch(f"{key} {name}: got holds={verdicts[name]['holds']}, expected {holds}")
        pinned = self.algebras.get(key, {}).get("witnesses", {})
        for name, labels in pinned.items():
            if verdicts[name].get("witness") != labels:
                raise Mismatch(f"{key} {name}: witness {verdicts[name].get('witness')}, expected {labels}")

    def check_theorem(self, theorem: str, key: str, report: dict):
        """Compare a CheckReport.to_dict() (library or CLI) with the file."""
        want = self.theorems[theorem][key]
        if not report["as_predicted"]:
            raise Mismatch(f"{theorem} {key}: as_predicted is false")
        if report["verdict"] != want["verdict"]:
            raise Mismatch(f"{theorem} {key}: verdict {report['verdict']}, expected {want['verdict']}")
        if "failing-half" in want and report["hypothesis"].get("failing-half") != want["failing-half"]:
            raise Mismatch(f"{theorem} {key}: failing half {report['hypothesis'].get('failing-half')}")
        witness = report.get("witness") or {}
        if "direction" in want and witness.get("direction") != want["direction"]:
            raise Mismatch(f"{theorem} {key}: witness direction {witness.get('direction')}")
        if "params" in want and witness.get("params") != want["params"]:
            raise Mismatch(f"{theorem} {key}: witness params {witness.get('params')}")
