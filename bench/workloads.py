"""The benchmark's workloads: seeded inputs, set-up, request batches, probes.

Each workload first generates its inputs from the seed and writes the
algebra and automaton files through the library's own ``algebra_to_dict`` /
``save_automaton``, so set-up parses them as a user's files. ``setup`` then
loads them through ``fileio`` (the timed set-up), ``requests`` builds the
one batch a run repeats and computes every expected answer outside any
timing, and ``probes`` builds the robustness probes and their inputs.

A request is one library call or one ``bimaut`` command. ``call`` takes
``None`` or a ``CountingAlgebra`` around ``algebra``; with a counter the
request runs on it, so the traced batch counts its operations.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as R

WORD_ALPHABET = ("a", "b")
TREE_RANKS = {"alpha": 0, "beta": 0, "gamma": 1, "sigma": 2}
LAYERS = ("algebra", "properties", "words", "trees", "bridge", "harness", "fileio", "cli")


class Lib:
    """The package and its modules, as imported by the latest ``import_lib``."""

    def __init__(self):
        self.package = importlib.import_module("bimonoid_automata")
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"bimonoid_automata.{name}"))


def import_lib() -> Lib:
    """Import the package afresh, dropping it from the module cache first."""
    for name in [m for m in sys.modules if m == "bimonoid_automata" or m.startswith("bimonoid_automata.")]:
        del sys.modules[name]
    return Lib()


def bind(x, counter):
    """``x`` (an algebra or an automaton) on the counting wrapper, if any."""
    if counter is None:
        return x
    return x.with_algebra(counter) if hasattr(x, "with_algebra") else counter


@dataclass
class Request:
    name: str
    verify: Callable[[object], None]  # raises R.Mismatch
    algebra: object = None
    call: Optional[Callable[[object], object]] = None
    argv: Optional[list] = None  # a bimaut command instead of a library call
    once: bool = False  # too long to repeat: runs in the first pass only


@dataclass
class Probe:
    name: str
    call: Callable[[], object]
    verify: Callable[[object], None]


def _cli_json(check):
    def verify(res):
        if res.returncode != 0:
            raise R.Mismatch(f"exit code {res.returncode}: {res.stderr.strip()[-300:]}")
        check(json.loads(res.stdout))

    return verify


class Workload:
    name = ""

    def __init__(self, seed: int, toy: bool, out_dir: Path, known: R.KnownAnswers):
        self.rng = random.Random(seed)
        self.toy = toy
        self.out = out_dir
        self.known = known
        self.out.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return str(self.out / name)

    def generate(self, lib: Lib):
        raise NotImplementedError

    def setup(self, lib: Lib):
        raise NotImplementedError

    def requests(self, lib: Lib) -> list:
        raise NotImplementedError

    def probes(self, lib: Lib) -> list:
        return []

    def _save_algebra(self, lib, alg, filename):
        with open(self.path(filename), "w") as fh:
            json.dump(lib.fileio.algebra_to_dict(alg), fh)
        return self.path(filename)

    def _bundled(self, lib, keys) -> dict:
        """Where ``fileio.load_algebra`` finds each bundled algebra: its
        builtin name, or a written file for the two that have none."""
        files = {"Diamond": lib.algebra.diamond, "NatPlusPlus[3]": lambda: lib.algebra.nat_plus_plus_table(3)}
        return {k: self._save_algebra(lib, files[k](), f"{k}.json") if k in files else k for k in keys}


# --------------------------------------------------------------------------
# sweep: theorem checks, one check per request


class Sweep(Workload):
    """Support and image theorem checks through the harness.

    Hypothesis-holds checks sweep random automata over every word up to
    length 8 and every tree up to 9 nodes: one request per (theorem,
    algebra), checking WORD_AUTOMATA or TREE_AUTOMATA automata. Witness-probe
    checks build the probe automaton from a failing half condition.

    The harness draws the automata from the seeds in each request, and
    those come from CORPUS_SEED, not from the run's seed: the automata are
    one fixed corpus, and the run's seed only orders the requests. An
    automaton's cost grows as its state count to the input length, so drawn
    afresh per run, the corpus's operation count moved by a quarter from
    one seed to the next (interquartile range over median, 10 seeds), more
    than any bound could absorb.

    The counts keep a batch near 4 s, so it repeats 6 to 9 times in a run.
    The tree bound is 9, not 11: on 11-node trees pruned run semantics costs
    up to 3^11 runs, one check of 100 automata takes about 1.2 s and a rare
    dense automaton 100 times the typical one, so the batch could not repeat.
    """

    name = "sweep"
    CORPUS_SEED = 20240913
    WORD_AUTOMATA = 16
    TREE_AUTOMATA = 100
    WORD_HOLDS = ("PentagonN5", "Hexagon", "Diamond", "Boole", "NatPlusPlus[3]", "TruncFun(2)")
    TREE_HOLDS = ("PentagonN5", "Hexagon", "Diamond", "Boole", "NatPlusPlus[3]")
    WORD_PROBE = ("B4", "B3prime")
    TREE_PROBE = ("B4", "B3prime", "TruncFun(2)")
    IMAGES = ("Boole", "Diamond", "PentagonN5", "Hexagon", "NatPlusPlus[3]", "B4", "B3prime", "TruncFun(2)")

    def generate(self, lib):
        self.sources = self._bundled(lib, self.IMAGES)
        self.bounds = {"max_word_len": 3, "max_tree_size": 5} if self.toy else {"max_word_len": 8, "max_tree_size": 9}
        corpus = random.Random(self.CORPUS_SEED)
        self.plan = []
        for theorem, holds, probes, automata in (
                ("supports-words", self.WORD_HOLDS, self.WORD_PROBE, self.WORD_AUTOMATA),
                ("supports-trees", self.TREE_HOLDS, self.TREE_PROBE, self.TREE_AUTOMATA)):
            self.plan += [(theorem, key, 1 if self.toy else automata, corpus.randrange(2**31))
                          for key in holds]
            self.plan += [(theorem, key, 1, corpus.randrange(2**31)) for key in probes]
        self.cli_seed = corpus.randrange(2**31)

    def setup(self, lib):
        self.algebras = {k: lib.fileio.load_algebra(src) for k, src in self.sources.items()}

    def requests(self, lib):
        known = self.known
        out = []
        for theorem, key, automata, seed in self.plan:
            fn = "check_support_theorem_words" if theorem == "supports-words" else "check_support_theorem_trees"

            def call(counter, fn=fn, alg=self.algebras[key], automata=automata, seed=seed):
                config = lib.harness.TheoremCheckConfig(
                    algebra=bind(alg, counter), num_automata=automata, max_states=3, seed=seed,
                    **self.bounds)
                return getattr(lib.harness, fn)(config)

            def verify(report, theorem=theorem, key=key):
                known.check_theorem(theorem, key, report.to_dict())

            out.append(Request(f"{theorem}/{key}", verify, self.algebras[key], call))
        for key in self.IMAGES:
            for mode in ("words", "trees"):
                def call(counter, alg=self.algebras[key], mode=mode):
                    return lib.harness.check_image_theorem(bind(alg, counter), mode)

                def verify(report, theorem=f"images-{mode}", key=key):
                    known.check_theorem(theorem, key, report.to_dict())

                out.append(Request(f"images-{mode}/{key}", verify, self.algebras[key], call))
        small = ["--max-len", "4", "--trials", "2"] if self.toy else ["--max-len", "5", "--trials", "5"]
        for theorem, key, extra in (
            ("supports-words", "B4", []),
            ("supports-trees", "B3prime", []),
            ("images-trees", "TruncFun(2)", []),
            ("supports-words", "Diamond", small + ["--seed", str(self.cli_seed)]),
        ):
            argv = ["check", theorem, "--algebra", self.sources[key], "--format", "json", *extra]
            check = (lambda d, theorem=theorem, key=key: known.check_theorem(theorem, key, d))
            out.append(Request(f"cli {theorem}/{key}", _cli_json(check), argv=argv))
        return out


# --------------------------------------------------------------------------
# classify: property reports, one algebra per request


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return names, [(names[i], names[i + 1]) for i in range(n - 1)]


def _grid(a, b):
    names = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    pairs = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    pairs += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return names, pairs


def _two_chain(a, b):
    xs, ys = [f"x{i}" for i in range(a)], [f"y{i}" for i in range(b)]
    pairs = [("0", xs[0]), ("0", ys[0]), (xs[-1], "1"), (ys[-1], "1")]
    pairs += list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    return ["0", *xs, *ys, "1"], pairs


def _m_k(k):
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", x) for x in atoms] + [(x, "1") for x in atoms]


def _grid_sides(n):
    """The most nearly square a x b = n with a, b >= 2."""
    a = max(d for d in range(2, int(n ** 0.5) + 1) if n % d == 0)
    return a, n // a


class Classify(Workload):
    """``properties.classify`` plus ``algebra.validate_axioms`` per request.

    Bundled finite algebras, generated lattices and plus-plus tables of
    SIZES elements, and TruncFun(3) (64 elements) both native and tabulated.
    Generated lattices shuffle their element order by the seed, which moves
    the first witness of every failing property.

    Native TruncFun(3) alone takes about 17 s, so the two TruncFun(3)
    requests run once per run and the rest of the batch repeats in the time
    left. A generated algebra's full scans grow as n^4 (about 0.13 s at 16
    elements, 0.3 s at 20), so the sizes stop at 16, where the rest of the
    batch takes under 2 s and repeats 6 to 11 times.

    ``bimaut props`` runs on the generated files of CLI_SIZE elements, one
    per family, so each command parses a user's algebra file and does real
    work, not interpreter start-up alone.
    """

    name = "classify"
    BUNDLED = ("Boole", "PentagonN5", "Hexagon", "Diamond", "B4", "B3prime", "TruncFun(2)", "NatPlusPlus[3]")
    FAMILIES = ("chain", "grid", "two-chain", "m-k", "npp")
    SIZES = (8, 12, 16)
    CLI_SIZE = 12

    def generate(self, lib):
        A = lib.algebra
        self.sources = [(k, k, src) for k, src in self._bundled(lib, self.BUNDLED).items()]
        self.cli_sources = []
        sizes = (6, 8) if self.toy else self.SIZES
        for family, n in itertools.product(self.FAMILIES, sizes):
            name = f"{family}-{n}"
            if family == "npp":
                alg = A.nat_plus_plus_table(n - 2)
            else:
                if family == "chain":
                    names, pairs = _chain(n)
                elif family == "grid":
                    names, pairs = _grid(*_grid_sides(n))
                elif family == "two-chain":
                    a = self.rng.randint(2, n - 3)
                    names, pairs = _two_chain(a, n - 2 - a)
                else:
                    names, pairs = _m_k(n - 2)
                self.rng.shuffle(names)
                alg = A.lattice_algebra(name, names, pairs)
            self.sources.append((name, family, self._save_algebra(lib, alg, f"{name}.json")))
            if n == (sizes[-1] if self.toy else self.CLI_SIZE):
                self.cli_sources.append((family, self.sources[-1][2]))
        if not self.toy:
            self.sources.append(("TruncFun(3)", "TruncFun(3)", "TruncFun(3)"))
            self.sources.append(("TruncFun(3)/table", "TruncFun(3)", self._tabulate_trunc_fun(lib, 3)))

    def _tabulate_trunc_fun(self, lib, m):
        """TruncFun(m) as explicit tables, computed with the reference ops, in
        the library's carrier order, labelled as the library labels elements."""
        ops = R.trunc_fun_ops(m)
        elems = [(0,) + tail for tail in itertools.product(range(m + 1), repeat=m)]
        index = {e: i for i, e in enumerate(elems)}
        add = [[index[ops.add(a, b)] for b in elems] for a in elems]
        mul = [[index[ops.mul(a, b)] for b in elems] for a in elems]
        alg = lib.algebra.FiniteTableAlgebra(
            f"TruncFun({m})/table", [ops.label(e) for e in elems], add, mul,
            index[ops.zero], index[ops.one])
        return self._save_algebra(lib, alg, f"TruncFun{m}-table.json")

    def setup(self, lib):
        self.algebras = {name: lib.fileio.load_algebra(src) for name, _, src in self.sources}

    def requests(self, lib):
        known = self.known
        pair = {}
        out = []
        for name, key, _ in self.sources:

            def call(counter, alg=self.algebras[name]):
                alg = bind(alg, counter)
                return lib.properties.classify(alg), lib.algebra.validate_axioms(alg)

            def verify(result, name=name, key=key):
                report, validation = result
                if not validation.ok:
                    raise R.Mismatch(f"{name}: axioms reported as failing")
                d = report.to_dict()
                known.check_report(key, d)
                if key == "TruncFun(3)":
                    # the native form and its tabulated copy must agree exactly
                    pair[name] = {**d["properties"], **d["half_conditions"]}
                    if len(pair) == 2:
                        native, table = pair.values()
                        pair.clear()
                        if native != table:
                            raise R.Mismatch("tabulated TruncFun(3) verdicts or witnesses differ from native")

            out.append(Request(f"classify/{name}", verify, self.algebras[name], call,
                               once=key == "TruncFun(3)"))
        for key, src in self.cli_sources:
            check = (lambda d, key=key: known.check_report(key, d))
            out.append(Request(f"cli props/{key}", _cli_json(check),
                               argv=["props", "--algebra", src, "--format", "json"]))
        return out


# --------------------------------------------------------------------------
# evaluate: single large inputs, one evaluation per request


def _random_postorder(rng, leaves: int, unary: int) -> list:
    """A random tree over TREE_RANKS in post-order: a binary tree with
    ``leaves`` leaves, plus ``unary`` gamma nodes above random nodes.

    Leaf counts are split between 1/4 and 3/4 at every binary node, so depth
    stays logarithmic; the node count is exactly 2 * leaves - 1 + unary.
    """
    out = []
    todo = [leaves]
    while todo:
        n = todo.pop()
        if isinstance(n, tuple):
            out.append(n)
        elif n == 1:
            out.append((rng.choice(("alpha", "beta")), 0))
        else:
            left = rng.randint(max(1, n // 4), max(1, 3 * n // 4))
            todo += [("sigma", 2), n - left, left]
    for i in sorted(rng.sample(range(len(out)), unary), reverse=True):
        out.insert(i + 1, ("gamma", 1))
    return out


def _spine(depth: int) -> list:
    return [("alpha", 0)] + [("gamma", 1)] * depth


def _postorder_to_text(postorder) -> str:
    stack = []
    for sym, k in postorder:
        kids = stack[len(stack) - k:]
        del stack[len(stack) - k:]
        stack.append(f"{sym}({','.join(kids)})" if k else sym)
    return stack[0]


class Evaluate(Workload):
    """One evaluation of a large input per request.

    Words: init on 10^4..10^5 symbols, full run enumeration at ~2*10^4 runs,
    pruned run semantics on dense positive automata at 6*10^4..5*10^5 runs,
    PolyMonome init on short words. Trees: init on random trees of 10^3..10^4
    nodes and on spines 100..450 deep, pruned run semantics on small dense
    trees. Bridge: word -> tree round trips with a file save/load between.
    """

    name = "evaluate"

    def _catalogue(self, lib):
        A, F = lib.algebra, lib.fileio
        cat = {}
        for key, alg in (("PentagonN5", A.pentagon()), ("Boole", A.boole()), ("B4", A.b4()),
                         ("NatPlusPlus[3]", A.nat_plus_plus_table(3))):
            ops = R.table_ops(F.algebra_to_dict(alg))
            cat[key] = (alg, ops, [x for x in range(len(alg.names)) if x != ops.zero])
        tf = R.trunc_fun_ops(2)
        cat["TruncFun(2)"] = (A.trunc_fun(2), tf,
                              [(0, a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)])
        cat["NatPlusMin"] = (A.nat_plus_min(), R.nat_plus_min_ops(), list(range(1, 10)) + [float("inf")])
        cat["PolyMonome"] = (A.poly_monome(), R.poly_monome_ops(), [(1,), (0, 1), (1, 1), (2,), (0, 0, 1)])
        return cat

    def _word_automaton(self, key, nq, density, deterministic=False):
        alg, ops, carrier = self.cat[key]
        rng = self.rng

        def draw():
            return rng.choice(carrier) if rng.random() < density else ops.zero

        aut = {"initial": [draw() for _ in range(nq)], "final": [draw() for _ in range(nq)],
               "matrices": {a: [[draw() for _ in range(nq)] for _ in range(nq)] for a in WORD_ALPHABET}}
        if deterministic:
            # one initial state and one successor per (state, symbol): a single run
            aut["initial"] = [rng.choice(carrier)] + [ops.zero] * (nq - 1)
            aut["final"] = [rng.choice(carrier) for _ in range(nq)]
            for a in WORD_ALPHABET:
                m = [[ops.zero] * nq for _ in range(nq)]
                for p in range(nq):
                    m[p][rng.randrange(nq)] = rng.choice(carrier)
                aut["matrices"][a] = m
        return aut

    def _tree_automaton(self, key, nq, density):
        alg, ops, carrier = self.cat[key]
        rng = self.rng
        delta = {}
        for sym, k in TREE_RANKS.items():
            delta[sym] = [(sw, q, rng.choice(carrier))
                          for sw in itertools.product(range(nq), repeat=k)
                          for q in range(nq) if rng.random() < density]
        return {"delta": delta, "root": [rng.choice(carrier) if rng.random() < density else ops.zero
                                         for _ in range(nq)]}

    def _save_word(self, lib, key, aut, filename):
        alg, ops, _ = self.cat[key]
        lab = lambda x: alg.parse(ops.label(x))
        nq = len(aut["initial"])
        lib_aut = lib.words.WordAutomaton(
            alg, WORD_ALPHABET, [f"q{i}" for i in range(nq)],
            [lab(x) for x in aut["initial"]], [lab(x) for x in aut["final"]],
            {a: [[lab(x) for x in row] for row in m] for a, m in aut["matrices"].items()})
        lib.fileio.save_automaton(lib_aut, self.path(filename))
        return self.path(filename)

    def _save_tree(self, lib, key, aut, filename):
        alg, ops, _ = self.cat[key]
        lab = lambda x: alg.parse(ops.label(x))
        names = [f"q{i}" for i in range(len(aut["root"]))]
        quads = [(tuple(names[s] for s in sw), sym, names[q], lab(w))
                 for sym, rows in aut["delta"].items() for sw, q, w in rows]
        lib_aut = lib.trees.TreeAutomaton(alg, lib.trees.RankedAlphabet(dict(TREE_RANKS)), names, quads,
                                      [lab(x) for x in aut["root"]])
        lib.fileio.save_automaton(lib_aut, self.path(filename))
        return self.path(filename)

    def generate(self, lib):
        self.cat = self._catalogue(lib)
        rng = self.rng
        toy = self.toy
        word = lambda n: tuple(rng.choice(WORD_ALPHABET) for _ in range(n))
        # (kind, algebra key, automaton file, automaton dict, input)
        self.plan = []

        def add_word(kind, key, nq, density, n, **kw):
            aut = self._word_automaton(key, nq, density, **kw)
            f = self._save_word(lib, key, aut, f"w{len(self.plan)}.json")
            self.plan.append((kind, key, f, aut, word(n)))

        def add_tree(kind, key, nq, density, postorder):
            aut = self._tree_automaton(key, nq, density)
            f = self._save_tree(lib, key, aut, f"t{len(self.plan)}.json")
            self.plan.append((kind, key, f, aut, postorder))

        scale = 100 if toy else 1
        for key, nq, n in (("PentagonN5", 3, 100000), ("NatPlusPlus[3]", 3, 30000), ("NatPlusMin", 3, 50000),
                           ("TruncFun(2)", 2, 10000), ("B4", 3, 20000), ("Boole", 3, 10000)):
            add_word("word-init", key, nq, 0.7, n // scale)
        for n in (60, 120):
            add_word("word-init", "PolyMonome", 2, 0.7, n // (10 if toy else 1))
        for key, nq, n in (("NatPlusPlus[3]", 3, 8), ("NatPlusMin", 3, 8), ("PentagonN5", 3, 8),
                           ("TruncFun(2)", 3, 7), ("Boole", 3, 8), ("B4", 2, 13)):
            add_word("word-run", key, nq, 0.7, n // (3 if toy else 1))
        for key, n in (("NatPlusPlus[3]", 9), ("NatPlusMin", 9), ("Boole", 11)):
            add_word("word-prune", key, 3, 1.0, n // (3 if toy else 1))
        for key, nq, leaves in (("PentagonN5", 3, 500), ("NatPlusPlus[3]", 3, 5000),
                                ("TruncFun(2)", 2, 1500), ("NatPlusMin", 3, 2500)):
            add_tree("tree-init", key, nq, 0.7, _random_postorder(rng, leaves // scale, leaves // (5 * scale)))
        for key in ("PentagonN5", "NatPlusMin"):
            for depth in (100, 300, 450):
                add_tree("tree-init", key, 3, 0.7, _spine(depth // (10 if toy else 1)))
        for key, nq, leaves, density in (("NatPlusPlus[3]", 3, 4, 1.0), ("Boole", 3, 4, 1.0),
                                         ("PentagonN5", 3, 4, 0.7)):
            add_tree("tree-prune", key, nq, density, _random_postorder(rng, leaves // (2 if toy else 1), 1))
        for key, nq, n in (("PentagonN5", 3, 150), ("TruncFun(2)", 2, 300), ("NatPlusMin", 3, 400)):
            add_word("bridge", key, nq, 0.7, n // (10 if toy else 1))
        # bimaut commands: a small word automaton and a small tree automaton
        self.cli_word_aut = self._word_automaton("NatPlusPlus[3]", 3, 0.8)
        self.cli_word_file = self._save_word(lib, "NatPlusPlus[3]", self.cli_word_aut, "cli-word.json")
        self.cli_tree_aut = self._tree_automaton("PentagonN5", 3, 0.7)
        self.cli_tree_file = self._save_tree(lib, "PentagonN5", self.cli_tree_aut, "cli-tree.json")
        self.cli_words = {"eval": word(50), "support": word(8), "profile": word(6)}
        self.cli_tree = _random_postorder(rng, 6, 2)
        # robustness probes, at the scale ROADMAP aim 3 names
        self.probe_tree_aut = self._tree_automaton("PentagonN5", 3, 0.7)
        self.probe_tree_file = self._save_tree(lib, "PentagonN5", self.probe_tree_aut, "probe-tree.json")
        self.probe_word_aut = self._word_automaton("NatPlusPlus[3]", 3, 1.0, deterministic=True)
        self.probe_word_file = self._save_word(lib, "NatPlusPlus[3]", self.probe_word_aut, "probe-word.json")
        self.probe_word = word(100000)

    def setup(self, lib):
        files = [f for _, _, f, _, _ in self.plan]
        files += [self.cli_word_file, self.cli_tree_file, self.probe_tree_file, self.probe_word_file]
        self.automata = {f: lib.fileio.load_automaton(f) for f in files}

    def _tree(self, lib, postorder):
        Tree = lib.trees.Tree
        stack = []
        for sym, k in postorder:
            kids = tuple(stack[len(stack) - k:])
            del stack[len(stack) - k:]
            stack.append(Tree(sym, kids))
        return stack[0]

    def _expect(self, kind, key, aut, inp):
        ops = self.cat[key][1]
        known = self.known.algebras.get(key)
        if kind in ("word-init", "bridge"):
            return R.word_init(ops, aut, inp)
        if kind in ("word-run", "word-prune"):
            if known and self.known.expected(key)["right-distributive"]:
                return R.word_init(ops, aut, inp)
            return R.word_runs(ops, aut, inp)
        if kind == "tree-init":
            return R.tree_init(ops, aut, inp)
        if known and self.known.expected(key)["distributive"]:
            return R.tree_init(ops, aut, inp)
        return R.tree_runs(ops, aut, inp)

    def requests(self, lib):
        W, T, BR, F = lib.words, lib.trees, lib.bridge, lib.fileio
        out = []
        for i, (kind, key, f, aut, inp) in enumerate(self.plan):
            automaton = self.automata[f]
            ops = self.cat[key][1]
            expect = self._expect(kind, key, aut, inp)
            if kind == "word-init":
                call = (lambda c, a=automaton, w=inp: W.initial_semantics(bind(a, c), w))
            elif kind == "word-run":
                call = (lambda c, a=automaton, w=inp: W.run_semantics(bind(a, c), w))
            elif kind == "word-prune":
                call = (lambda c, a=automaton, w=inp: W.run_semantics(bind(a, c), w, prune=True))
            elif kind == "tree-init":
                t = self._tree(lib, inp)
                call = (lambda c, a=automaton, t=t: T.initial_semantics(bind(a, c), t))
            elif kind == "tree-prune":
                t = self._tree(lib, inp)
                call = (lambda c, a=automaton, t=t: T.run_semantics(bind(a, c), t, prune=True))
            else:
                path = self.path(f"bridge{i}.json")

                def call(c, a=automaton, w=inp, path=path):
                    F.save_automaton(a, path)
                    loaded = bind(F.load_automaton(path), c)
                    tree_aut = BR.wsa_to_wta(loaded)
                    t = BR.word_to_tree(w)
                    back = BR.string_wta_to_wsa(tree_aut)
                    return T.initial_semantics(tree_aut, t), W.initial_semantics(back, BR.tree_to_word(t))

            def verify(value, kind=kind, ops=ops, expect=expect):
                values = value if kind == "bridge" else (value,)
                for v in values:
                    if ops.from_lib(v) != expect:
                        raise R.Mismatch(f"value {ops.label(ops.from_lib(v))}, expected {ops.label(expect)}")

            size = len(inp)
            out.append(Request(f"{kind}/{key}/{size}", verify, automaton.algebra, call))
        out += self._cli_requests()
        return out

    def _cli_requests(self):
        ops = self.cat["NatPlusPlus[3]"][1]
        tree_ops = self.cat["PentagonN5"][1]
        aut, words = self.cli_word_aut, self.cli_words
        out = []

        def value_is(label):
            def check(d):
                if d["value"] != label:
                    raise R.Mismatch(f"value {d['value']}, expected {label}")
            return check

        out.append(Request("cli eval/word", _cli_json(value_is(ops.label(R.word_init(ops, aut, words["eval"])))),
                           argv=["eval", "--automaton", self.cli_word_file, "--input", " ".join(words["eval"]),
                                 "--semantics", "init", "--format", "json"]))
        run_value = ops.label(R.word_runs(ops, aut, words["support"]))
        out.append(Request("cli support/word", _cli_json(value_is(run_value)),
                           argv=["support", "--automaton", self.cli_word_file, "--input", " ".join(words["support"]),
                                 "--semantics", "run", "--format", "json"]))
        tree_value = tree_ops.label(R.tree_init(tree_ops, self.cli_tree_aut, self.cli_tree))
        out.append(Request("cli eval/tree", _cli_json(value_is(tree_value)),
                           argv=["eval", "--automaton", self.cli_tree_file, "--input",
                                 _postorder_to_text(self.cli_tree), "--semantics", "init", "--format", "json"]))
        converted = self.path("cli-converted.json")

        def check_convert(res):
            if res.returncode != 0:
                raise R.Mismatch(f"exit code {res.returncode}")
            with open(converted) as fh:
                d = json.load(fh)
            nonzero = sum(1 for m in aut["matrices"].values() for row in m for x in row if x != ops.zero)
            nonzero += sum(1 for x in aut["initial"] if x != ops.zero)
            if d["alphabet"] != {"e": 0, "a": 1, "b": 1} or len(d["transitions"]) != nonzero:
                raise R.Mismatch("converted automaton has the wrong alphabet or transition count")

        out.append(Request("cli convert/word-to-tree", check_convert,
                           argv=["convert", "--automaton", self.cli_word_file, "--direction", "word-to-tree",
                                 "--output", converted]))
        w = words["profile"]
        n, q = len(w), len(aut["initial"])

        def check_profile(d):
            # closed forms: |Q|^(n+1) runs of n+1 products; init n|Q|^2+|Q| muls
            want = {"run": {"muls": q ** (n + 1) * (n + 1), "adds": q ** (n + 1) - 1},
                    "init": {"muls": n * q * q + q, "adds": n * q * (q - 1) + q - 1}}
            if {"run": d["run"], "init": d["init"]} != want:
                raise R.Mismatch(f"operation counts {d['run']} {d['init']}, expected {want}")
            if d["run_value"] != ops.label(R.word_runs(ops, aut, w)) or d["init_value"] != ops.label(R.word_init(ops, aut, w)):
                raise R.Mismatch("profile values differ from the reference")

        out.append(Request("cli profile/word", _cli_json(check_profile),
                           argv=["profile", "--automaton", self.cli_word_file, "--input", " ".join(w),
                                 "--format", "json"]))
        return out

    def probes(self, lib):
        T, W = lib.trees, lib.words
        tree_ops = self.cat["PentagonN5"][1]
        word_ops = self.cat["NatPlusPlus[3]"][1]
        spine = _spine(10000)
        tree_aut = self.automata[self.probe_tree_file]
        word_aut = self.automata[self.probe_word_file]
        spine_value = R.tree_init(tree_ops, self.probe_tree_aut, spine)
        word_value = R.word_init(word_ops, self.probe_word_aut, self.probe_word)
        deep = self._tree(lib, spine)
        deeper = self._tree(lib, _spine(100000))
        alphabet = T.RankedAlphabet(dict(TREE_RANKS))
        text = R.spine_text(10000)

        def equals(ops, expect):
            def verify(v):
                if ops.from_lib(v) != expect:
                    raise R.Mismatch(f"value {ops.label(ops.from_lib(v))}, expected {ops.label(expect)}")
            return verify

        def text_ok(s):
            if s != R.spine_text(100000):
                raise R.Mismatch("str of the spine differs from its term text")

        def parsed_ok(t):
            if not R.is_spine(t, 10000):
                raise R.Mismatch("parsed spine has the wrong shape")

        return [
            Probe("deep_tree_init", lambda: T.initial_semantics(tree_aut, deep), equals(tree_ops, spine_value)),
            Probe("long_word_prune", lambda: W.run_semantics(word_aut, self.probe_word, prune=True),
                  equals(word_ops, word_value)),
            Probe("deep_tree_str", lambda: str(deeper), text_ok),
            Probe("deep_tree_parse", lambda: T.parse(text, alphabet), parsed_ok),
        ]


WORKLOADS = {w.name: w for w in (Sweep, Classify, Evaluate)}
