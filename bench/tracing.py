"""Spans and counters around the library's public functions, from outside it.

``Tracer.install`` replaces every public function of each layer module by a
wrapper at its module attribute, and also every other binding of the same
function object inside the package (``harness.check``, ``fileio.validate_axioms``,
the package's re-exports, ...), so spans nest harness -> words/trees/properties
-> algebra. ``uninstall`` puts the originals back. ``span`` opens a span
from the benchmark's side, around each ``bimaut`` subprocess.

A span records its name, parent, request id, start and end; spans stay in
memory and ``write`` dumps them at exit. A span's self time is its duration
minus its children's. Self time and self operation counts are summed per
category: a function listed in ``CATEGORIES`` opens its own category, any
other function inherits the category of the enclosing span of the same
layer, and otherwise counts under its layer name.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from workloads import LAYERS

CATEGORIES = {
    "algebra.validate_axioms": "algebra.validate",
    "words.run_semantics": "words.run",
    "words.run_weight": "words.run",
    "words.enumerate_runs": "words.run",
    "words.state_vector": "words.init",
    "words.initial_semantics": "words.init",
    "trees.run_semantics": "trees.run",
    "trees.run_weight": "trees.run",
    "trees.run_weight_postorder": "trees.run",
    "trees.enumerate_runs": "trees.run",
    "trees.state_vector": "trees.init",
    "trees.initial_semantics": "trees.init",
    "trees.enumerate_trees": "trees.enumerate",
    "fileio.load_algebra": "fileio.load",
    "fileio.load_automaton": "fileio.load",
    "fileio.algebra_from_dict": "fileio.load",
    "fileio.automaton_from_dict": "fileio.load",
    "fileio.save_automaton": "fileio.save",
    "fileio.automaton_to_dict": "fileio.save",
    "fileio.algebra_to_dict": "fileio.save",
}


def tree_size(t) -> int:
    n, stack = 0, [t]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _count_symbols(tracer, args, result):
    tracer.tally["words.symbols"] += len(args[1])


def _count_nodes(tracer, args, result):
    t = args[1]
    cached = tracer.sizes.get(id(t))
    if cached is None or cached[0] is not t:
        cached = tracer.sizes[id(t)] = (t, tree_size(t))
    tracer.tally["trees.nodes"] += cached[1]


DECISIONS = ("properties.check", "properties.check_half")


def _count_decision(tracer, args, result):
    # A composite property (positive, distributive) decides its parts through
    # nested checks; those are part of its one decision, not decisions of
    # their own. A verdict that holds needed a full scan, its own or its parts'.
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is None or tracer.names[parent[7]] not in DECISIONS:
        tracer.tally["properties.decisions"] += 1
        tracer.tally["properties.full_scans"] += result.holds


# Run after the span closes, on the call's arguments and result.
HOOKS = {
    "words.state_vector": _count_symbols,
    "trees.state_vector": _count_nodes,
    **{name: _count_decision for name in DECISIONS},
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_request = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # frame: [span index, category, layer, start, ops at entry, child time, child ops, name id]
        self.stack: list = []
        self.busy = defaultdict(float)
        self.ops = defaultdict(int)
        self.calls = Counter()
        self.entry_calls = Counter()  # calls not nested in a span of the same layer
        self.root_time = 0.0
        self.tally = Counter()
        self.sizes: dict = {}
        self.request = -1
        self.counter = None  # the CountingAlgebra the current request runs on
        self._saved: list = []

    # -- installing -------------------------------------------------------

    def install(self, lib):
        """Wrap the public functions of every layer module of ``lib``."""
        modules = [getattr(lib, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for module in modules + [lib.package]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        own_cat = CATEGORIES.get(name)
        hook = HOOKS.get(name)
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumers' time stays outside
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter(nid, layer, own_cat)
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(frame)
                        return
                    except BaseException:
                        leave(frame)
                        raise
                    leave(frame)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid, layer, own_cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _enter(self, nid, layer, own_cat):
        stack = self.stack
        parent = stack[-1] if stack else None
        if own_cat is not None:
            cat = own_cat
        elif parent is not None and parent[2] == layer:
            cat = parent[1]
        else:
            cat = layer
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(parent[0] if parent is not None else -1)
        self.sp_request.append(self.request)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        c = self.counter
        ops0 = c.add_count + c.mul_count if c is not None else 0
        frame = [idx, cat, layer, 0.0, ops0, 0.0, 0, nid]
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _leave(self, frame):
        t1 = perf_counter()
        c = self.counter
        ops1 = c.add_count + c.mul_count if c is not None else 0
        stack = self.stack
        stack.pop()
        idx, cat, layer, t0, ops0, child_time, child_ops, nid = frame
        dur = t1 - t0
        ops = ops1 - ops0
        self.sp_start[idx] = t0
        self.sp_end[idx] = t1
        self.busy[cat] += dur - child_time
        self.ops[cat] += ops - child_ops
        self.calls[nid] += 1
        if stack:
            parent = stack[-1]
            parent[5] += dur
            parent[6] += ops
            if parent[2] != layer:
                self.entry_calls[nid] += 1
        else:
            self.root_time += dur
            self.entry_calls[nid] += 1

    def span(self, name: str, call):
        """Run ``call()`` inside a span opened from the benchmark's side."""
        if name not in self.names:
            self.names.append(name)
        frame = self._enter(self.names.index(name), name.split(".", 1)[0], None)
        try:
            return call()
        finally:
            self._leave(frame)

    # -- reading ----------------------------------------------------------

    def count(self, *names) -> int:
        return sum(self.calls[self.names.index(n)] for n in names if n in self.names)

    def entries(self, *names) -> int:
        return sum(self.entry_calls[self.names.index(n)] for n in names if n in self.names)

    def busy_of(self, prefix: str) -> float:
        """Self time of a category, or of every category of a layer."""
        return sum(v for k, v in self.busy.items() if k == prefix or k.startswith(prefix + "."))

    def ops_of(self, prefix: str) -> int:
        return sum(v for k, v in self.ops.items() if k == prefix or k.startswith(prefix + "."))

    def write(self, prefix: str):
        """Dump the spans: ``prefix.json`` describes ``prefix.spans``."""
        n = len(self.sp_name)
        header = {
            "count": n,
            "names": self.names,
            "arrays": ["name int32", "parent int32", "request int32",
                       "start float64", "end float64"],
            "clock": "time.perf_counter seconds",
            "note": "five consecutive arrays of `count` native-endian items; parent -1 is a root span",
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.sp_name, self.sp_parent, self.sp_request, self.sp_start, self.sp_end):
                arr.tofile(fh)
