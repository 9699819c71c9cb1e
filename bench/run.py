"""Benchmark of the bimonoid-automata library and its ``bimaut`` CLI.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,classify,evaluate} --seed N \
        --seconds S --trace {0,1} [--toy]

One client issues one request at a time (closed loop, no threads); every
``bimaut`` subprocess is awaited before the next request starts. Inputs are
generated from ``--seed`` and written under ``bench/out/``. Set-up (import
plus loading the workload's files through ``fileio``) is repeated and its
median reported. The workload's one fixed batch of requests then runs in
passes while another pass still fits in ``--seconds`` (requests marked
``once`` only in the first), so every run measures the same inputs however
fast the code is; every answer is checked against ``reference.py`` and
``known_answers.json`` after its pass. Times are scaled to a reference
machine speed by a fixed loop timed before each request (``speed_sample``);
the report lines also give them as measured.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced batch run, and the result carries
the per-layer metrics, with the spans written to ``bench/out/trace-<workload>.*``.
The last line of standard output is the JSON result. ``--toy`` shrinks every
input for a quick smoke run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import reference as R  # noqa: E402
import workloads as WL  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# Set-ups per run: one before the first pass, the rest spread evenly over
# the measuring time, between requests, so the median samples the machine
# across the whole run and not only its start.
SETUP_REPS = 9

# Seconds ``speed_sample`` takes on the machine the bounds were set on, a
# 2-core Intel Xeon VM in its typical state. Times are scaled to it.
REFERENCE_LOOP_S = 1.5e-3


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "cli_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "fraction",
}

PER_LAYER = {
    "algebra.add_calls": "count",
    "algebra.mul_calls": "count",
    "algebra.validate_s": "s",
    "properties.decisions": "count",
    "properties.busy_s": "s",
    "properties.ops_per_decision": "ops/decision",
    "properties.full_scan_share": "fraction",
    "words.run_calls": "count",
    "words.run_busy_s": "s",
    "words.run_ops_per_call": "ops/call",
    "words.init_calls": "count",
    "words.init_busy_s": "s",
    "words.init_ops_per_symbol": "ops/symbol",
    "words.support_calls": "count",
    "trees.run_calls": "count",
    "trees.run_busy_s": "s",
    "trees.init_calls": "count",
    "trees.init_busy_s": "s",
    "trees.init_us_per_node": "us/node",
    "trees.enumerate_busy_s": "s",
    "bridge.calls": "count",
    "bridge.busy_s": "s",
    "harness.self_s": "s",
    "harness.automata_built": "count",
    "harness.inputs_checked": "count",
    "harness.inputs_per_s": "1/s",
    "fileio.loads": "count",
    "fileio.load_s": "s",
    "fileio.save_s": "s",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "trace.overhead_s": "s",
    "robustness.probes_failed": "count",
}


class Tally:
    """Requests attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: list = []

    def record(self, name, error, mismatch):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.mismatches += mismatch
            if len(self.errors) < 10:
                self.errors.append(f"{name}: {error}")


def run_cli(argv, timed: bool):
    """One ``bimaut`` command in a subprocess, waited for."""
    entry = [str(BENCH / "cli_timed.py")] if timed else ["-m", "bimonoid_automata"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


def run_batch(batch, lib, tracer=None, between=None):
    """Run every request once, in order; return (elapsed, rows, counters).

    A row is (request, result, latency in seconds, exception); ``elapsed``
    is the sum of the latencies. With a tracer, each library request runs on
    a fresh ``CountingAlgebra`` and each command through ``cli_timed.py``.
    ``between()``, if given, runs before each request, outside its timing.
    """
    rows, counters = [], []
    for i, req in enumerate(batch):
        if between is not None:
            between()
        if req.argv is not None:
            t0 = perf_counter()
            if tracer is None:
                result = run_cli(req.argv, timed=False)
            else:
                result = tracer.span("cli.subprocess", lambda: run_cli(req.argv, timed=True))
            rows.append((req, result, perf_counter() - t0, None))
            continue
        counter = None
        if tracer is not None:
            counter = lib.algebra.CountingAlgebra(req.algebra)
            counters.append(counter)
            tracer.counter, tracer.request = counter, i
        t0 = perf_counter()
        try:
            result, exc = req.call(counter), None
        except Exception as e:  # a failing request is counted, not fatal
            result, exc = None, e
        rows.append((req, result, perf_counter() - t0, exc))
    if tracer is not None:
        tracer.counter, tracer.request = None, -1
    return sum(row[2] for row in rows), rows, counters


def verify(rows, tally: Tally):
    for req, result, _, exc in rows:
        tally.record(req.name, *_judge(req.verify, result, exc))


def _judge(check, result, exc):
    """(error text or None, whether it is a wrong answer)."""
    if exc is not None:
        return f"{type(exc).__name__}: {str(exc)[:200]}", False
    try:
        check(result)
    except Exception as e:  # R.Mismatch, or output the check cannot read
        return f"{type(e).__name__}: {str(e)[:300]}", True
    return None, False


def run_probes(wl, lib, tally: Tally):
    """Each probe once; name -> 'ok' or the error. A probe that raises is
    only reported; one that returns a wrong answer also makes the run
    incorrect. The probes' inputs are built here, after every other
    measurement, so they weigh on none."""
    outcomes = {}
    for probe in wl.probes(lib):
        try:
            result, exc = probe.call(), None
        except Exception as e:  # recorded by name
            result, exc = None, e
        error, mismatch = _judge(probe.verify, result, exc)
        outcomes[probe.name] = "ok" if error is None else error
        tally.mismatches += mismatch
    return outcomes


def speed_sample():
    """Seconds one fixed pure-Python loop takes, with the collector off.

    The loop does the kind of work the library does (dict lookups, tuples,
    list growth, a sort) and touches nothing the library made, so its time
    tracks how fast the machine runs Python at that moment and nothing else.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = dict.fromkeys(range(64), 0)
        pairs = []
        for i in range(3000):
            k = (i * 7) & 63
            table[k] += i
            pairs.append((k, i & 3))
        pairs.sort()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def typical(times):
    """Mean of a request's times over the passes, without the fastest and the
    slowest once there are three. The machine's speed drifts by tens of
    percent over seconds: a mean follows the whole run, not the moment of
    one pass, and the trimming drops a single stalled pass."""
    xs = sorted(times)
    return statistics.mean(xs[1:-1] if len(xs) > 2 else xs)


def tail(values):
    """Value at the highest percentile with at least 10 samples above it,
    that percentile, and the sample count (the maximum below 11 samples)."""
    xs = sorted(values)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], 100.0 * k / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload: str, seed: int, toy: bool, known):
    """Generate inputs, time the first set-up, build the batch."""
    wl = WL.WORKLOADS[workload](seed, toy, OUT / workload, known)
    wl.generate(WL.import_lib())
    setup_times = []
    lib = set_up(wl, setup_times)
    batch = wl.requests(lib)
    # Requests of one kind would otherwise run back to back and all meet the
    # same few seconds of machine noise; spread them over the batch.
    random.Random(seed).shuffle(batch)
    return wl, lib, setup_times, batch


def set_up(wl, times):
    """Import the package afresh and load the workload's files; time both.

    The batch keeps the objects of the set-up it was built from, so further
    set-ups can be timed between its requests.
    """
    t0 = perf_counter()
    lib = WL.import_lib()
    wl.setup(lib)
    times.append(perf_counter() - t0)
    return lib


def measure(workload, seed, seconds, toy=False, known=None):
    """The end-to-end run; returns (result, report lines)."""
    started = perf_counter()
    wl, lib, setup_times, batch = prepare(workload, seed, toy, known or R.KnownAnswers())
    tally = Tally()
    per_request = [[] for _ in batch]
    passes = 0
    loops = []
    loop_start = perf_counter()

    def between():
        due = (perf_counter() - loop_start) * SETUP_REPS / seconds
        if len(setup_times) < min(SETUP_REPS, 1 + due) and not toy:
            set_up(wl, setup_times)
        loops.append(speed_sample())

    # The first pass runs the whole batch; later passes leave out the
    # requests marked ``once`` and repeat while another pass still fits.
    while True:
        todo = [i for i, req in enumerate(batch) if not (passes and req.once)]
        _, rows, _ = run_batch([batch[i] for i in todo], lib, between=between)
        verify(rows, tally)
        passes += 1
        for i, (_, _, lat, _) in zip(todo, rows):
            per_request[i].append(lat)
        next_pass = sum(lat for req, _, lat, _ in rows if not req.once)
        if perf_counter() - loop_start + next_pass > seconds:
            break
    while len(setup_times) < SETUP_REPS and not toy:
        set_up(wl, setup_times)
    rss = peak_rss_mb()
    probe_outcomes = run_probes(wl, lib, tally)
    # One latency per request of the batch, taken over its passes, so the
    # sample count and the tail's percentile do not depend on how many passes
    # fit in the run; the batch time is the sum of these latencies.
    latencies = [typical(times) * 1e3 for times in per_request]
    wall = sum(latencies) / 1e3
    cli_ms = [lat for req, lat in zip(batch, latencies) if req.argv is not None]
    tail_value, tail_pct, n = tail(latencies)
    once = sum(req.once for req in batch)
    raw = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "req_per_s": len(batch) / wall,
        "req_p50_ms": statistics.median(latencies),
        "req_tail_ms": tail_value,
        "cli_p50_ms": statistics.median(cli_ms),
    }
    # The machine's speed moves by a third between minutes as other tenants
    # come and go, and every time moves with it; the speed loop, timed before
    # each request, moves the same way. Times are scaled to the reference
    # speed, by the loop's mean over the run without its top and bottom tenth.
    xs = sorted(loops)
    cut = len(xs) // 10
    loop_s = statistics.mean(xs[cut:len(xs) - cut])
    scale = REFERENCE_LOOP_S / loop_s
    metrics = {k: v / scale if k == "req_per_s" else v * scale for k, v in raw.items()}
    metrics["peak_rss_mb"] = rss
    metrics["ok_share"] = 1.0 - tally.failed / tally.attempted
    lines = [f"workload {workload} seed {seed}: {len(batch)} requests, {passes} passes "
             f"({once} of the requests in the first only), {perf_counter() - started:.1f}s in all"]
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": "sum of the requests' latencies",
        "req_per_s": "requests of the batch over wall_s",
        "req_tail_ms": f"p{tail_pct:.1f} of {n} requests, each its trimmed mean over the passes",
        "cli_p50_ms": f"{len(cli_ms)} commands",
        "peak_rss_mb": "before the robustness probes",
        "ok_share": (f"failed_share {tally.failed / tally.attempted:.6f} = {tally.failed} of "
                     f"{tally.attempted} requests; robustness probes failed: "
                     f"{sum(v != 'ok' for v in probe_outcomes.values())} of {len(probe_outcomes)}"),
    }
    for k, v in raw.items():
        notes[k] = "; ".join(x for x in (notes.get(k), f"{v:.6g} as measured") if x)
    lines += [f"  {k:<12} {v:.6g} {END_TO_END[k]}  {notes.get(k, '')}" for k, v in metrics.items()]
    lines.append(f"  speed loop {loop_s * 1e3:.4f} ms (trimmed mean of {len(loops)}; reference "
                 f"{REFERENCE_LOOP_S * 1e3:g} ms): times scaled by {scale:.4f}")
    lines += _probe_lines(probe_outcomes) + [f"  error: {e}" for e in tally.errors]
    return _result(tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}), lines


def trace(workload, seed, toy=False, known=None):
    """One untraced and one traced batch; returns (result, report lines)."""
    wl, lib, _, batch = prepare(workload, seed, toy, known or R.KnownAnswers())
    tally = Tally()
    plain_time, plain_rows, _ = run_batch(batch, lib)
    verify(plain_rows, tally)
    probe_outcomes = run_probes(wl, lib, tally)

    tracer = Tracer()
    tracer.install(lib)
    try:
        wl.setup(lib)
        before = {layer: tracer.busy_of(layer) for layer in LAYERS}
        root_before = tracer.root_time
        traced_time, rows, counters = run_batch(batch, lib, tracer)
    finally:
        tracer.uninstall()
    verify(rows, tally)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT / f"trace-{workload}"))

    stats = [r.stats for _, r, _, _ in plain_rows if isinstance(getattr(r, "stats", None), dict)]
    check_time = sum(lat for _, r, lat, _ in plain_rows if isinstance(getattr(r, "stats", None), dict))
    inputs = sum(s.get("inputs_checked", 0) for s in stats)
    cli_times = [json.loads(r.stderr.strip().splitlines()[-1]) for req, r, _, _ in rows
                 if req.argv is not None and r.returncode == 0]
    decisions = tracer.tally["properties.decisions"]
    word_runs = tracer.count("words.run_semantics")
    t = tracer
    metrics = {
        "algebra.add_calls": sum(c.add_count for c in counters),
        "algebra.mul_calls": sum(c.mul_count for c in counters),
        "algebra.validate_s": t.busy_of("algebra.validate"),
        "properties.decisions": decisions,
        "properties.busy_s": t.busy_of("properties"),
        "properties.ops_per_decision": t.ops_of("properties") / decisions if decisions else 0.0,
        "properties.full_scan_share": t.tally["properties.full_scans"] / decisions if decisions else 0.0,
        "words.run_calls": word_runs,
        "words.run_busy_s": t.busy_of("words.run"),
        "words.run_ops_per_call": t.ops_of("words.run") / word_runs if word_runs else 0.0,
        "words.init_calls": t.count("words.state_vector"),
        "words.init_busy_s": t.busy_of("words.init"),
        "words.init_ops_per_symbol": (t.ops_of("words.init") / t.tally["words.symbols"]
                                      if t.tally["words.symbols"] else 0.0),
        "words.support_calls": t.count("words.in_support"),
        "trees.run_calls": t.count("trees.run_semantics"),
        "trees.run_busy_s": t.busy_of("trees.run"),
        "trees.init_calls": t.count("trees.state_vector"),
        "trees.init_busy_s": t.busy_of("trees.init"),
        "trees.init_us_per_node": (t.busy_of("trees.init") * 1e6 / t.tally["trees.nodes"]
                                   if t.tally["trees.nodes"] else 0.0),
        "trees.enumerate_busy_s": t.busy_of("trees.enumerate"),
        "bridge.calls": t.count(*[n for n in t.names if n.startswith("bridge.")]),
        "bridge.busy_s": t.busy_of("bridge"),
        "harness.self_s": t.busy_of("harness"),
        "harness.automata_built": sum(s.get("automata_checked", 0) for s in stats),
        "harness.inputs_checked": inputs,
        "harness.inputs_per_s": inputs / check_time if check_time else 0.0,
        "fileio.loads": t.entries("fileio.load_algebra", "fileio.load_automaton"),
        "fileio.load_s": t.busy_of("fileio.load"),
        "fileio.save_s": t.busy_of("fileio.save"),
        "cli.import_ms": statistics.median(c["import_ms"] for c in cli_times) if cli_times else 0.0,
        "cli.run_ms": statistics.median(c["run_ms"] for c in cli_times) if cli_times else 0.0,
        "trace.overhead_s": traced_time - plain_time,
        "robustness.probes_failed": sum(v != "ok" for v in probe_outcomes.values()),
    }
    layer_self = {layer: t.busy_of(layer) - before[layer] for layer in LAYERS}
    bench_self = traced_time - (t.root_time - root_before)
    lines = [f"workload {workload} seed {seed} traced: untraced batch {plain_time:.3f}s, "
             f"traced batch {traced_time:.3f}s, {len(t.sp_name)} spans"]
    lines += [f"  {k:<28} {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
    lines.append(f"  traced batch {traced_time:.3f}s = self time of " + ", ".join(
        f"{layer} {s:.3f}" for layer, s in layer_self.items()) + f", benchmark {bench_self:.3f}")
    lines += _probe_lines(probe_outcomes) + [f"  error: {e}" for e in tally.errors]
    return _result(tally, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}), lines


def _probe_lines(outcomes):
    return [f"  probe {name}: {outcome}" for name, outcome in outcomes.items()]


def _result(tally, metrics):
    return {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WL.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "bimonoid_automata" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'bimonoid_automata'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            result, lines = trace(args.workload, args.seed, args.toy)
        else:
            result, lines = measure(args.workload, args.seed, args.seconds, args.toy)
    except Exception:
        traceback.print_exc()
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
