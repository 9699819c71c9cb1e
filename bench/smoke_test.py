"""Smoke test of the benchmark at toy size.

Run from the repository root: ``python3 bench/smoke_test.py`` (about a
minute). It runs every workload with and without tracing, and checks that
every metric ``BENCHMARK.json`` names is printed with its unit, that a wrong
expected answer is counted as a failure, and that the benchmark refuses to
run without the library's source.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference as R  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROBES = ("deep_tree_init", "long_word_prune", "deep_tree_str", "deep_tree_parse")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--toy")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], p.stdout)
                    self.assertEqual(result["failed"], 0, p.stdout)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(p.stdout, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}")
                    if workload == "evaluate":
                        for probe in PROBES:
                            self.assertIn(f"probe {probe}: ", p.stdout)

    def test_wrong_expected_answer_counts_as_failed(self):
        known = R.KnownAnswers()
        known.algebras["Boole"]["fails"].append("commutative")  # Boole is commutative
        result, lines = run.measure("classify", 3, 1, toy=True, known=known)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)
        share = re.search(r"failed_share ([0-9.]+)", "\n".join(lines))
        self.assertGreater(float(share.group(1)), 0.0)

    def test_refuses_to_run_without_the_library(self):
        bare = ROOT / "bench" / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            p = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
