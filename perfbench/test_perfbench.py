#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root.  Builds perfbench like run.py does, then runs
every workload at 2% of its size for the minimum of three repetitions.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

WORKLOADS = ("postmark_nfs", "postmark_iscsi", "seqrand", "fleet_nfs")
EXE = None


def perfbench(workload, seed, trace=0, *extra):
    """Runs the binary at small scale; returns (detail, result) objects."""
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--scale", "0.02", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = r.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    def test_same_seed_gives_same_digest_and_counts(self):
        for w in WORKLOADS:
            d1, r1 = perfbench(w, 5)
            d2, r2 = perfbench(w, 5)
            self.assertEqual(d1["sim.digest"], d2["sim.digest"], w)
            self.assertEqual(d1["ledger"], d2["ledger"], w)
            self.assertTrue(r1["correct"], w)
            self.assertEqual(r1["failed"], 0, w)
            self.assertEqual(r1["attempted"], r2["attempted"], w)

    def test_other_seed_changes_digest_and_counts(self):
        for w in WORKLOADS:
            d1, _ = perfbench(w, 5)
            d2, _ = perfbench(w, 6)
            self.assertNotEqual(d1["sim.digest"], d2["sim.digest"], w)
            self.assertNotEqual(d1["ledger"], d2["ledger"], w)

    def test_corrupted_expected_byte_is_a_failed_operation(self):
        # On fleet_nfs the hook unlinks a shared object instead; either way
        # each repetition must count exactly one failed operation.
        for w in WORKLOADS:
            d, r = perfbench(w, 5, 0, "--corrupt-check", "3")
            self.assertEqual(r["failed"], d["reps"], w)
            self.assertFalse(r["correct"], w)

    def test_tracing_leaves_digest_unchanged(self):
        per_layer = [(m["name"], m["unit"]) for m in spec()["per_layer"]]
        for w in WORKLOADS:
            d0, _ = perfbench(w, 5, 0)
            d1, r1 = perfbench(w, 5, 1)
            self.assertEqual(d0["sim.digest"], d1["sim.digest"], w)
            self.assertTrue(d1["digests_agree"], w)
            self.assertTrue(r1["correct"], w)
            got = [(k, v["unit"]) for k, v in r1["metrics"].items()]
            self.assertEqual(got, per_layer, w)
            self.assertGreater(r1["metrics"]["bench.self_s"]["value"], 0, w)

    def test_untraced_run_reports_the_end_to_end_metrics(self):
        e2e = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for w in WORKLOADS:
            _, r = perfbench(w, 5)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, e2e, w)
            for k, v in r["metrics"].items():
                self.assertGreater(v["value"], 0, f"{w} {k}")


if __name__ == "__main__":
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    EXE = bench_run.build(os.path.abspath(out))
    if EXE is None:
        sys.exit(1)
    unittest.main()
