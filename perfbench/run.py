#!/usr/bin/env python3
"""Builds and runs the netstore host-time benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the simulator under src/) with CMake in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only check that the build is current.  Then one process runs the workload
and its output is relayed.  The last line is the result object; with
--trace 1 the spans of one traced repetition are written under the build
directory's traces/.  Exits non-zero without a result when the build or
the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(out):
    """Configures (once) and builds; returns the binary's path or None."""
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=840)
            except (OSError, subprocess.TimeoutExpired) as e:
                sys.stderr.write(f"perfbench: {' '.join(cmd)}: {e}\n")
                return None
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-6000:])
                sys.stderr.write(f"perfbench: build step failed: "
                                 f"{' '.join(cmd)}\n")
                return None
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    exe = build(os.path.abspath(out))
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.abspath(out), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.csv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        sys.stderr.write(f"perfbench: run failed with code {r.returncode}\n")
        return r.returncode or 1

    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ want)}\n")
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
