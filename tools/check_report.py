#!/usr/bin/env python3
"""Validate a netstore-report-v1 JSON file (the bench --json output).

Usage: check_report.py <report.json>...

Checks, per file:
  * top level: format == "netstore-report-v1", bench/reproduces strings,
    tables and snapshots arrays present
  * every table: unique name, string columns, every row exactly as wide
    as the header, cells are strings or finite numbers
  * every snapshot: metrics keyed by dotted names; each value is a
    counter {value} or sampler {count, mean, min, max, p50, p95, p99,
    p999}
  * every trace:* table: the per-component mean latencies sum to the
    total mean within 1 us (the paper's Table 4 breakdown criterion)
  * any "pool" snapshot (BufferPool telemetry, NETSTORE_POOL_STATS=1):
    all eight pool.* counters present, alloc_fallbacks consistent with
    slab capacity (every fallback consumes one fresh slab frame), and
    bytes_copied <= bytes_read + bytes_written (every charged copy is
    a user-boundary crossing)
  * any snapshot whose label starts with "fleet": the fleet.* metric
    keys (ops counter, response/queue-delay/service samplers, per-client
    fairness sampler) present with consistent counts
  * any snapshot exporting sim.timer.* (event-queue telemetry): both
    counters present together, and no event fired more than once
    (fired <= scheduled)

Exit status 0 iff every file passes.  Stdlib only.
"""

import json
import math
import sys


def fail(path, msg):
    print(f"{path}: FAIL: {msg}")
    return False


def check_cell(c):
    if isinstance(c, str):
        return True
    if isinstance(c, bool):
        return False
    if isinstance(c, (int, float)):
        return math.isfinite(c)
    return False


def check_metric(key, v):
    kind = v.get("kind")
    if kind == "counter":
        return isinstance(v.get("value"), int)
    if kind == "sampler":
        if not isinstance(v.get("count"), int):
            return False
        return all(
            isinstance(v.get(f), (int, float)) and math.isfinite(v[f])
            for f in ("mean", "min", "max", "p50", "p95", "p99", "p999")
        )
    return False


def check_trace_table(path, t):
    """trace:* tables: component mean latencies must sum to the total."""
    cols = t["columns"]
    if "scope" not in cols or "mean_us" not in cols:
        return fail(path, f"table {t['name']}: missing scope/mean_us columns")
    scope_i, mean_i, count_i = (
        cols.index("scope"),
        cols.index("mean_us"),
        cols.index("count"),
    )
    total_mean = None
    comp_sum = 0.0
    total_count = None
    for row in t["rows"]:
        scope = row[scope_i]
        if scope == "total":
            total_mean = row[mean_i]
            total_count = row[count_i]
        elif scope.startswith("component:"):
            comp_sum += row[mean_i]
    if total_mean is None:
        return fail(path, f"table {t['name']}: no 'total' row")
    if total_count and abs(comp_sum - total_mean) > 1.0:
        return fail(
            path,
            f"table {t['name']}: component means sum to {comp_sum:.3f} us "
            f"but total mean is {total_mean:.3f} us (> 1 us apart)",
        )
    return True


POOL_KEYS = (
    "pool.slabs",
    "pool.shared_pages",
    "pool.unshare_ops",
    "pool.alloc_fallbacks",
    "pool.copies",
    "pool.bytes_copied",
    "pool.bytes_read",
    "pool.bytes_written",
)
FRAMES_PER_SLAB = 256  # core::BufferPool::kFramesPerSlab


def check_pool_snapshot(path, metrics):
    """BufferPool telemetry: all eight counters, internally consistent."""
    ok = True
    for key in POOL_KEYS:
        v = metrics.get(key)
        if not (isinstance(v, dict) and v.get("kind") == "counter"):
            ok = fail(path, f"pool snapshot: missing counter {key!r}")
    if not ok:
        return False
    slabs = metrics["pool.slabs"]["value"]
    fallbacks = metrics["pool.alloc_fallbacks"]["value"]
    if fallbacks > slabs * FRAMES_PER_SLAB:
        return fail(
            path,
            f"pool snapshot: {fallbacks} alloc_fallbacks exceed "
            f"{slabs} slab(s) x {FRAMES_PER_SLAB} frames of capacity",
        )
    if slabs > 0 and fallbacks == 0:
        return fail(
            path, "pool snapshot: slabs exist but no alloc_fallbacks recorded"
        )
    # Data plane (DESIGN.md section 17): payload crosses layers as shared
    # pool frames and the only charged copies are user-buffer boundary
    # crossings (core::copy_in / copy_out), so the copied bytes can never
    # exceed the bytes that crossed the read/write boundaries.
    copied = metrics["pool.bytes_copied"]["value"]
    boundary = (
        metrics["pool.bytes_read"]["value"]
        + metrics["pool.bytes_written"]["value"]
    )
    if copied > boundary:
        return fail(
            path,
            f"pool snapshot: {copied} bytes_copied exceed "
            f"{boundary} bytes_read + bytes_written — a below-boundary "
            f"copy slipped past the data plane",
        )
    return True


FLEET_COUNTERS = (
    "fleet.ops",
    "fleet.shared_ops",
    "fleet.forced_revalidations",
)
FLEET_SAMPLERS = (
    "fleet.response_us",
    "fleet.queue_delay_us",
    "fleet.service_us",
    "fleet.client_mean_us",
)


def check_fleet_snapshot(path, label, metrics):
    """core::Fleet telemetry: the fleet.* namespace, internally consistent."""
    ok = True
    for key in FLEET_COUNTERS:
        v = metrics.get(key)
        if not (isinstance(v, dict) and v.get("kind") == "counter"):
            ok = fail(path, f"snapshot {label!r}: missing counter {key!r}")
    for key in FLEET_SAMPLERS:
        v = metrics.get(key)
        if not (isinstance(v, dict) and v.get("kind") == "sampler"):
            ok = fail(path, f"snapshot {label!r}: missing sampler {key!r}")
    if not ok:
        return False
    ops = metrics["fleet.ops"]["value"]
    for key in ("fleet.response_us", "fleet.queue_delay_us",
                "fleet.service_us"):
        if metrics[key]["count"] != ops:
            return fail(
                path,
                f"snapshot {label!r}: {key} has {metrics[key]['count']} "
                f"samples but fleet.ops is {ops}",
            )
    if metrics["fleet.shared_ops"]["value"] > ops:
        return fail(path, f"snapshot {label!r}: more shared ops than ops")
    return True


TIMER_KEYS = (
    "sim.timer.scheduled",
    "sim.timer.fired",
)


def check_timer_metrics(path, label, metrics):
    """sim::Env event-queue telemetry: all-or-nothing, each event fires once.

    scheduled counts accepted schedule_at/schedule_after calls and fired
    counts dispatches, so fired <= scheduled always (the difference is
    events still pending at snapshot time).
    """
    ok = True
    for key in TIMER_KEYS:
        v = metrics.get(key)
        if not (isinstance(v, dict) and v.get("kind") == "counter"):
            ok = fail(path, f"snapshot {label!r}: missing counter {key!r}")
    if not ok:
        return False
    scheduled = metrics["sim.timer.scheduled"]["value"]
    fired = metrics["sim.timer.fired"]["value"]
    if fired > scheduled:
        return fail(
            path,
            f"snapshot {label!r}: fired ({fired}) exceeds scheduled "
            f"({scheduled}) — an event fired twice",
        )
    return True


def check_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            r = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, str(e))

    if r.get("format") != "netstore-report-v1":
        return fail(path, f"bad format field: {r.get('format')!r}")
    for field in ("bench", "reproduces"):
        if not isinstance(r.get(field), str) or not r[field]:
            return fail(path, f"missing/empty {field!r}")
    if not isinstance(r.get("tables"), list) or not isinstance(
        r.get("snapshots"), list
    ):
        return fail(path, "tables/snapshots must be arrays")

    ok = True
    names = set()
    for t in r["tables"]:
        name = t.get("name")
        if not name or name in names:
            ok = fail(path, f"missing or duplicate table name: {name!r}")
            continue
        names.add(name)
        cols = t.get("columns")
        if not isinstance(cols, list) or not all(
            isinstance(c, str) for c in cols
        ):
            ok = fail(path, f"table {name}: bad columns")
            continue
        for i, row in enumerate(t.get("rows", [])):
            if not isinstance(row, list) or len(row) != len(cols):
                ok = fail(path, f"table {name} row {i}: width != header")
            elif not all(check_cell(c) for c in row):
                ok = fail(path, f"table {name} row {i}: bad cell value")
        if name.startswith("trace:"):
            ok = check_trace_table(path, t) and ok

    for s in r["snapshots"]:
        label = s.get("label")
        metrics = s.get("metrics")
        if not isinstance(label, str) or not isinstance(metrics, dict):
            ok = fail(path, "snapshot missing label/metrics")
            continue
        for key, v in metrics.items():
            if not check_metric(key, v):
                ok = fail(path, f"snapshot {label!r}: bad metric {key!r}")
        if label == "pool":
            ok = check_pool_snapshot(path, metrics) and ok
        if label.startswith("fleet"):
            ok = check_fleet_snapshot(path, label, metrics) and ok
        if any(k in metrics for k in TIMER_KEYS):
            ok = check_timer_metrics(path, label, metrics) and ok

    if ok:
        nrows = sum(len(t["rows"]) for t in r["tables"])
        print(
            f"{path}: OK ({len(r['tables'])} table(s), {nrows} row(s), "
            f"{len(r['snapshots'])} snapshot(s))"
        )
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    return 0 if all([check_report(p) for p in argv[1:]]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
