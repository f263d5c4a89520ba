#!/usr/bin/env python3
"""Validate the machine-readable bench output (BENCH_*.json) against the shared
emitter contract (src/telemetry/bench_json.h) plus per-bench series requirements.

Structural contract for every file:
  * top level is an object with "bench" (non-empty string), "schema" (int == 1),
    and "points" (list);
  * every point is an object with a non-empty "series" string and at least one
    measurement field; field values are numbers or strings only (the emitter can
    produce nothing else -- anything different means hand-edited output).

Known benches additionally must contain specific series (and, where noted,
fields inside them) so downstream tooling -- trace_report comparisons, the CI
tracing-overhead gate, the perf trajectory -- can rely on them:

  headline_comparison        throughput, telemetry_overhead, tracing_overhead
                             (overhead_fraction), epoch_parallelism
                             (hardware_threads, sort_strategy), phase_breakdown
                             (parallel_efficiency, cpu_busy_s,
                             speedup_vs_1_thread, work_inflation), kernel_backend
  fig13a_sort_parallelism    sort_threads (parallel_efficiency), sort_strategy
                             (strategy, seconds on EVERY point)
  fig13b_suboram_parallelism suboram_threads, epoch_pool (parallel_efficiency)
  micro_primitives           primitive_kernels (backend, op, ns_per_op), crypto
                             (backend, op, bytes, gb_per_s and its min/max),
                             suboram_scan (backend, value_bytes, ns_per_slot and
                             its min/max)

Beyond shape, a few committed values are load-bearing claims and are gated here
so a regression cannot land silently by committing the regenerated numbers:

  * telemetry/tracing overhead_fraction <= 0.01 -- DESIGN.md claims the always-on
    telemetry stays under 1%; a committed point above that means either the claim
    broke or the measurement run was too short to resolve it (both are bugs);
  * phase_breakdown work_inflation <= 1.25 -- CPU time (not wall-busy) per phase
    must not grow materially with epoch_threads; the 3.2x regression this gate
    postdates showed up here first;
  * fig13a sort_strategy crossover -- at the largest measured n on one thread the
    bucket sort must beat the bitonic network by >= 1.5x (the headline claim of
    the O(n log n) strategy; see DESIGN.md "Oblivious sorting"). Committing a
    regenerated JSON where the advantage evaporated fails the check.

Usage: tools/check_bench_schema.py [dir ...]   (default: current directory)
Exit status: 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import sys

# bench name -> {series: [required fields]}
REQUIRED_SERIES = {
    "headline_comparison": {
        "throughput": [],
        "telemetry_overhead": ["overhead_fraction"],
        "tracing_overhead": ["overhead_fraction", "spans_recorded"],
        "epoch_parallelism": ["hardware_threads", "sort_strategy"],
        "phase_breakdown": [
            "parallel_efficiency",
            "phase",
            "epoch_threads",
            "hardware_threads",
            "cpu_busy_s",
            "speedup_vs_1_thread",
            "work_inflation",
        ],
        "kernel_backend": [],
    },
    "fig13a_sort_parallelism": {
        "sort_threads": ["parallel_efficiency", "threads", "seconds"],
        "sort_strategy": ["items", "threads", "strategy", "seconds"],
    },
    "fig13b_suboram_parallelism": {
        "suboram_threads": ["objects", "seconds"],
        "epoch_pool": ["parallel_efficiency", "epoch_threads"],
    },
    "micro_primitives": {
        "primitive_kernels": ["backend", "op", "record_bytes", "ns_per_op"],
        "crypto": ["backend", "op", "bytes", "gb_per_s", "gb_per_s_min", "gb_per_s_max"],
        "suboram_scan": ["backend", "value_bytes", "ns_per_slot", "ns_per_slot_min",
                         "ns_per_slot_max"],
    },
}

# bench name -> {series: [fields required on EVERY point of the series]}. Stricter
# than REQUIRED_SERIES (any-point): these columns must be plottable unguarded, so a
# single row missing the field fails the check.
REQUIRED_UNIFORM_FIELDS = {
    "fig13a_sort_parallelism": {
        "sort_strategy": ["items", "threads", "strategy", "seconds"],
    },
}

# bench name -> {series: {field: max allowed value}}. Applied to every point in
# the series that carries the field; a committed point above the ceiling fails
# the check (see the module docstring for why these specific values).
MAX_FIELD_VALUES = {
    "headline_comparison": {
        "telemetry_overhead": {"overhead_fraction": 0.01},
        "tracing_overhead": {"overhead_fraction": 0.01},
        "phase_breakdown": {"work_inflation": 1.25},
    },
}


# The bucket sort's reason to exist is the committed crossover: at the largest
# measured n on a single thread it must beat the bitonic baseline by at
# least this factor (ISSUE: "bucket >= 1.5x faster at n = 2^20, 1 thread").
SORT_STRATEGY_MIN_SPEEDUP = 1.5


def check_sort_strategy_crossover(path: pathlib.Path, points: list) -> list:
    errors = []
    by_items = {}
    for pt in points:
        items = pt.get("items")
        threads = pt.get("threads")
        strategy = pt.get("strategy")
        seconds = pt.get("seconds")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (items, threads, seconds)):
            continue  # shape errors are reported by the structural checks
        if threads == 1 and strategy in ("bitonic", "bucket"):
            by_items.setdefault(items, {})[strategy] = seconds
    if not by_items:
        return errors  # missing-series error already reported
    largest = max(by_items)
    pair = by_items[largest]
    if "bitonic" not in pair or "bucket" not in pair:
        errors.append(
            f"{path}: sort_strategy series lacks a 1-thread bitonic/bucket pair "
            f"at its largest n ({largest})"
        )
        return errors
    if pair["bucket"] <= 0 or pair["bitonic"] / pair["bucket"] < SORT_STRATEGY_MIN_SPEEDUP:
        speedup = pair["bitonic"] / pair["bucket"] if pair["bucket"] > 0 else 0.0
        errors.append(
            f"{path}: bucket sort speedup {speedup:.2f}x over bitonic at "
            f"n={largest:.0f}, 1 thread is below the committed "
            f"{SORT_STRATEGY_MIN_SPEEDUP}x floor"
        )
    return errors


def check_file(path: pathlib.Path) -> list:
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        err(f"unreadable or invalid JSON: {e}")
        return errors

    if not isinstance(doc, dict):
        err("top level is not an object")
        return errors
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        err("missing/empty 'bench' string")
    if doc.get("schema") != 1:
        err(f"'schema' must be 1, got {doc.get('schema')!r}")
    points = doc.get("points")
    if not isinstance(points, list):
        err("'points' must be a list")
        return errors
    if not points:
        err("'points' is empty")

    seen_series = {}
    for i, pt in enumerate(points):
        if not isinstance(pt, dict):
            err(f"points[{i}] is not an object")
            continue
        series = pt.get("series")
        if not isinstance(series, str) or not series:
            err(f"points[{i}] missing/empty 'series'")
            continue
        fields = {k: v for k, v in pt.items() if k != "series"}
        if not fields:
            err(f"points[{i}] (series {series!r}) has no measurement fields")
        for k, v in fields.items():
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                err(f"points[{i}].{k}: value {v!r} is not a number or string")
            if isinstance(v, float) and (v != v or v in (float("inf"), float("-inf"))):
                err(f"points[{i}].{k}: non-finite number")
        seen_series.setdefault(series, []).append(pt)

    for series, required_fields in REQUIRED_SERIES.get(bench, {}).items():
        pts = seen_series.get(series)
        if not pts:
            err(f"bench {bench!r} is missing required series {series!r}")
            continue
        for field in required_fields:
            if not any(field in pt for pt in pts):
                err(f"series {series!r} lacks required field {field!r}")

    for series, uniform_fields in REQUIRED_UNIFORM_FIELDS.get(bench, {}).items():
        for i, pt in enumerate(seen_series.get(series, [])):
            for field in uniform_fields:
                if field not in pt:
                    err(
                        f"series {series!r} point {i} lacks field {field!r} "
                        f"(required on every point of this series)"
                    )

    if bench == "fig13a_sort_parallelism":
        errors.extend(check_sort_strategy_crossover(path, seen_series.get("sort_strategy", [])))

    for series, gates in MAX_FIELD_VALUES.get(bench, {}).items():
        for pt in seen_series.get(series, []):
            for field, ceiling in gates.items():
                value = pt.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    if value > ceiling:
                        err(
                            f"series {series!r} field {field!r} = {value} exceeds "
                            f"committed ceiling {ceiling} (phase "
                            f"{pt.get('phase', '?')!r}, epoch_threads "
                            f"{pt.get('epoch_threads', '?')})"
                        )
    return errors


def main() -> int:
    dirs = [pathlib.Path(d) for d in (sys.argv[1:] or ["."])]
    files = sorted({p for d in dirs for p in d.glob("BENCH_*.json")})
    if not files:
        print(f"check_bench_schema: no BENCH_*.json under {', '.join(map(str, dirs))}")
        return 1
    errors = []
    for f in files:
        errors.extend(check_file(f))
    for e in errors:
        print(e)
    checked = ", ".join(p.name for p in files)
    if errors:
        print(f"check_bench_schema: {len(errors)} error(s) in {len(files)} file(s)")
        return 1
    print(f"check_bench_schema: {len(files)} file(s) ok ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
