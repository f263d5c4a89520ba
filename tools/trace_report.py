#!/usr/bin/env python3
"""Critical-path and parallel-efficiency report over a Snoopy Chrome trace.

Input: the Perfetto/Chrome trace-event JSON written by SNOOPY_TRACE_OUT (or
Tracer::WriteChromeTrace): complete events (ph == "X") with categories

  epoch  one span per Snoopy::RunEpoch
  phase  pipeline phases inside an epoch (lb_prepare, suboram_execute,
         response_match, deliver, seal, repair)
  task   one span per RunPhase task (per-LB / per-subORAM work item)
  pool   per-worker summaries (name == phase, args tasks/busy_ns/idle_ns/
         cpu_busy_ns) and one barrier span per pooled phase
  step   sub-phase steps inside a task (lb_assign, suboram_scan, sort...).
         "sort" steps are the ObliviousSortSlab entry point: args carry the
         resolved strategy (0 = bitonic, 1 = bucket), the record count, and, for
         the bucket butterfly, its buckets x capacity geometry — the report
         labels each sort row with them

For every epoch the report computes:

  * per-phase wall time, worker busy/idle split, parallel efficiency
    busy / (busy + idle), task-skew (longest task / mean task), and barrier
    stall (phase end minus last task end);
  * per-phase work inflation: wall-busy seconds over per-thread CPU seconds
    (CLOCK_THREAD_CPUTIME_ID, the cpu_busy_ns pool arg). On a dedicated core
    the two agree; a ratio above 1.15x means workers were timeshared or
    preempted while "busy", so wall-busy overstates the work actually done --
    the exact failure mode behind the 3.2x epoch-parallelism regression.
    Inflated phases are flagged in the report;
  * the epoch critical path: each phase's contribution is its longest task
    (the chain the barrier actually waited on) plus the phase's serial
    prologue/epilogue, and the epoch's serial remainder (deliver, seal,
    orchestration gaps) is attributed separately;
  * an Amdahl decomposition: serial seconds = epoch wall minus pooled-phase
    wall, parallel work = summed worker busy seconds, measured serial fraction
    f = serial / wall, and projected speedup wall / (serial + work / W).

All inputs are public schedule facts by construction (the tracer's leakage
model); nothing here reads request contents.

Usage:
  tools/trace_report.py TRACE.json [--json OUT.json] [--workers N ...]
  tools/trace_report.py --self-check
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict

POOL_PHASES = ("lb_prepare", "suboram_execute", "response_match")

# The "sort" step span's strategy arg (src/obl/bucket_sort.h ObliviousSortSlab).
SORT_STRATEGY_NAMES = {0: "bitonic", 1: "bucket"}

# Wall-busy / CPU-busy ratio above which a phase's busy accounting is flagged as
# inflated (workers descheduled mid-task; wall time measuring the scheduler).
WORK_INFLATION_FLAG = 1.15


def load_events(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise SystemExit(f"{path}: not a Chrome trace-event file (no traceEvents)")
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def spans_within(events, cat, lo, hi):
    """Complete events of `cat` whose start lies inside [lo, hi]."""
    return [e for e in events if e.get("cat") == cat and lo <= e["ts"] <= hi]


class PhaseStats:
    def __init__(self, name):
        self.name = name
        self.wall_us = 0.0
        self.busy_us = 0.0
        self.idle_us = 0.0
        self.cpu_busy_us = 0.0
        self.tasks = 0
        self.workers = 0
        self.longest_task_us = 0.0
        self.task_durs_us = []
        self.stall_us = 0.0
        self.critical_us = 0.0

    @property
    def efficiency(self):
        denom = self.busy_us + self.idle_us
        return self.busy_us / denom if denom > 0 else 1.0

    @property
    def work_inflation(self):
        # cpu_busy_us == 0 means the trace predates the arg (or the platform has
        # no per-thread CPU clock); report 1.0 rather than flagging blindly.
        return self.busy_us / self.cpu_busy_us if self.cpu_busy_us > 0 else 1.0

    @property
    def skew(self):
        if not self.task_durs_us:
            return 1.0
        mean = sum(self.task_durs_us) / len(self.task_durs_us)
        return max(self.task_durs_us) / mean if mean > 0 else 1.0


def sort_label(args):
    """(strategy, geometry) label for one "sort" step span: the active strategy
    plus the public geometry it ran with — the butterfly's buckets x capacity for
    bucket; the bitonic network has no tunable geometry (its shape is a function
    of the record count alone), so its rows read "network"."""
    strategy = SORT_STRATEGY_NAMES.get(args.get("strategy"), "unknown")
    if strategy == "bucket":
        return strategy, f"{args.get('buckets', '?')}x{args.get('capacity', '?')}"
    return strategy, "network"


def sort_stats(events):
    """Aggregate the "sort" step spans per (strategy, geometry) label."""
    rows = defaultdict(lambda: {"count": 0, "records": 0, "wall_us": 0.0})
    for e in events:
        if e.get("cat") != "step" or e.get("name") != "sort":
            continue
        args = e.get("args", {})
        row = rows[sort_label(args)]
        row["count"] += 1
        row["records"] += args.get("records", 0)
        row["wall_us"] += e.get("dur", 0)
    return dict(rows)


def analyze(events):
    epochs = sorted((e for e in events if e.get("cat") == "epoch"),
                    key=lambda e: e["ts"])
    if not epochs:
        raise SystemExit("trace holds no epoch spans (cat == 'epoch'); "
                         "was SNOOPY_TRACE enabled?")

    phases = defaultdict(lambda: PhaseStats(""))
    total_epoch_us = 0.0
    total_serial_us = 0.0
    total_work_us = 0.0
    max_workers = 1

    for epoch in epochs:
        lo, hi = epoch["ts"], epoch["ts"] + epoch["dur"]
        total_epoch_us += epoch["dur"]
        pooled_wall_us = 0.0
        for ph in spans_within(events, "phase", lo, hi):
            st = phases[ph["name"]]
            st.name = ph["name"]
            st.wall_us += ph["dur"]
            plo, phi = ph["ts"], ph["ts"] + ph["dur"]
            workers = 0
            for pool in spans_within(events, "pool", plo, phi):
                if pool["name"] != ph["name"]:
                    continue
                args = pool.get("args", {})
                st.busy_us += args.get("busy_ns", 0) / 1e3
                st.idle_us += args.get("idle_ns", 0) / 1e3
                st.cpu_busy_us += args.get("cpu_busy_ns", 0) / 1e3
                st.tasks += args.get("tasks", 0)
                workers += 1
            tasks = [t for t in spans_within(events, "task", plo, phi)
                     if t["name"] == ph["name"]]
            if tasks:
                longest = max(t["dur"] for t in tasks)
                st.longest_task_us = max(st.longest_task_us, longest)
                st.task_durs_us.extend(t["dur"] for t in tasks)
                last_end = max(t["ts"] + t["dur"] for t in tasks)
                st.stall_us += max(0.0, phi - last_end)
                # Critical path through the phase: the serial prologue up to the
                # first task, the longest task chain, and the post-barrier tail.
                first_start = min(t["ts"] for t in tasks)
                st.critical_us += (first_start - plo) + longest + max(0.0, phi - last_end)
            else:
                st.critical_us += ph["dur"]
            if workers:
                st.workers = max(st.workers, workers)
                max_workers = max(max_workers, workers)
            if ph["name"] in POOL_PHASES:
                pooled_wall_us += ph["dur"]
        total_serial_us += max(0.0, epoch["dur"] - pooled_wall_us)

    total_work_us = sum(p.busy_us for p in phases.values()
                        if p.name in POOL_PHASES)
    return {
        "epochs": len(epochs),
        "phases": phases,
        "sorts": sort_stats(events),
        "epoch_wall_s": total_epoch_us / 1e6,
        "serial_s": total_serial_us / 1e6,
        "parallel_work_s": total_work_us / 1e6,
        "serial_fraction": (total_serial_us / total_epoch_us
                            if total_epoch_us > 0 else 0.0),
        "max_workers": max_workers,
    }


def projected_speedup(report, workers):
    serial = report["serial_s"]
    work = report["parallel_work_s"]
    wall = report["epoch_wall_s"]
    if wall <= 0:
        return 1.0
    denom = serial + work / workers
    return wall / denom if denom > 0 else math.inf


def render(report, worker_projections):
    lines = []
    lines.append(f"epochs analyzed: {report['epochs']}   "
                 f"total epoch wall: {report['epoch_wall_s'] * 1e3:.1f} ms")
    lines.append("")
    lines.append(f"{'phase':<18} {'wall ms':>9} {'busy ms':>9} {'cpu ms':>9} "
                 f"{'idle ms':>9} {'eff':>5} {'infl':>5} {'skew':>5} "
                 f"{'stall ms':>9} {'crit ms':>9} {'tasks':>6}")
    order = sorted(report["phases"].values(), key=lambda p: -p.wall_us)
    for p in order:
        lines.append(
            f"{p.name:<18} {p.wall_us / 1e3:>9.2f} {p.busy_us / 1e3:>9.2f} "
            f"{p.cpu_busy_us / 1e3:>9.2f} {p.idle_us / 1e3:>9.2f} "
            f"{p.efficiency:>5.2f} {p.work_inflation:>5.2f} {p.skew:>5.2f} "
            f"{p.stall_us / 1e3:>9.2f} {p.critical_us / 1e3:>9.2f} "
            f"{p.tasks:>6d}")
    lines.append("")
    for p in order:
        if p.work_inflation > WORK_INFLATION_FLAG:
            lines.append(
                f"WARNING: phase {p.name!r} wall-busy is {p.work_inflation:.2f}x its "
                f"CPU time (> {WORK_INFLATION_FLAG:.2f}x): workers were timeshared or "
                f"preempted mid-task; wall-busy overstates the work done and the "
                f"efficiency column is not trustworthy for this phase.")
    if report["sorts"]:
        lines.append("oblivious sorts (strategy / geometry):")
        for (strategy, geometry), row in sorted(report["sorts"].items()):
            lines.append(
                f"  {strategy:<8} {geometry:<14} x{row['count']:<5d} "
                f"{row['records']:>10d} records {row['wall_us'] / 1e3:>9.2f} ms")
        lines.append("")
    crit_total = sum(p.critical_us for p in order if p.name in POOL_PHASES)
    lines.append("critical path (pooled phases): "
                 f"{crit_total / 1e3:.2f} ms of {report['epoch_wall_s'] * 1e3:.1f} ms")
    lines.append(
        f"Amdahl: serial {report['serial_s'] * 1e3:.2f} ms, parallel work "
        f"{report['parallel_work_s'] * 1e3:.2f} ms, serial fraction "
        f"f = {report['serial_fraction']:.3f}")
    for w in worker_projections:
        lines.append(f"  projected speedup at {w:>2d} workers: "
                     f"{projected_speedup(report, w):.2f}x")
    return "\n".join(lines)


def to_json(report, worker_projections):
    return {
        "epochs": report["epochs"],
        "epoch_wall_s": report["epoch_wall_s"],
        "serial_s": report["serial_s"],
        "parallel_work_s": report["parallel_work_s"],
        "serial_fraction": report["serial_fraction"],
        "projected_speedup": {str(w): projected_speedup(report, w)
                              for w in worker_projections},
        "sorts": [
            {
                "strategy": strategy,
                "geometry": geometry,
                "count": row["count"],
                "records": row["records"],
                "wall_s": row["wall_us"] / 1e6,
            }
            for (strategy, geometry), row in sorted(report["sorts"].items())
        ],
        "phases": {
            p.name: {
                "wall_s": p.wall_us / 1e6,
                "busy_s": p.busy_us / 1e6,
                "cpu_busy_s": p.cpu_busy_us / 1e6,
                "idle_s": p.idle_us / 1e6,
                "parallel_efficiency": p.efficiency,
                "work_inflation": p.work_inflation,
                "task_skew": p.skew,
                "barrier_stall_s": p.stall_us / 1e6,
                "critical_path_s": p.critical_us / 1e6,
                "tasks": p.tasks,
            }
            for p in report["phases"].values()
        },
    }


# ----------------------------------------------------------------- self-check

def golden_trace():
    """One 100 ms epoch: 20 ms single-worker lb_prepare, then a 40 ms two-worker
    suboram_execute whose workers run 40 ms and 20 ms of tasks (busy 60 ms, idle
    20 ms -> efficiency 0.75, skew 4/3), then a 40 ms serial remainder (deliver +
    seal) -> serial fraction 0.4. Worker 0 of the execute phase gets only 25 ms
    of CPU for its 40 ms wall-busy span (descheduled mid-task), so the phase's
    work inflation is 60/45 = 1.333x and must trip the >1.15x flag; lb_prepare's
    CPU matches wall and must stay unflagged. The lb_prepare task carries one
    bitonic "sort" step and the execute task one bucket sort (16x1024 butterfly),
    so the sort rows must come back labeled with strategy and geometry."""
    ev = []

    def x(cat, name, ts, dur, args=None):
        ev.append({"ph": "X", "pid": 0, "tid": 0, "cat": cat, "name": name,
                   "ts": ts, "dur": dur, "args": args or {}})

    x("epoch", "epoch", 0, 100_000, {"pending": 4})
    x("phase", "lb_prepare", 0, 20_000)
    x("task", "lb_prepare", 0, 10_000)
    x("step", "sort", 2_000, 6_000,
      {"strategy": 0, "records": 4096})
    x("task", "lb_prepare", 10_000, 10_000)
    x("pool", "lb_prepare", 0, 20_000,
      {"tasks": 2, "busy_ns": 20_000_000, "idle_ns": 0,
       "cpu_busy_ns": 20_000_000})
    x("phase", "suboram_execute", 20_000, 40_000)
    x("task", "suboram_execute", 20_000, 40_000)  # worker 0: the barrier chain
    x("step", "sort", 25_000, 10_000,
      {"strategy": 1, "records": 8192, "buckets": 16, "capacity": 1024})
    x("task", "suboram_execute", 20_000, 20_000)  # worker 1: parks after 20 ms
    x("pool", "suboram_execute", 20_000, 40_000,
      {"tasks": 1, "busy_ns": 40_000_000, "idle_ns": 0,
       "cpu_busy_ns": 25_000_000})
    x("pool", "suboram_execute", 20_000, 40_000,
      {"tasks": 1, "busy_ns": 20_000_000, "idle_ns": 20_000_000,
       "cpu_busy_ns": 20_000_000})
    x("phase", "deliver", 60_000, 20_000)
    x("phase", "seal", 80_000, 20_000)
    return ev


def self_check():
    report = analyze(golden_trace())
    checks = [
        ("epochs", report["epochs"], 1),
        ("serial_s", round(report["serial_s"], 6), 0.04),
        ("serial_fraction", round(report["serial_fraction"], 6), 0.4),
        ("parallel_work_s", round(report["parallel_work_s"], 6), 0.08),
    ]
    exe = report["phases"]["suboram_execute"]
    checks.append(("execute_efficiency", round(exe.efficiency, 6), 0.75))
    checks.append(("execute_skew", round(exe.skew, 6),
                   round(40_000 / 30_000, 6)))
    # Wall-busy 60 ms against 45 ms of CPU: inflation 1.333x, above the flag
    # threshold; lb_prepare's CPU equals its wall-busy and stays clean.
    checks.append(("execute_inflation", round(exe.work_inflation, 6),
                   round(60_000 / 45_000, 6)))
    checks.append(("prepare_inflation",
                   round(report["phases"]["lb_prepare"].work_inflation, 6), 1.0))
    flagged = sorted(p.name for p in report["phases"].values()
                     if p.work_inflation > WORK_INFLATION_FLAG)
    checks.append(("flagged_phases", flagged, ["suboram_execute"]))
    # The sort steps must come back labeled with the active strategy and its
    # geometry: the bitonic one as the plain network, the bucket one with its
    # butterfly shape.
    checks.append(("sort_labels", sorted(report["sorts"]),
                   [("bitonic", "network"), ("bucket", "16x1024")]))
    checks.append(("bitonic_sort_records",
                   report["sorts"][("bitonic", "network")]["records"], 4096))
    checks.append(("bucket_sort_wall_s",
                   round(report["sorts"][("bucket", "16x1024")]["wall_us"] / 1e6, 6),
                   0.01))
    # The long task runs right up to the barrier, so there is no post-barrier
    # stall and the phase's critical path is that 40 ms task.
    checks.append(("execute_stall_s", round(exe.stall_us / 1e6, 6), 0.0))
    checks.append(("execute_critical_s", round(exe.critical_us / 1e6, 6), 0.04))
    # Amdahl projection with the measured 80 ms of work at W=4:
    # 100 / (40 + 80/4) = 1.667x.
    checks.append(("speedup_at_4", round(projected_speedup(report, 4), 6),
                   round(100.0 / 60.0, 6)))
    failures = [f"{name}: got {got!r}, want {want!r}"
                for name, got, want in checks if got != want]
    if failures:
        print("trace_report self-check FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"trace_report self-check: all {len(checks)} assertions passed")
    print()
    print(render(report, [2, 4]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="Chrome trace JSON (SNOOPY_TRACE_OUT)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="also write the report as JSON to this path")
    ap.add_argument("--workers", type=int, nargs="*", default=[2, 4, 8, 16],
                    help="worker counts for the Amdahl speedup projection")
    ap.add_argument("--self-check", action="store_true",
                    help="run the analysis against the built-in golden trace")
    args = ap.parse_args()

    if args.self_check:
        return self_check()
    if not args.trace:
        ap.error("a trace file is required unless --self-check is given")
    report = analyze(load_events(args.trace))
    print(render(report, args.workers))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(to_json(report, args.workers), fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json_out}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head etc.; not an analysis failure
        sys.exit(0)
