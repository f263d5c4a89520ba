#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is a CMake project of its own
(perfbench/CMakeLists.txt) compiled against the library sources in src/; it is
configured and built on first use into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and rebuilt incrementally afterwards. Build output goes to
stderr; the benchmark's own output goes to stdout, and its last line is the JSON
result. --selftest runs the benchmark's own tests and a short contract check of
every workload instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must finish within 180 s; the incremental build check takes a few of them.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env(out_dir):
    """Keeps compiler and benchmark temporaries inside the build directory."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_logged(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout[-4000:] if proc.returncode != 0 else "")
    return proc.returncode == 0


def build(target):
    out = build_dir()
    env = child_env(out)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", out, "--target", target, "-j", jobs], env):
        fail(f"building {target} failed")
    return os.path.join(out, target), env


def revision():
    """The git commit when there is one, else a digest of the benchmarked sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0 and proc.stdout.strip():
                return "git:" + proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def selftest():
    """Runs the benchmark's unit tests, then one short run of every workload in both
    modes, checking each result against the contract in BENCHMARK.json."""
    binary, env = build("perfbench_test")
    if subprocess.run([binary], cwd=ROOT, env=env).returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    binary, env = build("perfbench")
    for workload in contract["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [binary, "--workload", workload["name"], "--seed", "1", "--seconds", "2",
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in contract[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            ok = (out.returncode == 0 and result["correct"] and result["failed"] == 0
                  and got == want)
            print(f"[{'OK' if ok else 'FAILED'}] {workload['name']} --trace {trace}: "
                  f"{result['attempted']} requests, {len(got)} metrics")
            if not ok:
                print(f"  missing: {sorted(set(want) - set(got))} "
                      f"extra: {sorted(set(got) - set(want))}")
                return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")

    if args.selftest:
        sys.exit(selftest())

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary, env = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
