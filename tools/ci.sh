#!/usr/bin/env bash
# One-command local CI: tier-1 tests + constant-time lint + sanitizer pass.
#
#   tools/ci.sh            # everything
#   tools/ci.sh --fast     # skip the sanitizer builds (lint + default-build tests)
#
# Builds out-of-tree under build/ (default config), build-asan/ (ASan+UBSan), and
# build-tsan/ (TSan, threading-sensitive tests only), so a developer's existing build
# directory is reused, not clobbered.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== constant-time lint (self-test corpus + real tree) =="
python3 tools/ct_lint.py --repo-root . --self-test

echo "== oblivious region structure (BEGIN/END pairing + manifest coverage) =="
python3 tools/check_oblivious_structure.py --repo-root .

echo "== one thread owner (std::thread only in the WorkPool and the ProfilingSampler) =="
# All parallel work runs on the WorkPool (src/obl/parallel.cc); the telemetry
# ProfilingSampler (src/telemetry/tracing.{h,cc}) keeps one background thread. A
# std::thread / std::jthread anywhere else under src/ is a second thread owner
# that bypasses the pool's budgets. std::thread::hardware_concurrency is fine, and
# comment lines are skipped.
spawns="$(grep -rnP --include='*.h' --include='*.cc' 'std::j?thread\b(?!::)' src \
  | grep -vE '^src/(obl/parallel\.cc|telemetry/tracing\.(h|cc)):' \
  | grep -vP '^[^:]+:[0-9]+:\s*//' || true)"
if [[ -n "${spawns}" ]]; then
  echo "ci.sh: std::thread outside the WorkPool:"
  echo "${spawns}"
  exit 1
fi
echo "thread owners ok: src/obl/parallel.cc, src/telemetry/tracing.{h,cc}"

echo "== binary taint dataflow (planted corpus, then real kernels at -O2/-O3) =="
# The source lint cannot see what the optimizer emits; ct_dataflow audits the
# compiled objects. Self-test first (every planted B01-B04/M01 must fire), then
# the real audit unit at both opt levels, for every SIMD backend and again with
# dispatch pinned to the generic backend -- a finding or a manifest symbol
# missing from the object (M01) fails the stage, and so does a root the manifest
# lists under required_roots (the decomposed bucket-sort kernels, the bitonic tile
# executor, both SHA-256 compression paths) that fell out of the fixture.
python3 tools/ct_dataflow.py --repo-root . --self-test
python3 tools/ct_dataflow.py --repo-root . --opt=-O2
python3 tools/ct_dataflow.py --repo-root . --opt=-O3
SNOOPY_FORCE_GENERIC_KERNELS=1 python3 tools/ct_dataflow.py --repo-root . --opt=-O2
SNOOPY_FORCE_GENERIC_KERNELS=1 python3 tools/ct_dataflow.py --repo-root . --opt=-O3

echo "== default build + full test suite =="
cmake -S . -B build >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure

echo "== perfbench: build against src/ and self-test =="
# perfbench is a CMake project of its own (built into the git-ignored .bench_build/)
# that compiles against src/ and drives the Snoopy API, snapshot and stripe
# accessors included. --selftest runs its unit tests, then a 2 s run of every
# workload in both modes, each checked for correct responses and the metric set
# BENCHMARK.json declares.
python3 perfbench/run.py --selftest

echo "== forced-bucket sort strategy (full suite) =="
# SNOOPY_SORT_STRATEGY=bucket overrides every deployment's configured strategy at
# the ResolveSortStrategy gate, so the whole suite reruns with the bucket sort on
# every eligible hot path (ineligible sites -- too small, bins not simulatable --
# still fall back to bitonic, which is itself pinned by the override tests).
# Responses and traces must be byte-identical to the default run's expectations:
# any strategy-dependent behavior is a bug this stage exists to catch.
SNOOPY_SORT_STRATEGY=bucket ctest --test-dir build --output-on-failure

echo "== forced-generic kernel backend (dispatch-sensitive suites) =="
# The SIMD kernel layer (src/obl/kernels.h) picks a backend at runtime; rerun the
# suites whose hot paths route through it with dispatch pinned to the portable
# scalar backend, so a kernel bug cannot hide behind whichever backend CI's CPU
# happens to select. The crypto suites follow the same dispatch (ChaCha20's vector
# keystream, SHA-256's SHA-NI compression), so their known-answer tests and the
# SHA-256 consumers (HMAC, attestation, the Merkle tree, the pinned seal-boundary
# bytes) rerun on the scalar code too. The load balancer's response propagation and
# the epoch-trace suites run the fused access kernel, so they rerun here as well.
SNOOPY_FORCE_GENERIC_KERNELS=1 ctest --test-dir build --output-on-failure --no-tests=error \
  -R '(Primitives|Kernel|BitonicSort|BlockedSort|Compaction|BinPlacement|HashTable|SubOram|LoadBalancer|Obliviousness|Sha256|Hmac|ChaCha20|Poly1305|Aead|Attestation|MerkleTree|SealBoundary)'

echo "== lint target (clang-tidy when installed) =="
cmake --build build --target lint

echo "== metrics smoke (one epoch; JSON export must parse with required series) =="
build/examples/metrics_smoke > build/metrics_smoke.json
python3 - build/metrics_smoke.json <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {m["name"] for m in doc["metrics"]}
required = {
    "snoopy_epochs_total", "snoopy_requests_total", "snoopy_epoch_seconds",
    "snoopy_epoch_phase_seconds", "snoopy_batch_size",
    "snoopy_net_messages", "snoopy_net_bytes_sent", "snoopy_net_pair_messages",
}
missing = sorted(required - names)
if missing:
    sys.exit(f"metrics smoke: missing required series: {missing}")
phases = {m["labels"].get("phase") for m in doc["metrics"]
          if m["name"] == "snoopy_epoch_phase_seconds"}
expected_phases = {"lb_prepare", "suboram_execute", "response_match"}
if not expected_phases <= phases:
    sys.exit(f"metrics smoke: missing phase spans: {sorted(expected_phases - phases)}")
epochs = next(m for m in doc["metrics"] if m["name"] == "snoopy_epochs_total")
if epochs["value"] != 1:
    sys.exit(f"metrics smoke: expected 1 epoch, got {epochs['value']}")
print(f"metrics smoke ok: {len(doc['metrics'])} series, all required present")
PYEOF

echo "== tracing stage: Perfetto export, overhead gate, critical-path report =="
# trace_report's analysis pipeline first proves itself on the golden fixture, then
# a traced headline-bench run must (a) export Chrome-trace JSON that parses, (b)
# stay under the 1% tracing-overhead budget measured by the bench itself, and (c)
# yield a critical-path report with per-phase efficiency and a serial fraction.
python3 tools/trace_report.py --self-check
TRACE_DIR="build/tracing-ci"
mkdir -p "${TRACE_DIR}"
(cd "${TRACE_DIR}" && SNOOPY_TRACE=1 SNOOPY_TRACE_OUT=trace.json \
  ../../build/bench/headline_comparison --metrics-out=metrics.json > headline.log)
python3 - "${TRACE_DIR}" <<'PYEOF'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
trace = json.load(open(d / "trace.json"))  # must parse (Perfetto/chrome://tracing)
events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
if not events:
    sys.exit("tracing stage: trace.json has no complete events")
cats = {e.get("cat") for e in events}
for want in ("epoch", "phase", "task", "pool"):
    if want not in cats:
        sys.exit(f"tracing stage: trace.json lacks '{want}' spans (got {sorted(cats)})")
json.load(open(d / "metrics.json"))  # --metrics-out snapshot must parse too
bench = json.load(open(d / "BENCH_headline_comparison.json"))
overhead = [p for p in bench["points"] if p["series"] == "tracing_overhead"]
if not overhead:
    sys.exit("tracing stage: no tracing_overhead point in bench JSON")
frac = overhead[0]["overhead_fraction"]
if frac >= 0.01:
    sys.exit(f"tracing stage: tracing overhead {frac:.4f} breaches the <1% gate")
print(f"tracing stage ok: {len(events)} spans, overhead {frac*100:.2f}%")
PYEOF
python3 tools/trace_report.py "${TRACE_DIR}/trace.json" \
  --json "${TRACE_DIR}/trace_report.json"
python3 - "${TRACE_DIR}/trace_report.json" <<'PYEOF'
import json, sys
rep = json.load(open(sys.argv[1]))
if rep["epochs"] < 1 or not rep["phases"]:
    sys.exit("tracing stage: trace_report found no epochs/phases")
if not (0.0 <= rep["serial_fraction"] <= 1.0):
    sys.exit(f"tracing stage: serial_fraction {rep['serial_fraction']} out of range")
if not any(p["parallel_efficiency"] is not None for p in rep["phases"].values()):
    sys.exit("tracing stage: no phase has a parallel-efficiency estimate")
print(f"trace_report ok: {rep['epochs']} epochs, "
      f"serial fraction {rep['serial_fraction']:.3f}")
PYEOF

echo "== bench JSON schema (emitter contract + required series) =="
python3 tools/check_bench_schema.py "${TRACE_DIR}" .

echo "== perf smoke: epoch-parallelism floor (enforced on multi-core hosts) =="
# Reuses the headline-bench JSON the tracing stage just produced. The 1.5x floor
# is deliberately conservative (the tentpole target is ~3x at 4 threads on 4
# cores) so shared, noisy CI hardware does not flake the gate; on hosts with
# fewer than 4 hardware threads the 4-thread run can only measure coordination
# overhead, so the floor is reported but not enforced there.
python3 - "${TRACE_DIR}/BENCH_headline_comparison.json" <<'PYEOF'
import json, sys
bench = json.load(open(sys.argv[1]))
pts = [p for p in bench["points"] if p["series"] == "epoch_parallelism"]
for p in pts:
    print(f"perf smoke: epoch_parallelism epoch_threads={p.get('epoch_threads')} "
          f"suboram_execute_s={p.get('suboram_execute_s'):.4f}")
par = next((p for p in pts if p.get("epoch_threads") == 4), None)
if par is None:
    sys.exit("perf smoke: no 4-thread epoch_parallelism point in bench JSON")
speedup = par.get("speedup_vs_1_thread")
if not isinstance(speedup, (int, float)):
    sys.exit("perf smoke: 4-thread point lacks speedup_vs_1_thread")
hw = int(par.get("hardware_threads", 1))
print(f"perf smoke: 4-thread suboram_execute speedup {speedup:.2f}x "
      f"on {hw} hardware thread(s)")
if hw >= 4:
    if speedup < 1.5:
        sys.exit(f"perf smoke: speedup {speedup:.2f}x is below the 1.5x floor "
                 f"on a {hw}-thread host")
    print("perf smoke ok: floor enforced and met")
else:
    print("perf smoke: <4 hardware threads; floor reported, not enforced "
          "(traces and responses are thread-count-invariant regardless)")
PYEOF

if [[ "${FAST}" == "1" ]]; then
  echo "== --fast: skipping sanitizer builds =="
  exit 0
fi

echo "== ASan/UBSan build + full test suite =="
cmake -S . -B build-asan -DSNOOPY_SANITIZE=ON >/dev/null
cmake --build build-asan -j"${JOBS}"
ctest --test-dir build-asan --output-on-failure

echo "== TSan build + threading-sensitive tests =="
# The race-prone surfaces: parallel bitonic sort (the fig13a trace-race fix),
# the bucket sort's fork-joined routing/cleanup, the parallel epoch executor, and
# the pooled epoch-boundary seal (concurrent seals on distinct counters).
cmake -S . -B build-tsan -DSNOOPY_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" --target \
  bitonic_sort_test bucket_sort_test suboram_test epoch_parallel_test tracing_test \
  scaling_regression_test rollback_test
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R '(BitonicSort|BlockedSort|AdaptiveSortThreads|BucketSort|SubOram|EpochParallel|Tracing|ProfilingSampler|TracerThreadBuffer|WorkPool|RunPhase|ScalingRegression|SealedStore|SealBoundary)'

echo "== TSan chaos stage: fault recovery, permanent loss, repair, reshard =="
# Crash/loss recovery exercises the cross-thread paths deliberately (phase-2 workers
# marking losses, concurrent subORAM recoveries, the health mutex); run the whole
# fault-recovery and repair/reshard suites under TSan so a recovery-path race cannot
# hide behind the happy path.
cmake --build build-tsan -j"${JOBS}" --target fault_recovery_test repair_reshard_test
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R '(FaultInjector|FaultRecovery|NetworkFaults|RetryCap|Striping|Repair|Reshard|NodeLoss)'

echo "ci.sh: all checks passed"
