// The paper's headline result (sections 1 and 8.2): for 2M 160-byte objects,
//   - Obladi peaks at 6,716 reqs/s (proxy + server; cannot scale further),
//   - Oblix serves ~1,153 reqs/s on its single machine,
//   - Snoopy reaches 92K reqs/s on 18 machines with mean latency under 500 ms
//     (13.7x Obladi), and 130K under 1 s,
//   - Redis (insecure) does ~4.2M reqs/s on 15 machines (~39x Snoopy at 1 s).
// This harness regenerates the comparison from the calibrated model + pipeline
// simulator and prints the achieved ratios.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/snoopy.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/kernels.h"
#include "src/sim/cluster.h"
#include "src/telemetry/bench_json.h"
#include "src/telemetry/tracing.h"

namespace snoopy {
namespace {

// Telemetry overhead check on the functional deployment: the same epoch workload with
// metrics recording disabled (registry = nullptr) and enabled (private registry), and
// independently with span tracing disabled (tracer = nullptr) and enabled (private
// enabled tracer). Telemetry is a handful of counter bumps and clock reads per epoch
// against oblivious sorts over thousands of records, so the delta must sit below
// run-to-run noise; the tracing delta is gated at <1% in CI.
//
// Resolving a <1% effect on a shared single-core host takes a deliberate protocol;
// two naive ones demonstrably fail here: wall-clock best-of-N minima drift several
// percent between arms (the container gets descheduled), and even whole-run CPU
// time swings a few percent with CPU frequency over the bench's multi-second life.
// So the two arms are interleaved at *epoch* granularity: two identical
// deployments, one with telemetry and one without, alternate single epochs
// (~3-4 ms each, order swapping every epoch), each epoch timed in process-CPU
// seconds and summed per arm. Both sums then sample the same frequency/cache/
// scheduler conditions to well under the gate, and a final median over reps
// discards a rep that caught an interrupt storm.
constexpr uint64_t kOverheadEpochs = 192;
constexpr int kOverheadReps = 5;

struct OverheadArms {
  double off_s = 0;  // summed process-CPU seconds, telemetry disabled
  double on_s = 0;   // summed process-CPU seconds, telemetry enabled
};

OverheadArms EpochPairSeconds(MetricsRegistry* registry, Tracer* tracer, uint64_t seed) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 2;
  cfg.value_size = 32;
  Snoopy off(cfg, seed);
  Snoopy on(cfg, seed);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 2048; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(32, static_cast<uint8_t>(k)));
  }
  off.Initialize(objects);
  on.Initialize(objects);
  // Explicit null on the baseline, not the process-global default: the comparison
  // must not pick up an environment-enabled global tracer in its off arm.
  off.set_metrics_registry(nullptr);
  off.set_tracer(nullptr);
  on.set_metrics_registry(registry);
  on.set_tracer(tracer);
  OverheadArms arms;
  const auto one_epoch = [](Snoopy& s, uint64_t e) {
    for (uint64_t i = 0; i < 64; ++i) {
      s.SubmitRead(/*client_id=*/i, /*client_seq=*/e, /*key=*/(e * 64 + i) % 2048);
    }
    s.RunEpoch();
  };
  for (uint64_t e = 0; e < kOverheadEpochs; ++e) {
    if (e % 2 == 0) {
      arms.off_s += CpuTimeSeconds([&] { one_epoch(off, e); });
      arms.on_s += CpuTimeSeconds([&] { one_epoch(on, e); });
    } else {
      arms.on_s += CpuTimeSeconds([&] { one_epoch(on, e); });
      arms.off_s += CpuTimeSeconds([&] { one_epoch(off, e); });
    }
  }
  return arms;
}

// One phase of the epoch pipeline as seen by the always-on pool profile: wall time
// from the phase histogram, worker busy/idle seconds and task counts from the
// pool gauges RecordWorkerPhase maintains. Efficiency is busy / (busy + idle): the
// fraction of worker-seconds inside the phase spent running tasks rather than parked
// at the join barrier. cpu_busy_s is the per-thread CLOCK_THREAD_CPUTIME_ID sum for
// the same spans: unlike wall-busy it is immune to timesharing, so the 4t/1t ratio
// of cpu_busy_s is the honest work-inflation figure (the old wall-busy ratio read
// 3.2x on a one-core host purely from scheduler interleaving).
struct PhaseProfile {
  const char* phase;
  double wall_s = 0;
  double busy_s = 0;
  double idle_s = 0;
  double cpu_busy_s = 0;
  uint64_t tasks = 0;
  double efficiency = 0;
};

constexpr const char* kPipelinePhases[] = {"lb_prepare", "suboram_execute",
                                           "response_match"};

std::vector<PhaseProfile> PhaseBreakdown(MetricsRegistry& registry, int epoch_threads,
                                         uint64_t seed) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = 160;
  cfg.epoch_threads = epoch_threads;
  Snoopy snoopy(cfg, seed);
  snoopy.set_metrics_registry(&registry);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 8192; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(160, static_cast<uint8_t>(k)));
  }
  snoopy.Initialize(objects);
  // 8 epochs so pool-thread spin-up and first-touch page faults in epoch 0 are
  // amortized out of the per-phase CPU totals (they are one-time costs, not work
  // inflation).
  for (uint64_t e = 0; e < 8; ++e) {
    for (uint64_t i = 0; i < 256; ++i) {
      snoopy.SubmitRead(/*client_id=*/i, /*client_seq=*/e, /*key=*/(e * 256 + i) % 8192);
    }
    snoopy.RunEpoch();
  }
  std::vector<PhaseProfile> out;
  for (const char* phase : kPipelinePhases) {
    PhaseProfile p;
    p.phase = phase;
    const MetricLabels labels = {{"phase", phase}};
    p.wall_s = registry.GetHistogram("snoopy_epoch_phase_seconds", labels).sum();
    p.busy_s = registry.GetGauge("snoopy_pool_busy_seconds_total", labels).value();
    p.idle_s = registry.GetGauge("snoopy_pool_idle_seconds_total", labels).value();
    p.cpu_busy_s = registry.GetGauge("snoopy_pool_cpu_busy_seconds_total", labels).value();
    p.tasks = registry.GetCounter("snoopy_pool_tasks_total", labels).value();
    const double denom = p.busy_s + p.idle_s;
    p.efficiency = denom > 0 ? p.busy_s / denom : 0.0;
    out.push_back(p);
  }
  return out;
}

// Parallel epoch executor scaling (SnoopyConfig::epoch_threads): total
// suboram_execute phase wall time over a fixed multi-subORAM workload, read back from
// a private registry. On a multi-core host the 4-thread run overlaps the four
// subORAMs and the phase time drops; on a single-core container the two settings tie
// (the knob adds only thread coordination, and responses/traces are identical by
// construction either way).
double SubOramExecuteSeconds(int epoch_threads, uint64_t seed) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = 160;  // the headline object size; record moves dominate the scan
  cfg.epoch_threads = epoch_threads;
  MetricsRegistry registry;
  Snoopy snoopy(cfg, seed);
  snoopy.set_metrics_registry(&registry);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 8192; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(160, static_cast<uint8_t>(k)));
  }
  snoopy.Initialize(objects);
  for (uint64_t e = 0; e < 4; ++e) {
    for (uint64_t i = 0; i < 256; ++i) {
      snoopy.SubmitRead(/*client_id=*/i, /*client_seq=*/e, /*key=*/(e * 256 + i) % 8192);
    }
    snoopy.RunEpoch();
  }
  return registry.GetHistogram("snoopy_epoch_phase_seconds", {{"phase", "suboram_execute"}})
      .sum();
}

}  // namespace
}  // namespace snoopy

int main(int argc, char** argv) {
  using namespace snoopy;
  const std::string metrics_out = MetricsOutPath(argc, argv);
  PrintHeader("Headline", "Snoopy vs. Obladi vs. Oblix vs. Redis, 2M x 160B objects");
  const CostModel model;
  constexpr uint64_t kObjects = 2000000;

  const auto s500 = ClusterSimulator::BestSplit(18, kObjects, 0.5, model);
  const auto s1000 = ClusterSimulator::BestSplit(18, kObjects, 1.0, model);
  const double obladi = model.ObladiThroughput();
  const double oblix = 1.0 / model.OblixAccessSeconds(kObjects);
  const double redis = model.RedisThroughput(15);

  std::printf("%-22s %14s %12s %10s\n", "system", "machines", "reqs/s", "latency");
  std::printf("%-22s %14s %12.0f %10s\n", "Oblix", "1", oblix, "~1 ms");
  std::printf("%-22s %14s %12.0f %10s\n", "Obladi", "2 (max)", obladi, "<80 ms");
  std::printf("%-22s %8u LB+%u SO %12.0f %10s\n", "Snoopy (500ms)", s500.load_balancers,
              s500.suborams, s500.metrics.throughput, "<500 ms");
  std::printf("%-22s %8u LB+%u SO %12.0f %10s\n", "Snoopy (1s)", s1000.load_balancers,
              s1000.suborams, s1000.metrics.throughput, "<1 s");
  std::printf("%-22s %14s %12.0f %10s\n", "Redis (insecure)", "15", redis, "<800 ms");

  std::printf("\nratios: Snoopy(500ms)/Obladi = %.1fx   (paper: 13.7x)\n",
              s500.metrics.throughput / obladi);
  std::printf("        Snoopy(500ms)/Oblix  = %.1fx   (paper: ~80x)\n",
              s500.metrics.throughput / oblix);
  std::printf("        Redis/Snoopy(1s)     = %.1fx   (paper: 39.1x)\n",
              redis / s1000.metrics.throughput);

  // Telemetry overhead: epoch-interleaved off/on arms (see EpochPairSeconds),
  // median fraction over the reps.
  MetricsRegistry registry;
  double off_s = 1e9;
  double on_s = 1e9;
  std::vector<double> telemetry_fracs;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const OverheadArms arms = EpochPairSeconds(&registry, nullptr, /*seed=*/11 + rep);
    off_s = std::min(off_s, arms.off_s);
    on_s = std::min(on_s, arms.on_s);
    telemetry_fracs.push_back(arms.on_s / arms.off_s - 1.0);
  }
  std::sort(telemetry_fracs.begin(), telemetry_fracs.end());
  const double telemetry_frac = telemetry_fracs[telemetry_fracs.size() / 2];
  std::printf("\ntelemetry overhead (%llu epochs x 64 reqs, epoch-interleaved cpu time, "
              "median of %d): off %.1f ms, on %.1f ms (%+.1f%%)\n",
              static_cast<unsigned long long>(kOverheadEpochs), kOverheadReps,
              off_s * 1e3, on_s * 1e3, 100.0 * telemetry_frac);

  // Span-tracing overhead: same epoch-interleaved protocol, tracing fully off vs. a
  // private enabled tracer at detail 1 (the always-on production setting).
  Tracer trace_tracer;
  trace_tracer.Enable(/*detail=*/1);
  double trace_off_s = 1e9;
  double trace_on_s = 1e9;
  std::vector<double> trace_fracs;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const OverheadArms arms = EpochPairSeconds(nullptr, &trace_tracer, /*seed=*/41 + rep);
    trace_off_s = std::min(trace_off_s, arms.off_s);
    trace_on_s = std::min(trace_on_s, arms.on_s);
    trace_fracs.push_back(arms.on_s / arms.off_s - 1.0);
  }
  std::sort(trace_fracs.begin(), trace_fracs.end());
  const double trace_frac = trace_fracs[trace_fracs.size() / 2];
  std::printf("tracing overhead (%llu epochs x 64 reqs, epoch-interleaved cpu time, "
              "median of %d): off %.1f ms, on %.1f ms (%+.1f%%, %llu spans)\n",
              static_cast<unsigned long long>(kOverheadEpochs), kOverheadReps,
              trace_off_s * 1e3, trace_on_s * 1e3, 100.0 * trace_frac,
              static_cast<unsigned long long>(trace_tracer.spans_recorded()));

  // Epoch-parallelism scaling: suboram_execute phase time at 4 subORAMs with the
  // parallel epoch executor off (1 thread) and on (4 threads). Best of 3 per setting.
  double seq_s = 1e9;
  double par_s = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    seq_s = std::min(seq_s, SubOramExecuteSeconds(/*epoch_threads=*/1, /*seed=*/23 + rep));
    par_s = std::min(par_s, SubOramExecuteSeconds(/*epoch_threads=*/4, /*seed=*/23 + rep));
  }
  std::printf("epoch parallelism (4 subORAMs, suboram_execute phase, best of 3): "
              "1 thread %.1f ms, 4 threads %.1f ms (speedup %.2fx)\n",
              seq_s * 1e3, par_s * 1e3, seq_s / par_s);

  // Phase breakdown from the always-on pool profile: per-phase wall time, worker
  // busy/idle split, task counts, and parallel efficiency at 1 and 4 epoch
  // threads. These are the same counters RecordWorkerPhase exports in production.
  MetricsRegistry breakdown_1t;
  MetricsRegistry breakdown_4t;
  const auto phases_1t = PhaseBreakdown(breakdown_1t, /*epoch_threads=*/1, /*seed=*/53);
  const auto phases_4t = PhaseBreakdown(breakdown_4t, /*epoch_threads=*/4, /*seed=*/53);
  // speedup_vs_1_thread compares phase wall time across the two runs; work_inflation
  // compares per-thread CPU time (the timesharing-proof measure of work actually
  // done). A healthy parallel phase keeps inflation near 1.0 at any thread count;
  // wall speedup additionally needs real cores under it.
  std::printf("\nphase breakdown (8 epochs x 256 reqs, 2 LB + 4 SO):\n");
  std::printf("%8s %-16s %10s %10s %10s %10s %7s %6s %8s %9s\n", "threads", "phase",
              "wall ms", "busy ms", "cpu ms", "idle ms", "tasks", "eff", "speedup",
              "inflation");
  for (const auto* phases : {&phases_1t, &phases_4t}) {
    const int threads = phases == &phases_1t ? 1 : 4;
    for (size_t i = 0; i < phases->size(); ++i) {
      const PhaseProfile& p = (*phases)[i];
      const PhaseProfile& base = phases_1t[i];
      const double speedup = p.wall_s > 0 ? base.wall_s / p.wall_s : 0.0;
      const double inflation = base.cpu_busy_s > 0 ? p.cpu_busy_s / base.cpu_busy_s : 0.0;
      std::printf("%8d %-16s %10.1f %10.1f %10.1f %10.1f %7llu %6.2f %7.2fx %8.2fx\n",
                  threads, p.phase, p.wall_s * 1e3, p.busy_s * 1e3, p.cpu_busy_s * 1e3,
                  p.idle_s * 1e3, static_cast<unsigned long long>(p.tasks), p.efficiency,
                  speedup, inflation);
    }
  }

  // Kernel-backend end-to-end effect: the identical suboram_execute workload with the
  // oblivious kernel layer pinned to the portable scalar backend versus the widest
  // one this CPU supports. Responses and traces are byte-identical either way; only
  // the wall time moves.
  const KernelBackend native_backend = ActiveKernelBackend();
  double generic_s = 1e9;
  double native_s = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    SetKernelBackend(KernelBackend::kGeneric);
    generic_s = std::min(generic_s, SubOramExecuteSeconds(/*epoch_threads=*/1, /*seed=*/31 + rep));
    SetKernelBackend(native_backend);
    native_s = std::min(native_s, SubOramExecuteSeconds(/*epoch_threads=*/1, /*seed=*/31 + rep));
  }
  SetKernelBackend(native_backend);
  std::printf("kernel backend (4 subORAMs, suboram_execute phase, best of 3): "
              "generic %.1f ms, %s %.1f ms (speedup %.2fx)\n",
              generic_s * 1e3, KernelBackendName(native_backend), native_s * 1e3,
              generic_s / native_s);
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("note: this host exposes a single hardware core, so the 4-thread run can\n"
                "only show coordination overhead; the speedup materializes on multi-core\n"
                "hosts (responses and traces are identical either way).\n");
  }

  BenchJsonEmitter json("headline_comparison");
  json.AddPoint("throughput")
      .Set("system", "snoopy")
      .Set("latency_bound_s", 0.5)
      .Set("throughput_rps", s500.metrics.throughput)
      .Set("latency_p50_s", s500.metrics.latency_p50_s)
      .Set("latency_p99_s", s500.metrics.latency_p99_s);
  json.AddPoint("throughput")
      .Set("system", "snoopy")
      .Set("latency_bound_s", 1.0)
      .Set("throughput_rps", s1000.metrics.throughput)
      .Set("latency_p50_s", s1000.metrics.latency_p50_s)
      .Set("latency_p99_s", s1000.metrics.latency_p99_s);
  json.AddPoint("throughput").Set("system", "obladi").Set("throughput_rps", obladi);
  json.AddPoint("throughput").Set("system", "oblix").Set("throughput_rps", oblix);
  json.AddPoint("throughput").Set("system", "redis").Set("throughput_rps", redis);
  json.AddPoint("telemetry_overhead")
      .Set("metrics_off_s", off_s)
      .Set("metrics_on_s", on_s)
      .Set("overhead_fraction", telemetry_frac);
  json.AddPoint("tracing_overhead")
      .Set("tracing_off_s", trace_off_s)
      .Set("tracing_on_s", trace_on_s)
      .Set("overhead_fraction", trace_frac)
      .Set("spans_recorded", static_cast<double>(trace_tracer.spans_recorded()));
  const double hardware_threads =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  for (const auto* phases : {&phases_1t, &phases_4t}) {
    const int threads = phases == &phases_1t ? 1 : 4;
    for (size_t i = 0; i < phases->size(); ++i) {
      const PhaseProfile& p = (*phases)[i];
      const PhaseProfile& base = phases_1t[i];
      json.AddPoint("phase_breakdown")
          .Set("epoch_threads", static_cast<double>(threads))
          .Set("hardware_threads", hardware_threads)
          .Set("phase", std::string(p.phase))
          .Set("wall_s", p.wall_s)
          .Set("busy_s", p.busy_s)
          .Set("cpu_busy_s", p.cpu_busy_s)
          .Set("idle_s", p.idle_s)
          .Set("tasks", static_cast<double>(p.tasks))
          .Set("parallel_efficiency", p.efficiency)
          .Set("speedup_vs_1_thread", p.wall_s > 0 ? base.wall_s / p.wall_s : 0.0)
          .Set("work_inflation",
               base.cpu_busy_s > 0 ? p.cpu_busy_s / base.cpu_busy_s : 0.0);
    }
  }
  // The sort-strategy column: the configured oblivious-sort strategy these epochs
  // ran under (SNOOPY_SORT_STRATEGY override applied, mirroring ResolveSortStrategy),
  // so a JSON regenerated under CI's bucket-strategy stage is distinguishable from
  // the default run when comparing committed numbers.
  SortStrategy configured_sort = SnoopyConfig{}.sort_strategy;
  if (const char* env = std::getenv("SNOOPY_SORT_STRATEGY")) {
    if (std::strcmp(env, "bitonic") == 0) {
      configured_sort = SortStrategy::kBitonic;
    } else if (std::strcmp(env, "bucket") == 0) {
      configured_sort = SortStrategy::kBucket;
    } else if (std::strcmp(env, "auto") == 0) {
      configured_sort = SortStrategy::kAuto;
    }
  }
  const char* sort_strategy_name = SortStrategyName(configured_sort);
  json.AddPoint("epoch_parallelism")
      .Set("num_suborams", 4)
      .Set("epoch_threads", 1)
      .Set("hardware_threads", hardware_threads)
      .Set("sort_strategy", sort_strategy_name)
      .Set("suboram_execute_s", seq_s);
  json.AddPoint("epoch_parallelism")
      .Set("num_suborams", 4)
      .Set("epoch_threads", 4)
      .Set("hardware_threads", hardware_threads)
      .Set("sort_strategy", sort_strategy_name)
      .Set("suboram_execute_s", par_s)
      .Set("speedup_vs_1_thread", seq_s / par_s);
  json.AddPoint("kernel_backend")
      .Set("backend", "generic")
      .Set("num_suborams", 4)
      .Set("suboram_execute_s", generic_s);
  json.AddPoint("kernel_backend")
      .Set("backend", KernelBackendName(native_backend))
      .Set("num_suborams", 4)
      .Set("suboram_execute_s", native_s)
      .Set("speedup_vs_generic", generic_s / native_s);
  const std::string path = json.WriteFile();
  if (!path.empty()) {
    std::printf("machine-readable output: %s\n", path.c_str());
  }
  // --metrics-out: the 4-thread breakdown registry carries the full pipeline
  // profile (phase histograms plus the pool's busy/idle/task series).
  WriteMetricsSnapshot(breakdown_4t, metrics_out);
  return 0;
}
