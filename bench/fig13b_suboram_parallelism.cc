// Figure 13b: parallelizing subORAM batch processing across enclave threads (batch of
// 4K requests, growing data sizes). One core stays reserved for the host loader thread
// that streams encrypted objects into the enclave (paper section 7).
//
// Runs the real subORAM, whose scan is single-threaded: the 2- and 3-thread columns
// come from the cost model alone, and the measured column validates the
// single-thread trend in the data-size dimension.
//
// A second section sweeps the epoch phase executor's worker pool
// (SnoopyConfig::epoch_threads) over a multi-subORAM deployment and reads back the
// always-on per-worker profile (tasks, busy/idle seconds) that
// RecordWorkerPhase exports, turning it into a measured parallel-efficiency figure
// for the suboram_execute phase.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/snoopy.h"
#include "src/core/suboram.h"
#include "src/sim/cost_model.h"
#include "src/telemetry/bench_json.h"

namespace snoopy {
namespace {

constexpr size_t kValueSize = 160;
constexpr uint64_t kBatch = 4096;

double ProcessTime(uint64_t objects) {
  SubOramConfig cfg;
  cfg.value_size = kValueSize;
  cfg.lambda = 128;
  cfg.check_distinct = false;  // isolate the Figure 7 pipeline
  SubOram suboram(cfg, objects + 1);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objs;
  objs.reserve(objects);
  for (uint64_t k = 0; k < objects; ++k) {
    objs.emplace_back(k, std::vector<uint8_t>());
  }
  suboram.Initialize(objs);

  RequestBatch batch(kValueSize);
  for (uint64_t i = 0; i < kBatch; ++i) {
    RequestHeader h;
    h.key = i;  // distinct keys
    h.op = kOpRead;
    h.client_seq = i;
    batch.Append(h, {});
  }
  return TimeSeconds([&] { suboram.ProcessBatch(std::move(batch)); });
}

// Epoch-pool profile for the suboram_execute phase at a given epoch_threads: runs a
// fixed 2-LB / 4-subORAM workload and reads the pool counters from a private
// registry. Efficiency is busy / (busy + idle) across the pool's workers.
struct PoolProfile {
  double wall_s = 0;
  double busy_s = 0;
  double idle_s = 0;
  uint64_t tasks = 0;
  double efficiency = 0;
};

PoolProfile EpochPoolProfile(MetricsRegistry& registry, int epoch_threads) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = 32;
  cfg.epoch_threads = epoch_threads;
  Snoopy snoopy(cfg, /*seed=*/97);
  snoopy.set_metrics_registry(&registry);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 4096; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(32, static_cast<uint8_t>(k)));
  }
  snoopy.Initialize(objects);
  for (uint64_t e = 0; e < 2; ++e) {
    for (uint64_t i = 0; i < 128; ++i) {
      snoopy.SubmitRead(/*client_id=*/i, /*client_seq=*/e, /*key=*/(e * 128 + i) % 4096);
    }
    snoopy.RunEpoch();
  }
  PoolProfile p;
  const MetricLabels labels = {{"phase", "suboram_execute"}};
  p.wall_s = registry.GetHistogram("snoopy_epoch_phase_seconds", labels).sum();
  p.busy_s = registry.GetGauge("snoopy_pool_busy_seconds_total", labels).value();
  p.idle_s = registry.GetGauge("snoopy_pool_idle_seconds_total", labels).value();
  p.tasks = registry.GetCounter("snoopy_pool_tasks_total", labels).value();
  const double denom = p.busy_s + p.idle_s;
  p.efficiency = denom > 0 ? p.busy_s / denom : 0.0;
  return p;
}

}  // namespace
}  // namespace snoopy

int main(int argc, char** argv) {
  using namespace snoopy;
  const std::string metrics_out = MetricsOutPath(argc, argv);
  PrintHeader("Figure 13b", "subORAM batch processing thread scaling (batch = 4K)");
  const CostModel model;
  BenchJsonEmitter emitter("fig13b_suboram_parallelism");
  // Units live in the header so every row cell matches its header width exactly.
  std::printf("%10s | %16s | %14s %14s %14s\n", "objects", "measured 1thr ms",
              "model 1thr ms", "model 2thr ms", "model 3thr ms");
  for (const uint64_t n : {uint64_t{1} << 12, uint64_t{1} << 14, uint64_t{1} << 16,
                           uint64_t{1} << 18}) {
    const double measured = ProcessTime(n);
    std::printf("%10llu | %16.0f | %14.0f %14.0f %14.0f\n",
                static_cast<unsigned long long>(n), measured * 1e3,
                model.SubOramBatchSeconds(kBatch, n, 1) * 1e3,
                model.SubOramBatchSeconds(kBatch, n, 2) * 1e3,
                model.SubOramBatchSeconds(kBatch, n, 3) * 1e3);
    emitter.AddPoint("suboram_threads")
        .Set("objects", static_cast<double>(n))
        .Set("threads", 1.0)
        .Set("seconds", measured)
        .Set("model_seconds_1thr", model.SubOramBatchSeconds(kBatch, n, 1))
        .Set("model_seconds_2thr", model.SubOramBatchSeconds(kBatch, n, 2))
        .Set("model_seconds_3thr", model.SubOramBatchSeconds(kBatch, n, 3));
  }

  // Epoch executor pool: the always-on per-worker profile for suboram_execute at
  // 1/2/4 epoch threads (2 LB + 4 SO, 2 epochs x 128 reqs).
  std::printf("\nepoch pool (suboram_execute, 2 LB + 4 SO):\n");
  std::printf("%8s %10s %10s %10s %7s %6s\n", "threads", "wall ms", "busy ms",
              "idle ms", "tasks", "eff");
  std::unique_ptr<MetricsRegistry> last_registry;
  for (const int threads : {1, 2, 4}) {
    auto registry = std::make_unique<MetricsRegistry>();
    const PoolProfile p = EpochPoolProfile(*registry, threads);
    std::printf("%8d %10.1f %10.1f %10.1f %7llu %6.2f\n", threads, p.wall_s * 1e3,
                p.busy_s * 1e3, p.idle_s * 1e3, static_cast<unsigned long long>(p.tasks),
                p.efficiency);
    emitter.AddPoint("epoch_pool")
        .Set("epoch_threads", static_cast<double>(threads))
        .Set("wall_s", p.wall_s)
        .Set("busy_s", p.busy_s)
        .Set("idle_s", p.idle_s)
        .Set("tasks", static_cast<double>(p.tasks))
        .Set("parallel_efficiency", p.efficiency);
    if (threads == 4) {
      last_registry = std::move(registry);
    }
  }


  const std::string path = emitter.WriteFile(".");
  if (!path.empty()) {
    std::printf("\nwrote %s\n", path.c_str());
  }
  if (last_registry != nullptr) {
    WriteMetricsSnapshot(*last_registry, metrics_out);
  }

  std::printf("\npaper shape check: processing time scales with data size; extra enclave\n"
              "threads cut it substantially (model columns), with diminishing returns\n"
              "from 2 to 3 threads. The epoch-pool rows profile the phase\n"
              "executor on this host (1 core: multi-thread efficiency is coordination\n"
              "overhead; multi-core hosts approach 1.0).\n");
  return 0;
}
