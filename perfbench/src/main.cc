// The repository benchmark: runs one workload against the functional deployment and
// prints its metrics. The last stdout line is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/deployment.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/workload.h"
#include "src/analysis/batch_bound.h"

namespace perfbench {
namespace {

// Units of the per-layer metrics; the names match BENCHMARK.json.
const std::map<std::string, std::string>& LayerUnits() {
  static const std::map<std::string, std::string> kUnits = [] {
    std::map<std::string, std::string> u = {
        {"snoopy.run_epoch_ms", "ms"},
        {"snoopy.epoch_requests", "count"},
        {"lb.prepare_ms", "ms"},
        {"lb.match_ms", "ms"},
        {"lb.batch_size", "count"},
        {"lb.real_fraction", "ratio"},
        {"suboram.process_ms", "ms"},
        {"suboram.seal_state_ms", "ms"},
        {"enclave.sealed_bytes_per_epoch", "B"},
        {"obl.oht_build_ms", "ms"},
        {"obl.oht_extract_ms", "ms"},
        {"obl.sort_ms", "ms"},
        {"obl.oht_slots_per_request", "ratio"},
        {"obl.lookup_slots", "count"},
        {"net.batch_seal_ms", "ms"},
        {"net.batch_open_ms", "ms"},
        {"net.wire_bytes_per_request", "B"},
        {"net.messages_per_epoch", "count"},
        {"client.submit_us", "us"},
        {"client.fetch_us", "us"},
        {"client.wait_ms", "ms"},
        {"trace_overhead_frac", "ratio"},
        {"layer.dominant_matches", "count"},
    };
    for (const char* phase :
         {"lb_prepare", "suboram_execute", "response_match", "deliver", "seal"}) {
      u[std::string("phase.") + phase + "_ms"] = "ms";
    }
    for (const char* phase : {"lb_prepare", "suboram_execute", "response_match"}) {
      for (const char* kind : {"busy_s", "cpu_busy_s"}) {
        u[std::string("pool.") + phase + "." + kind] = "s";
      }
    }
    u["pool.suboram_execute.idle_s"] = "s";
    for (const char* step : {"suboram_oht_build", "suboram_scan", "suboram_extract",
                             "lb_bin_placement", "lb_match_sort"}) {
      u[std::string("step.") + step + "_ms"] = "ms";
    }
    return u;
  }();
  return kUnits;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--revision <id>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("--workload") == 0 || args.count("--seed") == 0 ||
      args.count("--seconds") == 0 || args.count("--trace") == 0) {
    return Usage("missing or unpaired arguments");
  }
  const WorkloadSpec* spec = FindWorkload(args["--workload"]);
  if (spec == nullptr) {
    return Usage("unknown workload");
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool traced = args["--trace"] == "1";
  if (!(seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  std::printf("# workload: %s (%s)\n", spec->name.c_str(), spec->why.c_str());
  std::printf("# seed: %llu  seconds: %g  trace: %d  epoch_threads: %d\n",
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0,
              kEpochThreads);
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double epoch_requests = 0;
  if (!traced) {
    const EndToEndReport r = RunEndToEnd(*spec, seed, seconds);
    attempted = r.attempted;
    failed = r.failed;
    epoch_requests = r.epoch_requests;
    metrics = {
        {"throughput_rps", r.throughput_rps, "1/s"},
        {"latency_p50_ms", r.latency_p50_ms, "ms"},
        {"latency_p90_ms", r.latency_p90_ms, "ms"},
        {"setup_s", Median(r.setup_s), "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MiB"},
        {"stored_bytes_per_user_byte", r.stored_bytes_per_user_byte, "B/B"},
    };
    std::printf("# samples: %zu requests over %zu measured epochs (+%zu warmup) in %zu "
                "slices, medians over slices; every slice has >= %zu samples beyond its "
                "p90; setup repeated %zu times\n",
                r.requests, r.epochs, kWarmupEpochs, r.slices, r.min_beyond_p90,
                r.setup_s.size());
    std::printf("# failed_frac: %.6g (%llu of %llu attempted)\n",
                attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    if (spec->open_loop) {
      std::printf("# open loop: median wait from due time to submission at the epoch "
                  "boundary %.3f ms; %zu second writes to a key sent as reads\n",
                  r.submit_wait_ms, r.converted_writes);
    }
  } else {
    const LayerReport r = RunTraced(*spec, seed, seconds);
    attempted = r.attempted;
    failed = r.failed;
    epoch_requests = r.metrics.at("snoopy.epoch_requests");
    for (const auto& [name, unit] : LayerUnits()) {
      const auto it = r.metrics.find(name);
      if (it == r.metrics.end()) {
        std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n",
                     name.c_str());
        return 1;
      }
      metrics.push_back({name, it->second, unit});
    }
    std::printf("# samples: %zu traced epochs, %zu lane epochs\n", r.traced_epochs,
                r.lane_epochs);
    std::printf("# layer share of epoch wall time:");
    for (const auto& [name, ms] : r.layers) {
      std::printf(" %s=%.2fms", name.c_str(), ms);
    }
    std::printf("\n");
    std::printf("# dominant layer: %s (predicted %s): %s\n", r.dominant.c_str(),
                r.predicted.c_str(), r.dominant_ok ? "as predicted" : "NOT as predicted");
  }
  // Host header. The sort strategy is resolved at the measured per-subORAM batch
  // size of one load balancer.
  const uint64_t per_lb = static_cast<uint64_t>(epoch_requests / spec->num_lbs);
  for (const std::string& line :
       HostHeader(snoopy::BatchSize(per_lb, spec->num_suborams), 48 + spec->value_size,
                  args.count("--revision") != 0 ? args["--revision"] : "unknown")) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = attempted > 0 && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
