#include "perfbench/src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "src/analysis/batch_bound.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/hash_table.h"
#include "src/obl/kernels.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

Percentile PercentileOf(const std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  p.value = Quantile(values, q);
  p.beyond = static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > p.value; }));
  return p;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::vector<std::string> HostHeader(uint64_t sort_records, size_t record_bytes,
                                    const std::string& revision) {
  using snoopy::SortStrategy;
  // The OHT build's tier-1 sort is the representative bucket-eligible sort.
  const snoopy::OhtParams oht = snoopy::ChooseOhtParams(sort_records, snoopy::kDefaultLambda);
  const snoopy::SortBinSpec spec{0, oht.bins1, true, snoopy::kDefaultLambda};
  snoopy::BucketSortParams params;
  const SortStrategy resolved = snoopy::ResolveSortStrategy(
      SortStrategy::kAuto, sort_records + oht.bins1 * oht.z1, record_bytes, &spec, &params);
  return {
      "cpu_model: " + CpuModel(),
      "hardware_threads: " + std::to_string(std::thread::hardware_concurrency()),
      std::string("compiler: ") + PERFBENCH_COMPILER,
      std::string("flags: ") + PERFBENCH_FLAGS,
      std::string("kernel_backend: ") +
          snoopy::KernelBackendName(snoopy::ActiveKernelBackend()),
      "sort_strategy(auto, oht build of " + std::to_string(sort_records) +
          "): " + snoopy::SortStrategyName(resolved),
      "revision: " + revision,
  };
}

}  // namespace perfbench
