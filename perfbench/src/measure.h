// Shared measuring code for the benchmark: clocks, order statistics with sample
// counts, warmup discarding, resource usage, and the host header printed with every
// result. Everything the benchmark times goes through these helpers.

#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the monotonic clock.
double NowSeconds();

// Linear-interpolation quantile of `values` (q in [0, 1]) between closest ranks:
// the (q * (n - 1))-th order statistic, as numpy's default and Python's
// statistics.quantiles(method="inclusive"). 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// A percentile together with how many samples it rests on: `beyond` counts the
// samples strictly above the reported value.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Percentile PercentileOf(const std::vector<double>& values, double q);

// Per-epoch samples with the first `warmup` epochs discarded: Add() every epoch,
// read only the kept ones.
class EpochSeries {
 public:
  explicit EpochSeries(size_t warmup) : warmup_(warmup) {}
  void Add(double v) {
    if (seen_++ >= warmup_) {
      kept_.push_back(v);
    }
  }
  const std::vector<double>& kept() const { return kept_; }
  double median() const { return Median(kept_); }

 private:
  size_t warmup_;
  size_t seen_ = 0;
  std::vector<double> kept_;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMiB();

// One line per host fact: CPU model, hardware threads, compiler and flags, active
// kernel backend, resolved sort strategy (for a representative OHT-build sort of
// `sort_records` records), and the source revision passed in by the runner.
std::vector<std::string> HostHeader(uint64_t sort_records, size_t record_bytes,
                                    const std::string& revision);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
