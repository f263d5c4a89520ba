// Machine-readable bench output: a shared JSON emitter for the figure/table
// harnesses. Each harness appends one point per configuration it measures and
// writes BENCH_<name>.json next to the working directory, seeding the perf
// trajectory this repo tracks (throughput, p50/p99 latency, batch sizes per run).
//
// Format (stable, parse with any JSON library):
//   {
//     "bench": "<name>",
//     "schema": 1,
//     "points": [
//       {"series": "<series>", "<field>": <number>, ..., "<field>": "<string>"},
//       ...
//     ]
//   }
//
// Only public measurement outputs belong here (same leakage rules as
// src/telemetry/metrics.h); Secret values do not convert to the field types.

#ifndef SNOOPY_SRC_TELEMETRY_BENCH_JSON_H_
#define SNOOPY_SRC_TELEMETRY_BENCH_JSON_H_

#include <map>
#include <string>
#include <vector>

namespace snoopy {

class BenchJsonEmitter {
 public:
  explicit BenchJsonEmitter(std::string bench_name) : name_(std::move(bench_name)) {}

  // One measured configuration. Returned reference is valid until the next AddPoint.
  class Point {
   public:
    Point& Set(const std::string& field, double value) {
      numbers_[field] = value;
      return *this;
    }
    Point& Set(const std::string& field, const std::string& value) {
      strings_[field] = value;
      return *this;
    }

   private:
    friend class BenchJsonEmitter;
    std::string series_;
    std::map<std::string, double> numbers_;
    std::map<std::string, std::string> strings_;
  };

  Point& AddPoint(const std::string& series);

  std::string Render() const;

  // Writes BENCH_<name>.json under `dir` (default: current directory). Returns the
  // path written, or an empty string on I/O failure.
  std::string WriteFile(const std::string& dir = ".") const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_TELEMETRY_BENCH_JSON_H_
