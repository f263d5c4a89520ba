// Leakage-safe telemetry: a process-wide metrics registry with counters, gauges,
// log-linear histograms (p50/p90/p99/p999, mergeable), and epoch-phase span timers.
//
// An oblivious store's telemetry must itself be non-leaking: a counter bumped on a
// secret-dependent path, or a histogram fed a secret value, is an access-pattern side
// channel exactly like a data-dependent branch (the failure mode trusted-processor
// ORAM hardening treats as fatal). This layer therefore enforces, by construction:
//
//   1. Only PUBLIC values are recordable. Every record method takes plain
//      integral/double types; overloads for Secret<T> and SecretBool are `= delete`d,
//      so `counter.Increment(secret)` is a compile error, not a silent leak.
//   2. Recording never touches the enclave trace. No telemetry method calls
//      TraceRecord; tests/telemetry_test.cc pins trace-identity with metrics on/off.
//   3. Telemetry calls inside SNOOPY_OBLIVIOUS regions are flagged by tools/ct_lint.py
//      (rule CT009) unless the call name is annotated `ct-public` for the region.
//
// What is public (and therefore recordable): epoch counts and durations, the public
// batch size f(R, S) (Theorem 3 -- its whole point is to be safe to reveal), wire
// byte/message counts the network adversary sees anyway, retry/timeout/recovery
// events (the adversary caused them), and simulator outputs. See README.md
// "Observability" for the full leakage model.
//
// The library is dependency-free (no net/, obl/, enclave/ includes); Secret types are
// forward-declared only to delete their overloads. Span timers read steady_clock wall
// time, the one time base of every telemetry reading (spans included), also under
// fault injection; the time source is a parameter only so unit tests can drive a fake
// clock.
//
// Thread safety: the parallel epoch executor records metrics from worker threads, so
// every metric object and the registry are individually thread-safe — counters and
// gauges are atomics, histograms and the registry map are mutex-guarded, and Get*
// still returns stable references (entries are never destroyed). SpanTimer instances
// remain single-owner (create/Stop on one thread); only the histogram they record
// into is shared.

#ifndef SNOOPY_SRC_TELEMETRY_METRICS_H_
#define SNOOPY_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snoopy {

// Forward declarations so the deleted overloads below name the real taint types
// (src/obl/secret.h) without making telemetry depend on the oblivious layer.
template <typename T>
class Secret;
class SecretBool;

// A monotonically increasing event count. Public values only. Thread-safe (atomic;
// relaxed ordering — counts are read only at quiescent points, never used to
// synchronize other memory).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  // Secrets are unrecordable by construction (compile error, see header comment).
  template <typename T>
  void Increment(Secret<T>) = delete;
  void Increment(SecretBool) = delete;

 private:
  std::atomic<uint64_t> value_{0};
};

// A point-in-time measurement (last value wins). Public values only. Thread-safe
// (atomic double; Add is a CAS loop so concurrent adders never lose updates).
class Gauge {
 public:
  void SetValue(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  template <typename T>
  void SetValue(Secret<T>) = delete;
  void SetValue(SecretBool) = delete;
  template <typename T>
  void Add(Secret<T>) = delete;
  void Add(SecretBool) = delete;

 private:
  std::atomic<double> value_{0};
};

// Log-linear histogram over positive doubles: buckets cover [2^e, 2^(e+1)) for
// exponents in [kMinExp, kMaxExp], each split into kSubBuckets linear sub-buckets
// (~6% relative quantile error). Bucket 0 catches zero/negative/underflow. Bucket
// counts are doubles so the simulator can spread a uniform mass across buckets in
// O(buckets) instead of O(requests) (ObserveUniform), keeping the epoch-pipeline
// simulation O(L + S) per epoch at any load. Histograms merge bucket-wise.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -40;  // ~9.1e-13: sub-picosecond / sub-byte
  static constexpr int kMaxExp = 40;   // ~1.1e12: >30 years in seconds, ~1 TB in bytes
  static constexpr int kNumBuckets = 1 + (kMaxExp - kMinExp + 1) * kSubBuckets;

  Histogram() : counts_(kNumBuckets, 0.0) {}

  // Copyable so value-type holders (sim ClusterMetrics) keep working; the mutex is
  // per-instance and never copied.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Observe(double v);
  // Spreads `count` observations uniformly over [lo, hi] across the overlapped
  // buckets. O(buckets intersected), not O(count).
  void ObserveUniform(double lo, double hi, double count);
  void Merge(const Histogram& other);

  template <typename T>
  void Observe(Secret<T>) = delete;
  void Observe(SecretBool) = delete;

  double count() const { std::lock_guard<std::mutex> g(mu_); return count_; }
  double sum() const { std::lock_guard<std::mutex> g(mu_); return sum_; }
  double min() const { std::lock_guard<std::mutex> g(mu_); return count_ > 0 ? min_ : 0; }
  double max() const { std::lock_guard<std::mutex> g(mu_); return count_ > 0 ? max_ : 0; }
  double mean() const {
    std::lock_guard<std::mutex> g(mu_);
    return count_ > 0 ? sum_ / count_ : 0;
  }

  // q in [0, 1]; linear interpolation inside the landing bucket, clamped to the
  // observed [min, max]. Returns 0 on an empty histogram.
  double Quantile(double q) const;

  void Reset();

  // Bucket geometry (exposed for tests and renderers).
  static int BucketIndex(double v);
  static double BucketLowerEdge(int index);
  static double BucketUpperEdge(int index);

 private:
  double QuantileLocked(double q) const;  // requires mu_ held

  mutable std::mutex mu_;
  std::vector<double> counts_;
  double count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

using MetricLabels = std::map<std::string, std::string>;

// Process-wide metric registry. Get* methods create on first use and return stable
// references: Reset() zeroes values in place (it never destroys metric objects), so
// instrumentation may cache the returned references across resets. The entry map is
// mutex-guarded, so Get*/Has/Render/Reset are safe to call from concurrent workers;
// the returned metric objects are themselves thread-safe (above).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});
  Histogram& GetHistogram(const std::string& name, const MetricLabels& labels = {});

  // True if a metric with this exact name+labels already exists.
  bool Has(const std::string& name, const MetricLabels& labels = {}) const;
  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return entries_.size();
  }

  // Prometheus text exposition: counters and gauges as samples, histograms as
  // summaries (quantile series plus _sum/_count).
  std::string RenderPrometheus() const;
  // Machine-readable export: {"metrics": [{name, labels, type, ...}, ...]}.
  std::string RenderJson() const;

  // Zeroes every metric in place; references handed out by Get* stay valid.
  void Reset();

 private:
  struct Entry {
    std::string name;
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& GetEntry(const std::string& name, const MetricLabels& labels);  // requires mu_

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by name{k="v",...}
};

// RAII phase timer: measures a span of wall time and records the elapsed seconds into
// a histogram on Stop()/destruction. The time source defaults to SteadyNowSeconds,
// which every deployment timer uses, fault injection or not (the VirtualClock
// measures only backoff and injected delays); tests pass a fake clock. A null
// histogram makes the span a no-op (the disabled path costs two null checks and no
// clock reads).
//
// Nesting is by convention: open one root span per epoch (snoopy_epoch_seconds) and
// one child span per phase (snoopy_epoch_phase_seconds{phase=...}) inside its
// lifetime; the registry's label structure carries the hierarchy.
class SpanTimer {
 public:
  using NowFn = std::function<double()>;

  explicit SpanTimer(Histogram* histogram, NowFn now_s = &SteadyNowSeconds)
      : histogram_(histogram), now_s_(std::move(now_s)) {
    if (histogram_ != nullptr && now_s_) {
      start_s_ = now_s_();
    }
  }
  ~SpanTimer() { Stop(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  // Records once; further calls are no-ops. Returns the elapsed seconds (0 when
  // disabled).
  double Stop();

  // Seconds since the process-wide steady_clock epoch: the time base of every span,
  // phase histogram and pool statistic.
  static double SteadyNowSeconds();

 private:
  Histogram* histogram_;
  NowFn now_s_;
  double start_s_ = 0;
  bool stopped_ = false;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_TELEMETRY_METRICS_H_
