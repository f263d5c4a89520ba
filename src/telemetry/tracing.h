// Leakage-safe hierarchical span tracing for the epoch pipeline.
//
// The tracer records *spans* — named, categorized intervals — at four levels of the
// public epoch schedule: epoch -> phase (lb_prepare / suboram_execute /
// response_match / seal / repair) -> per-LB / per-subORAM task -> step. Every
// field of every span derives only from public facts (the phase structure, public
// task ids, the padded batch size f(R, S), worker/thread counts, wall-clock time);
// the same three mechanisms that keep the metrics layer non-leaking apply here:
//
//   1. Only PUBLIC values are recordable: span arguments take plain uint64_t, and
//      overloads for Secret<T> / SecretBool are `= delete`d, so attaching a secret
//      to a span is a compile error, not a silent leak.
//   2. Recording never touches the enclave trace (no TraceRecord calls anywhere in
//      this layer); tests/tracing_test.cc pins oblivious-trace identity with
//      tracing on vs. off.
//   3. Tracing calls inside SNOOPY_OBLIVIOUS regions are flagged by tools/ct_lint.py
//      (rule CT010) unless the region's `ct-public:` line names the call,
//      vouching that the span's timing and arguments are functions of public state.
//
// Determinism: worker threads never write the shared span stream directly. Inside
// RunPhase (src/obl/parallel.h) each *task* gets one sink that buffers both its
// enclave events and its spans; the span vector is installed as the thread's TLS
// sink (TracerThreadBuffer, mirroring src/enclave/trace.h's TraceThreadBuffer), and
// the orchestrator merges the sinks back in public task-id order after the join, so
// the span *sequence* is identical at any epoch_threads.
//
// One sink and one clock: every span the deployment records goes to Tracer::Global(),
// and its timestamps are steady_clock wall time (SpanTimer::SteadyNowSeconds), the
// time base of every phase histogram and pool statistic too. That holds under fault
// injection as well, where the VirtualClock models only retry backoff and injected
// delays, so one trace never mixes two time bases.
//
// A task's span vector is single-writer plain memory: the owning task pushes, and the
// orchestrator reads it only after the join. It grows like the enclave event buffer,
// so a task never drops a span; only the shared stream is bounded (kMaxEvents).
//
// Everything callable from oblivious headers (Global(), Record, TraceSpan) is
// inline so snoopy_obl users need no extra objects beyond snoopy_telemetry, which
// stays dependency-free (Secret types are forward-declared only for the deleted
// overloads).

#ifndef SNOOPY_SRC_TELEMETRY_TRACING_H_
#define SNOOPY_SRC_TELEMETRY_TRACING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"

namespace snoopy {

// Forward declarations so the deleted overloads below name the real taint types
// (src/obl/secret.h) without making telemetry depend on the oblivious layer.
template <typename T>
class Secret;
class SecretBool;

// Public sentinel for "this span is not one of N indexed tasks".
inline constexpr uint64_t kTraceNoTaskId = ~uint64_t{0};

// One closed span. `cat` and `name` must be string literals (stored by pointer;
// the exporter assumes static lifetime). Up to four named public integer
// arguments; a null arg name means the slot is unused.
struct SpanEvent {
  static constexpr int kMaxArgs = 5;

  const char* cat = "";
  const char* name = "";
  uint64_t task_id = kTraceNoTaskId;
  uint64_t track = 0;  // exporter thread lane: 0 = orchestrator, 1 + w = worker w
  double start_s = 0;
  double end_s = 0;
  const char* arg_names[kMaxArgs] = {};
  uint64_t arg_values[kMaxArgs] = {};
};

namespace tracing_internal {
// TLS sink pointer: when set, Record() appends to this vector instead of the shared
// stream (installed per *task* by TracerThreadBuffer so the merge order is the
// public task order, not the scheduling order).
inline thread_local std::vector<SpanEvent>* tls_span_sink = nullptr;
}  // namespace tracing_internal

// The span collector. One process-global instance (Global(), configured by the
// SNOOPY_TRACE / SNOOPY_TRACE_OUT environment variables) receives every span the
// deployment records; only this layer's own unit tests construct private instances.
// Thread-safe: `enabled` is an atomic read on every span open, the
// shared stream is mutex-guarded, and worker-side recording goes through the
// per-task TLS sinks.
class Tracer {
 public:
  using NowFn = std::function<double()>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Process-global tracer. First use reads the environment:
  //   SNOOPY_TRACE=<non-zero>  enable
  //   SNOOPY_TRACE_OUT=path    write a Chrome trace-event / Perfetto JSON file at
  //                            process exit (implies SNOOPY_TRACE when it is unset)
  static Tracer& Global();

  // There is one trace level; the argument is ignored and kept only for callers that
  // still pass one.
  void Enable(int /*ignored*/ = 1) { enabled_.store(true, std::memory_order_release); }
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Replace the time source (default: SpanTimer::SteadyNowSeconds). A seam for unit
  // tests of private tracers; no deployment code calls it. Must be called while no
  // spans are open -- the clock is read unlocked on the span hot path.
  void set_clock(NowFn now_s) { now_s_ = std::move(now_s); }
  double NowSeconds() const {
    return now_s_ ? now_s_() : SpanTimer::SteadyNowSeconds();
  }

  // Records a closed span: into the installed TLS sink if any, else the shared
  // stream (bounded; overflow drops and counts).
  void Record(const SpanEvent& e) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (std::vector<SpanEvent>* sink = tracing_internal::tls_span_sink) {
      sink->push_back(e);
      return;
    }
    std::lock_guard<std::mutex> g(mu_);
    if (events_.size() >= kMaxEvents) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_.push_back(e);
  }

  // Appends quiesced per-task spans into this thread's *current* sink -- the installed
  // TLS sink if any, else the shared stream up to its bound -- preserving their order.
  // Callers append in public task-id order; that is what makes the merged sequence
  // independent of the worker schedule, and what lets nested fork-join code merge
  // into an enclosing task's sink instead of bypassing it.
  void AppendCurrent(const std::vector<SpanEvent>& spans) {
    if (std::vector<SpanEvent>* sink = tracing_internal::tls_span_sink) {
      sink->insert(sink->end(), spans.begin(), spans.end());
      return;
    }
    std::lock_guard<std::mutex> g(mu_);
    const size_t kept = std::min(spans.size(), kMaxEvents - events_.size());
    events_.insert(events_.end(), spans.begin(), spans.begin() + kept);
    dropped_.fetch_add(spans.size() - kept, std::memory_order_relaxed);
  }

  std::vector<SpanEvent> snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return events_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return events_.size();
  }
  uint64_t spans_recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t spans_dropped() const { return dropped_.load(std::memory_order_relaxed); }

  void Clear() {
    std::lock_guard<std::mutex> g(mu_);
    events_.clear();
    recorded_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  // Chrome trace-event / Perfetto JSON exporter (tracing.cc). Timestamps are
  // microseconds relative to the earliest span, one complete-event ("ph":"X") per
  // span, tracks mapped to tids. Loadable by chrome://tracing and ui.perfetto.dev.
  std::string RenderChromeTrace() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  NowFn now_s_;  // null = steady clock
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  static constexpr size_t kMaxEvents = size_t{1} << 18;  // shared-stream bound
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
};

// tracing.cc: registered via atexit from Global() when SNOOPY_TRACE_OUT is set.
void TracerAtExitExport();

inline Tracer& Tracer::Global() {
  static Tracer* instance = [] {
    auto* t = new Tracer();
    const char* level = std::getenv("SNOOPY_TRACE");
    const char* out = std::getenv("SNOOPY_TRACE_OUT");
    const bool traced =
        level != nullptr && level[0] != '\0' && !(level[0] == '0' && level[1] == '\0');
    if (traced || (out != nullptr && out[0] != '\0')) {
      t->Enable();
    }
    if (out != nullptr && out[0] != '\0') {
      std::atexit(TracerAtExitExport);
    }
    return t;
  }();
  return *instance;
}

// RAII: routes this thread's span recording into `sink` (saving and restoring any
// enclosing sink, so nesting behaves). RunPhase installs one per public task so the
// orchestrator can merge sinks in task-id order; an untraced task leaves its sink
// empty.
class TracerThreadBuffer {
 public:
  explicit TracerThreadBuffer(std::vector<SpanEvent>* sink)
      : prev_(std::exchange(tracing_internal::tls_span_sink, sink)) {}
  ~TracerThreadBuffer() { tracing_internal::tls_span_sink = prev_; }

  TracerThreadBuffer(const TracerThreadBuffer&) = delete;
  TracerThreadBuffer& operator=(const TracerThreadBuffer&) = delete;

 private:
  std::vector<SpanEvent>* prev_;
};

// RAII span: opens on construction, records one closed SpanEvent on End() or
// destruction. A null/disabled tracer makes the whole span a no-op (one branch,
// no clock reads). Arguments are public integers only; the Secret overloads are
// deleted so a secret-typed argument is a compile error (the lint rule CT010
// catches the *placement* of tracing calls in oblivious regions; the type system
// catches the *values*).
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* cat, const char* name,
            uint64_t task_id = kTraceNoTaskId, uint64_t track = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      event_.cat = cat;
      event_.name = name;
      event_.task_id = task_id;
      event_.track = track;
      event_.start_s = tracer_->NowSeconds();
    }
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Secret task ids are unrecordable by construction.
  template <typename T>
  TraceSpan(Tracer*, const char*, const char*, Secret<T>, uint64_t = 0) = delete;
  TraceSpan(Tracer*, const char*, const char*, SecretBool, uint64_t = 0) = delete;

  void SetArg(const char* arg_name, uint64_t value) {
    if (tracer_ == nullptr) {
      return;
    }
    for (int i = 0; i < SpanEvent::kMaxArgs; ++i) {
      if (event_.arg_names[i] == nullptr) {
        event_.arg_names[i] = arg_name;
        event_.arg_values[i] = value;
        return;
      }
    }
  }
  template <typename T>
  void SetArg(const char*, Secret<T>) = delete;
  void SetArg(const char*, SecretBool) = delete;

  // Closes and records the span once; later calls are no-ops.
  void End() {
    if (tracer_ == nullptr) {
      return;
    }
    event_.end_s = tracer_->NowSeconds();
    tracer_->Record(event_);
    tracer_ = nullptr;
  }

  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  SpanEvent event_{};
};

// Per-worker counters for one RunPhase call (src/obl/parallel.h). All fields are
// public: scheduling facts (task counts) and clock readings, never request contents.
struct WorkerPhaseStats {
  uint64_t tasks = 0;
  uint64_t busy_ns = 0;      // sum of task *wall* run times on this worker
  // Sum of task *CPU* times (CLOCK_THREAD_CPUTIME_ID). On an oversubscribed host
  // wall-busy inflates with the timesharing factor while CPU-busy stays equal to
  // the real work -- the divergence is the work-inflation signal; 0 when the
  // platform lacks a per-thread CPU clock (consumers fall back to wall-busy).
  uint64_t cpu_busy_ns = 0;
  uint64_t idle_ns = 0;      // barrier stall: pool end minus this worker's finish
  double start_s = 0;
  double finish_s = 0;
};

// Pre-resolved handles for the pool metrics RecordWorkerPhase writes per phase.
// Name-keyed registry lookups build a labels map and walk the registry index on
// every call; at three phases per epoch that cost shows up in the <1% telemetry
// overhead gate. Callers that run many epochs resolve once (per registry, per
// phase) and pass the handle instead. Registry references stay stable for the
// registry's lifetime (see DESIGN.md), so caching these pointers is safe.
struct PoolPhaseMetrics {
  Counter* phases_total = nullptr;
  Counter* tasks_total = nullptr;
  Gauge* busy_seconds_total = nullptr;
  Gauge* cpu_busy_seconds_total = nullptr;
  Gauge* idle_seconds_total = nullptr;
  Gauge* workers = nullptr;
  Histogram* worker_busy_seconds = nullptr;
  Histogram* worker_idle_seconds = nullptr;

  // Resolves every handle against `metrics` for the given phase label. Returns an
  // all-null struct when `metrics` is null.
  static PoolPhaseMetrics Resolve(MetricsRegistry* metrics, const char* phase);
};

// Exports one phase-pool run: always-on counters/histograms into the pre-resolved
// `metrics` handles (null skips the metrics writes entirely) and, while
// Tracer::Global() is on, per-worker "pool" spans emitted in worker-id order so
// traces stay schedule-independent in *sequence* (the recorded durations are
// wall-clock facts and naturally vary). Defined in tracing.cc.
void RecordWorkerPhase(const PoolPhaseMetrics* metrics, const char* phase, size_t workers,
                       const std::vector<WorkerPhaseStats>& stats);

}  // namespace snoopy

#endif  // SNOOPY_SRC_TELEMETRY_TRACING_H_
