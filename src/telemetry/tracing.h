// Leakage-safe hierarchical span tracing for the epoch pipeline.
//
// The tracer records *spans* — named, categorized intervals — at four levels of the
// public epoch schedule: epoch -> phase (lb_prepare / suboram_execute /
// response_match / seal / repair) -> per-LB / per-subORAM task -> sort tile. Every
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
// the parallel epoch executor each *task* gets its own SpanRingBuffer installed as
// the thread's TLS sink (TracerThreadBuffer, mirroring src/enclave/trace.h's
// TraceThreadBuffer); the orchestrator merges the rings back in public task-id
// order after the join, so the span *sequence* is identical at any epoch_threads.
// Span timestamps come from a pluggable clock (steady_clock by default, the
// deterministic VirtualClock under fault injection).
//
// The ring buffers are single-writer lock-free: the owning worker pushes with plain
// stores and publishes with one atomic release per event; the ProfilingSampler
// reads only the published size (acquire), and the merge happens after the worker
// quiesced. A full ring drops (and counts) rather than blocks or reallocates, so
// tracing can never add a lock or an allocation to a worker's steady state.
//
// Everything callable from oblivious headers (Global(), Record, TraceSpan) is
// inline so snoopy_obl users need no extra objects beyond snoopy_telemetry, which
// stays dependency-free (Secret types are forward-declared only for the deleted
// overloads).

#ifndef SNOOPY_SRC_TELEMETRY_TRACING_H_
#define SNOOPY_SRC_TELEMETRY_TRACING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
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

// Fixed-capacity single-writer span buffer. The owner thread pushes; anyone may
// read `size()` concurrently (it is published with release stores); the event
// payloads themselves are read only after the writer has quiesced (the merge
// point). Full means drop-and-count, never block or grow.
class SpanRingBuffer {
 public:
  explicit SpanRingBuffer(size_t capacity = kDefaultCapacity)
      : events_(capacity) {}

  SpanRingBuffer(const SpanRingBuffer&) = delete;
  SpanRingBuffer& operator=(const SpanRingBuffer&) = delete;

  bool Push(const SpanEvent& e) {
    const size_t n = published_.load(std::memory_order_relaxed);
    if (n >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    events_[n] = e;
    published_.store(n + 1, std::memory_order_release);
    return true;
  }

  size_t size() const { return published_.load(std::memory_order_acquire); }
  size_t capacity() const { return events_.size(); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Valid only after the writing thread has quiesced (post-join merge).
  const SpanEvent& at(size_t i) const { return events_[i]; }

  void Clear() {
    published_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  std::vector<SpanEvent> events_;
  std::atomic<size_t> published_{0};
  std::atomic<uint64_t> dropped_{0};
};

namespace tracing_internal {
// TLS sink pointer: when set, Record() goes to this ring instead of the shared
// stream (installed per *task* by TracerThreadBuffer so the merge order is the
// public task order, not the scheduling order).
inline thread_local SpanRingBuffer* tls_span_sink = nullptr;
}  // namespace tracing_internal

// The span collector. One process-global instance (Global(), configured by the
// SNOOPY_TRACE / SNOOPY_TRACE_OUT environment variables); tests may use private
// instances. Thread-safe: enabled/detail are atomics read on every span open, the
// shared stream is mutex-guarded, and worker-side recording goes through the
// lock-free TLS rings.
class Tracer {
 public:
  using NowFn = std::function<double()>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Process-global tracer. First use reads the environment:
  //   SNOOPY_TRACE=1|2      enable at detail 1 (tasks) or 2 (adds sort tiles)
  //   SNOOPY_TRACE_OUT=path write a Chrome trace-event / Perfetto JSON file at
  //                         process exit (implies detail 1 when SNOOPY_TRACE unset)
  static Tracer& Global();

  void Enable(int detail = 1) {
    detail_.store(detail < 1 ? 1 : detail, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  int detail() const { return detail_.load(std::memory_order_relaxed); }

  // Replace the time source (default: SpanTimer::SteadyNowSeconds; fault-injection
  // deployments pass the VirtualClock). Must be called while no spans are open —
  // the clock is read unlocked on the span hot path.
  void set_clock(NowFn now_s) { now_s_ = std::move(now_s); }
  double NowSeconds() const {
    return now_s_ ? now_s_() : SpanTimer::SteadyNowSeconds();
  }

  // Records a closed span: into the installed TLS ring if any, else the shared
  // stream (bounded; overflow drops and counts).
  void Record(const SpanEvent& e) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (SpanRingBuffer* sink = tracing_internal::tls_span_sink) {
      if (!sink->Push(e)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    std::lock_guard<std::mutex> g(mu_);
    if (events_.size() >= max_events_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_.push_back(e);
  }

  // Appends a quiesced ring's events to the shared stream, preserving their order.
  // Callers append rings in public task-id order; that is what makes the merged
  // sequence independent of the worker schedule.
  void Append(const SpanRingBuffer& ring) {
    const size_t n = ring.size();
    dropped_.fetch_add(ring.dropped(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(mu_);
    for (size_t i = 0; i < n; ++i) {
      if (events_.size() >= max_events_) {
        dropped_.fetch_add(n - i, std::memory_order_relaxed);
        return;
      }
      events_.push_back(ring.at(i));
    }
  }

  // Appends a quiesced ring into this thread's *current* sink — the installed TLS
  // ring if any, else the shared stream — preserving order. This is how nested
  // fork-join code (the blocked sort) merges child rings without bypassing an
  // enclosing per-task ring.
  void AppendCurrent(const SpanRingBuffer& ring) {
    if (SpanRingBuffer* sink = tracing_internal::tls_span_sink) {
      const size_t n = ring.size();
      dropped_.fetch_add(ring.dropped(), std::memory_order_relaxed);
      for (size_t i = 0; i < n; ++i) {
        if (!sink->Push(ring.at(i))) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    Append(ring);
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

  void set_max_events(size_t n) {
    std::lock_guard<std::mutex> g(mu_);
    max_events_ = n;
  }

  // Chrome trace-event / Perfetto JSON exporter (tracing.cc). Timestamps are
  // microseconds relative to the earliest span, one complete-event ("ph":"X") per
  // span, tracks mapped to tids. Loadable by chrome://tracing and ui.perfetto.dev.
  std::string RenderChromeTrace() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> detail_{1};
  NowFn now_s_;  // null = steady clock
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  size_t max_events_ = 1u << 18;
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
    if (level != nullptr && level[0] != '\0' && !(level[0] == '0' && level[1] == '\0')) {
      t->Enable(level[0] == '2' ? 2 : 1);
    } else if (out != nullptr && out[0] != '\0') {
      t->Enable(1);
    }
    if (out != nullptr && out[0] != '\0') {
      std::atexit(TracerAtExitExport);
    }
    return t;
  }();
  return *instance;
}

// RAII: routes this thread's span recording into `ring` (saving and restoring any
// enclosing sink, so nesting behaves). Install one per public task so the
// orchestrator can merge rings in task-id order. A null ring keeps the current
// sink — callers may pass null to make buffering conditional on tracing.
class TracerThreadBuffer {
 public:
  explicit TracerThreadBuffer(SpanRingBuffer* ring)
      : prev_(tracing_internal::tls_span_sink) {
    if (ring != nullptr) {
      tracing_internal::tls_span_sink = ring;
    }
  }
  ~TracerThreadBuffer() { tracing_internal::tls_span_sink = prev_; }

  TracerThreadBuffer(const TracerThreadBuffer&) = delete;
  TracerThreadBuffer& operator=(const TracerThreadBuffer&) = delete;

 private:
  SpanRingBuffer* prev_;
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

// Merges a quiesced ring into the global tracer's current sink (see
// Tracer::AppendCurrent). Named with the Trace prefix like the enclave trace
// helpers so region allowlists treat the family uniformly.
inline void TraceSpanAppendCurrent(const SpanRingBuffer& ring) {
  Tracer::Global().AppendCurrent(ring);
}

// True when the global tracer wants sort-tile granularity (detail >= 2). Branching
// on this inside an oblivious region is public control flow (global configuration,
// independent of any secret), which the region must vouch for with `ct-public:`.
inline bool TraceTilesEnabled() {
  const Tracer& t = Tracer::Global();
  return t.enabled() && t.detail() >= 2;
}

// Per-worker counters for one RunPhase call (src/obl/parallel.h). All fields are
// public: scheduling facts (task counts, queue depths) and clock readings, never
// request contents.
struct WorkerPhaseStats {
  uint64_t tasks = 0;
  uint64_t busy_ns = 0;      // sum of task *wall* run times on this worker
  // Sum of task *CPU* times (CLOCK_THREAD_CPUTIME_ID). On an oversubscribed host
  // wall-busy inflates with the timesharing factor while CPU-busy stays equal to
  // the real work -- the divergence is the work-inflation signal; 0 when the
  // platform lacks a per-thread CPU clock (consumers fall back to wall-busy).
  uint64_t cpu_busy_ns = 0;
  uint64_t idle_ns = 0;      // barrier stall: pool end minus this worker's finish
  uint64_t max_queue_depth = 0;
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
  Histogram* queue_depth = nullptr;

  // Resolves every handle against `metrics` for the given phase label. Returns an
  // all-null struct when `metrics` is null.
  static PoolPhaseMetrics Resolve(MetricsRegistry* metrics, const char* phase);
};

// Exports one phase-pool run: always-on counters/histograms into `metrics` (null
// ok) and per-worker "pool" spans into `tracer` (null/disabled ok), emitted in
// worker-id order so traces stay schedule-independent in *sequence* (the recorded
// durations are wall-clock facts and naturally vary). Defined in tracing.cc.
void RecordWorkerPhase(Tracer* tracer, MetricsRegistry* metrics, const char* phase,
                       size_t workers, double phase_start_s, double phase_end_s,
                       const std::vector<WorkerPhaseStats>& stats);

// Hot-path variant taking pre-resolved metric handles (null `metrics` skips the
// metrics writes entirely). The name-keyed overload above delegates here.
void RecordWorkerPhase(Tracer* tracer, const PoolPhaseMetrics* metrics,
                       const char* phase, size_t workers, double phase_start_s,
                       double phase_end_s,
                       const std::vector<WorkerPhaseStats>& stats);

// Background sampler: a thread that periodically snapshots tracer and registry
// health into time-series gauges (snoopy_sampler_*), the ScaleStore
// ProfilingThread idiom. Sampling reads only atomics and registry internals —
// never application state — so it is safe to run concurrently with epochs.
class ProfilingSampler {
 public:
  ProfilingSampler(MetricsRegistry* registry, Tracer* tracer,
                   double interval_s = 0.01);
  ~ProfilingSampler();

  ProfilingSampler(const ProfilingSampler&) = delete;
  ProfilingSampler& operator=(const ProfilingSampler&) = delete;

  void Start();
  void Stop();  // idempotent; joins the thread
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  void SampleOnce();

  MetricsRegistry* registry_;
  Tracer* tracer_;
  double interval_s_;
  std::atomic<uint64_t> samples_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_TELEMETRY_TRACING_H_
