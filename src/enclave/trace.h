// Memory-access / communication trace recording for the abstract enclave model.
//
// The Snoopy paper (Appendix B) models the adversary as seeing a *trace*: the sequence
// of memory addresses an enclave touches plus the communication pattern between
// enclaves. Security is proven by showing the trace is simulatable from public
// information alone. Real SGX cannot surface its own trace, but this substitute enclave
// substrate can: oblivious algorithms emit logical access events here, and the test
// suite asserts that traces are *byte-identical* across different secret inputs with
// the same public parameters (tests/obliviousness_test.cc).
//
// Recording is off by default and costs one predictable branch per event when disabled,
// so production/bench paths are unaffected.
//
// Threading model: the recorder's main event stream is single-owner (the orchestrating
// thread). Worker threads NEVER touch it directly; every fork goes through RunPhase
// (src/obl/parallel.h), which installs a TraceThreadBuffer redirecting each task's
// events into that task's sink and merges the sinks back with TraceAppendCurrent in a
// *deterministic* order keyed by public ids (load-balancer id, subORAM id, recursion
// position). Because the merge keys are public and the per-sink event order is
// sequential, the merged trace of a parallel run is byte-identical to the sequential
// run's trace -- which is exactly what the trace-identity tests pin. See DESIGN.md
// "Threading model".

#ifndef SNOOPY_SRC_ENCLAVE_TRACE_H_
#define SNOOPY_SRC_ENCLAVE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace snoopy {

// Logical operation kinds appearing in a trace. The numeric values are part of the
// trace encoding and must stay stable.
enum class TraceOp : uint8_t {
  kCondSwap = 1,    // oblivious compare-and-swap of slots (a, b)
  kCondSet = 2,     // oblivious compare-and-set touching slot a (source b)
  kRead = 3,        // plain read of slot a
  kWrite = 4,       // plain write of slot a
  kBucketScan = 5,  // full scan of hash-table bucket a (tier b)
  kAppend = 6,      // append of b records at position a
  kMsgSend = 7,     // message of b bytes to endpoint a
  kMsgRecv = 8,     // message of b bytes from endpoint a
  kEpoch = 9,       // epoch boundary marker
  kDeclassify = 10,  // Secret<T>::Declassify at site a (FNV-1a of the site label)
};

struct TraceEvent {
  TraceOp op;
  uint64_t a;
  uint64_t b;

  friend bool operator==(const TraceEvent& x, const TraceEvent& y) {
    return x.op == y.op && x.a == y.a && x.b == y.b;
  }
};

// Process-global trace recorder. The main stream (`events_`) is owned by the
// orchestrating thread; worker threads must route events through TraceThreadBuffer
// (below). `enabled_` is atomic so workers may read it while the owner never toggles
// it mid-parallel-region (Enable/Disable happen strictly outside parallel phases).
class TraceRecorder {
 public:
  // Inline so that header-only users (obl/secret.h runs in every layer, including
  // snoopy_crypto which snoopy_enclave itself links) need no enclave objects.
  static TraceRecorder& Global() {
    static TraceRecorder recorder;
    return recorder;
  }

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Clear() { events_.clear(); }

  // Records into the calling thread's sink: its installed TraceThreadBuffer if any,
  // else the recorder's main stream (owner thread only).
  void Record(TraceOp op, uint64_t a, uint64_t b) {
    if (!enabled()) {
      return;
    }
    if (std::vector<TraceEvent>* sink = tls_sink()) {
      sink->push_back(TraceEvent{op, a, b});
    } else {
      events_.push_back(TraceEvent{op, a, b});
    }
  }

  // Appends an already-collected event batch to the calling thread's current sink.
  // This is the merge half of the per-thread-buffer protocol: after joining workers,
  // the owner appends their buffers in a deterministic public-key order.
  void AppendCurrent(const std::vector<TraceEvent>& events) {
    if (!enabled() || events.empty()) {
      return;
    }
    std::vector<TraceEvent>& out = tls_sink() != nullptr ? *tls_sink() : events_;
    out.insert(out.end(), events.begin(), events.end());
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  // FNV-1a digest of the event stream; two traces are equal iff (with overwhelming
  // probability) their digests are equal. Used by tests for cheap comparison.
  uint64_t Digest() const;

  // Human-readable rendering of the first `limit` events, for test failure messages.
  std::string ToString(size_t limit = 64) const;

 private:
  friend class TraceThreadBuffer;

  // The calling thread's redirection target (null = the recorder's main stream).
  static std::vector<TraceEvent>*& tls_sink() {
    thread_local std::vector<TraceEvent>* sink = nullptr;
    return sink;
  }

  std::atomic<bool> enabled_{false};
  std::vector<TraceEvent> events_;
};

inline void TraceRecord(TraceOp op, uint64_t a, uint64_t b = 0) {
  TraceRecorder::Global().Record(op, a, b);
}

// Appends `events` to the calling thread's current trace sink (see
// TraceRecorder::AppendCurrent). No-op when recording is disabled.
inline void TraceAppendCurrent(const std::vector<TraceEvent>& events) {
  TraceRecorder::Global().AppendCurrent(events);
}

// RAII redirection of the calling thread's trace events into `sink` (a plain vector
// owned by the caller; no locking -- each sink belongs to exactly one thread at a
// time). Nests: the previous sink is restored on destruction, so recursive parallel
// algorithms (bitonic sort halves) can stack buffers. Cheap when recording is
// disabled: Record() checks the enabled flag before consulting the sink.
class TraceThreadBuffer {
 public:
  explicit TraceThreadBuffer(std::vector<TraceEvent>* sink)
      : prev_(TraceRecorder::tls_sink()) {
    TraceRecorder::tls_sink() = sink;
  }
  ~TraceThreadBuffer() { TraceRecorder::tls_sink() = prev_; }

  TraceThreadBuffer(const TraceThreadBuffer&) = delete;
  TraceThreadBuffer& operator=(const TraceThreadBuffer&) = delete;

 private:
  std::vector<TraceEvent>* prev_;
};

// True for events describing enclave-internal memory accesses, false for the network
// communication pattern (kMsgSend/kMsgRecv). The fault-recovery tests compare the
// memory subsequence on its own: retransmissions triggered by adversarial drops change
// the message pattern (trivially simulatable -- the adversary caused them), but must
// leave every enclave's memory trace byte-identical.
inline bool IsMemoryEvent(const TraceEvent& e) {
  return e.op != TraceOp::kMsgSend && e.op != TraceOp::kMsgRecv;
}

// FNV-1a digest over only the memory events of `events` (same encoding as
// TraceRecorder::Digest).
uint64_t MemoryTraceDigest(const std::vector<TraceEvent>& events);

// Non-vacuous byte-for-byte trace equality: two *empty* traces compare UNEQUAL. An
// empty trace means recording was off or the events were suppressed, and a
// trace-identity test passing on empty-vs-empty proves nothing -- parallel paths that
// once dropped their events made exactly that mistake. Use this (not ==) whenever the
// assertion is "these two runs leak the same thing".
inline bool NonVacuousTraceEq(const std::vector<TraceEvent>& x,
                              const std::vector<TraceEvent>& y) {
  return !x.empty() && !y.empty() && x == y;
}

// RAII capture: clears the global recorder, enables it for the scope's lifetime, and
// leaves the captured events in place for inspection after destruction.
class TraceScope {
 public:
  TraceScope() {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
  }
  ~TraceScope() { TraceRecorder::Global().Disable(); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  uint64_t Digest() const { return TraceRecorder::Global().Digest(); }
  std::vector<TraceEvent> Events() const { return TraceRecorder::Global().events(); }
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_ENCLAVE_TRACE_H_
