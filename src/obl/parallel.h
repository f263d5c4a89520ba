// Process-wide work pool shared by every parallel surface in the tree: the epoch
// pipeline phases and the seal (RunPhase below, called from src/core/epoch.cc and
// src/core/snoopy.cc), the fork-join bitonic and bucket sort halves
// (src/obl/bitonic_sort.h, src/obl/bucket_sort.cc), and any future stage that
// needs worker threads. It is the one owner of worker threads under src/
// (tools/ci.sh fails on any other std::thread), and a deployment
// sizes it with one setting, SnoopyConfig::epoch_threads. The kernels' own `threads`
// arguments (sorts, OHT build) are for direct callers such as the Figure 13a bench;
// inside the deployment every nested sort runs at width 1.
//
// Why one pool. If each parallel level spawned its own threads, a 4-thread epoch
// whose tasks sort at width 4 would run 16+ runnable threads on far fewer cores, and
// the oversubscription would show up as work inflation: every wall-clock "busy"
// measurement stretches by the timesharing factor while the real CPU work is
// unchanged. Here workers are persistent (started once, parked on a condition
// variable), and parallel code at any depth *offers* work to them instead of
// spawning threads. The `threads` value a caller passes down its recursion is the
// only width: it alone decides whether a level forks.
//
// Leakage model: everything the pool schedules is a *public* work item (a load
// balancer id, a subORAM id, a public sort-recursion position). Scheduling decisions
// therefore leak nothing new, and all trace events and spans produced inside a task
// are buffered per task and merged in public task order. RunPhase is the one place
// that does this and the one caller of WorkPool::Run under src/ (the sorts' fork-join
// halves are a two-task RunPhase), so thread count and scheduling stay invisible in
// the merged trace.
//
// Accounting: the pool measures both wall time and per-thread CPU time
// (CLOCK_THREAD_CPUTIME_ID). On an oversubscribed host the two diverge -- wall-busy
// inflates with the timesharing factor while CPU-busy stays equal to the real work --
// which is precisely the signal the work-inflation metrics and tools/trace_report.py
// use to flag it.

#ifndef SNOOPY_SRC_OBL_PARALLEL_H_
#define SNOOPY_SRC_OBL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace snoopy {

struct PoolPhaseMetrics;

// Seconds of CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
// Monotonic per thread; differences measure real work independent of timesharing.
double ThreadCpuNowSeconds();

// --- The pool ------------------------------------------------------------------
class WorkPool {
 public:
  // The lazily-started process-wide instance. Workers are created on first use and
  // park on a condition variable between offers; they are joined at static
  // destruction.
  static WorkPool& Instance();

  // Runs body(0), ..., body(n - 1) and returns when all have finished. Bodies 1..n-1
  // are *offered* to idle workers; the calling thread runs body(0), then reclaims
  // and runs every offer no worker has taken, and finally waits only on bodies that
  // are already running. The caller never blocks on an unstarted body, so Run is
  // safe at any nesting depth and from any thread, pool workers included. `n <= 1`
  // runs body(0) inline with no synchronization at all.
  //
  // Exceptions must not escape `body` (phase executors capture per-task exceptions
  // themselves); an escaping exception terminates.
  void Run(size_t n, const std::function<void(size_t)>& body);

  // Grows the pool to at least `workers` persistent threads (no-op when already that
  // large). Run reserves n - 1; a recursion that forks by two at every level
  // reserves its whole width up front.
  void Reserve(size_t workers);

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

 private:
  WorkPool();
  ~WorkPool();  // joins the persistent workers (static destruction)
  struct Impl;
  Impl* impl_;
};

// --- Phase executor ------------------------------------------------------------

// Observability context for one RunPhase call: the phase name for labels and spans
// and the pre-resolved metric handles to export into (null = none). Metrics arrive as
// resolved handles rather than a registry so the per-epoch path never repeats
// name-keyed lookups. Spans go to Tracer::Global(), and every reading is steady_clock
// wall time.
struct PhasePoolContext {
  const char* phase;
  const PoolPhaseMetrics* metrics = nullptr;
};

// Runs task(0..n-1) across up to `threads` pool workers (the calling thread
// included) and returns after all of them finished: one barrier-delimited phase of
// the epoch pipeline. Each task index is a *public* id (a load balancer or subORAM
// number), and everything order-dependent is keyed by it:
//
//   - Trace events and spans a task produces are buffered in one per-task sink (a
//     TraceEvent vector and a SpanEvent vector, padded to a cache line) and merged
//     into the caller's sinks in task-index order, so the merged enclave trace and
//     span sequence are identical at any thread count. While Tracer::Global() is on,
//     each task also gets a "task" span; otherwise its span vector stays empty.
//   - A task that throws doesn't stop its siblings (independent machines in the
//     real deployment); after the join the lowest-index exception is rethrown. This
//     holds at every width, so the state a failed phase leaves behind does not
//     depend on the thread count.
//
// Workers claim tasks from one shared atomic cursor. Each records wall and CPU
// (CLOCK_THREAD_CPUTIME_ID) busy time and its barrier idle time in a
// WorkerPhaseStats, exported through RecordWorkerPhase: wall busy inflates with
// timesharing on an oversubscribed host while CPU busy does not, and their ratio
// is the work-inflation signal. A task may itself run parallel code (a sort at its
// own width): that nests as further offers on the same pool.
void RunPhase(size_t n, int threads, const PhasePoolContext& ctx,
              const std::function<void(size_t)>& task);

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_PARALLEL_H_
