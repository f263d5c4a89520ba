// Process-wide work pool shared by every parallel surface in the tree: the epoch
// pipeline phases (RunPhase below, called from src/core/snoopy.cc), the fork-join
// bitonic sort halves (src/obl/bitonic_sort.h), and any future stage that needs
// worker threads.
//
// Why one pool. Before this layer each parallel phase spawned fresh std::threads and
// the sort recursion spawned more threads *underneath* those workers, so a 4-thread
// epoch with 4-thread sorts could momentarily run 16+ runnable threads on a machine
// with far fewer cores. The oversubscription shows up as work inflation: every
// wall-clock "busy" measurement stretches by the timesharing factor while the real
// CPU work is unchanged (the bug ROADMAP open item 1 tracked). The pool fixes the
// structure: workers are persistent (started once, parked on a condition variable --
// the ScaleStore worker/ProfilingThread idiom), phases borrow them instead of
// spawning, and nested parallelism becomes *submission* to the same pool (stealable
// ForkJoin tasks) instead of new threads. A thread-budget TLS scope tells nested code
// (AdaptiveSortThreads) how many workers its context actually owns; exceeding it is
// the old nested-spawn bug and is a hard error in debug builds.
//
// Leakage model: everything the pool schedules is a *public* work item (a load
// balancer id, a subORAM id, a public sort-recursion position). Scheduling decisions
// therefore leak nothing new, and all trace events produced inside a task are
// buffered per task and merged in public task order (RunPhase, the sort's
// fork-join) -- thread count and scheduling stay invisible in the merged trace.
//
// Accounting: the pool measures both wall time and per-thread CPU time
// (CLOCK_THREAD_CPUTIME_ID). On an oversubscribed host the two diverge -- wall-busy
// inflates with the timesharing factor while CPU-busy stays equal to the real work --
// which is precisely the signal the work-inflation metrics and tools/trace_report.py
// use to flag the regression this layer fixed.

#ifndef SNOOPY_SRC_OBL_PARALLEL_H_
#define SNOOPY_SRC_OBL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace snoopy {

class Tracer;
struct PoolPhaseMetrics;

// Seconds of CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
// Monotonic per thread; differences measure real work independent of timesharing.
double ThreadCpuNowSeconds();

// --- Thread budget -------------------------------------------------------------
//
// How many OS threads the *current call tree* has been granted by its scheduler
// context. 0 means "no scope active": the caller is top-level code that may size
// itself off the hardware. A pool task runs under the budget its phase granted it
// (a public function of the worker count and task count); nested parallel code must
// consult the budget instead of assuming it owns the machine -- that assumption is
// the nested-spawn bug AdaptiveSortThreads used to have.
int CurrentThreadBudget();

// Clamps a configured thread count to the caller's context: inside a pool task the
// result never exceeds the task's thread budget (min 1); outside the pool the
// configured value passes through unchanged. Clamp-only by design -- budgets never
// *raise* a width, because widths feed public trace metadata (e.g. the parallel-scan
// marker records its width) and raising them per-context would make traces vary with
// the thread layout.
int PoolClampedThreads(int configured);

// RAII budget scope for the calling thread; nests (the previous budget is restored).
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int budget);
  ~ScopedThreadBudget();
  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int prev_;
};

// --- The pool ------------------------------------------------------------------
class WorkPool {
 public:
  // The lazily-started process-wide instance. Workers are created on first use and
  // park on a condition variable between runs; they live for the process (detached
  // teardown at exit, like ScaleStore's always-running worker threads).
  static WorkPool& Instance();

  // True when the calling thread is executing inside a pool-run body or a stolen
  // ForkJoin task -- i.e. parallel code that must not spawn threads of its own.
  static bool OnWorkerThread();

  // Runs body(0), body(1), ..., body(workers - 1) concurrently and returns when all
  // have finished. The calling thread executes body(0); persistent workers execute
  // the rest. `workers <= 1` runs body(0) inline with no synchronization at all.
  //
  // Exceptions must not escape `body` (phase executors capture per-task exceptions
  // themselves); an escaping exception terminates.
  //
  // Calling Run from inside a pool worker is the nested-spawn bug: it asserts in
  // debug builds and degrades to inline execution (body(0..workers-1) sequentially)
  // in release builds. Concurrent Run calls from *distinct external* threads
  // serialize on the pool.
  void Run(size_t workers, const std::function<void(size_t)>& body);

  // Fork-join for recursive divide-and-conquer (the bitonic sort halves): offers
  // `first` to the pool as a stealable task, runs `second` on the calling thread,
  // then either reclaims `first` (nobody took it -- runs inline, the common fast
  // path) or waits for the thief to finish. Safe at any nesting depth and from any
  // thread, including pool workers: the caller never blocks on an *unstarted* task,
  // so there is no scheduling cycle to deadlock on.
  //
  // The caller must hold a thread budget of >= 2 (or be top-level with no budget
  // scope): forking with budget <= 1 from a worker is the nested-oversubscription
  // bug -- hard error in debug builds, sequential execution in release builds.
  void ForkJoin(const std::function<void()>& first,
                const std::function<void()>& second);

  // Upper bound on useful workers for top-level callers: hardware concurrency
  // (>= 1). Explicit thread requests above this still run (tests exercise thread
  // counts beyond the core count) but cannot run concurrently.
  static size_t MaxWorkers();

  // Grows the pool to at least `workers` persistent threads (no-op when already
  // that large). ForkJoin callers that want real concurrency reserve their width
  // up front; Run reserves automatically.
  void Reserve(size_t workers);

 private:
  WorkPool();
  ~WorkPool();  // joins the persistent workers (static destruction)
  struct Impl;
  Impl* impl_;
};

// --- Phase executor ------------------------------------------------------------

// Observability context for one RunPhase call: phase name for labels and spans, the
// tracer and pre-resolved metric handles to export into (either may be null), and
// the clock (null = steady_clock; the fault-injection deployment passes the
// VirtualClock). Metrics arrive as resolved handles rather than a registry so the
// per-epoch path never repeats name-keyed lookups.
struct PhasePoolContext {
  const char* phase;
  Tracer* tracer = nullptr;
  const PoolPhaseMetrics* metrics = nullptr;
  std::function<double()> now;
};

// Runs task(0..n-1) across up to `threads` pool workers (the calling thread
// included) and returns after all of them finished: one barrier-delimited phase of
// the epoch pipeline. Each task index is a *public* id (a load balancer or subORAM
// number), and everything order-dependent is keyed by it:
//
//   - Trace events and spans a task produces are buffered per task (TraceEvent
//     vector, SpanRingBuffer) and merged into the caller's sinks in task-index
//     order, so the merged enclave trace and span sequence are identical at any
//     thread count. Each task also gets a "task" span.
//   - Every task runs under a thread budget of max(1, threads / n), a public
//     function of the configured width and the task count, so nested sorts size
//     themselves to the workers the phase left spare.
//   - A task that throws doesn't stop its siblings (independent machines in the
//     real deployment); after the join the lowest-index exception is rethrown. This
//     holds at every width, so the state a failed phase leaves behind does not
//     depend on the thread count.
//
// Workers claim tasks from one shared atomic cursor. Each records wall and CPU
// (CLOCK_THREAD_CPUTIME_ID) busy time and its barrier idle time in a
// WorkerPhaseStats, exported through RecordWorkerPhase: wall busy inflates with
// timesharing on an oversubscribed host while CPU busy does not, and their ratio
// is the work-inflation signal. Must not be called from inside a pool worker.
void RunPhase(size_t n, int threads, const PhasePoolContext& ctx,
              const std::function<void(size_t)>& task);

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_PARALLEL_H_
