#include "src/obl/parallel.h"

#include <time.h>

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/enclave/trace.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

double ThreadCpuNowSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;  // no per-thread CPU clock: callers degrade to wall-clock accounting
}

namespace {

thread_local int tls_thread_budget = 0;       // 0 = no scope active
thread_local bool tls_on_worker_thread = false;

// The nested-spawn path is a bug (oversubscription: the work-inflation regression),
// so it must be loud in debug builds and merely degraded -- sequential, correct --
// in release builds.
[[noreturn]] void NestedSpawnFatal(const char* what) {
  std::fprintf(stderr,
               "snoopy WorkPool: %s from inside a pool worker without thread "
               "budget -- nested parallelism must consult CurrentThreadBudget() "
               "(see src/obl/parallel.h)\n",
               what);
  std::abort();
}

}  // namespace

int CurrentThreadBudget() { return tls_thread_budget; }

int PoolClampedThreads(int configured) {
  const int base = configured < 1 ? 1 : configured;
  if (!tls_on_worker_thread) {
    return base;
  }
  const int budget = tls_thread_budget < 1 ? 1 : tls_thread_budget;
  return base < budget ? base : budget;
}

ScopedThreadBudget::ScopedThreadBudget(int budget) : prev_(tls_thread_budget) {
  tls_thread_budget = budget < 0 ? 0 : budget;
}

ScopedThreadBudget::~ScopedThreadBudget() { tls_thread_budget = prev_; }

// A stealable fork-join task. All fields are guarded by the pool mutex: an entry
// sits in the submission list exactly while `claimed` is false, so whoever flips
// `claimed` under the lock (a worker popping it, or the submitter reclaiming it)
// owns the closure and no dangling pointer can outlive ForkJoin's stack frame.
struct ForkEntry {
  const std::function<void()>* fn = nullptr;
  bool claimed = false;
  bool done = false;
  std::list<ForkEntry*>::iterator where;
};

struct WorkPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers park here between jobs
  std::condition_variable done_cv;  // Run/ForkJoin callers wait here

  // Flat run job (one at a time; Run serializes external callers on run_mu).
  const std::function<void(size_t)>* run_body = nullptr;
  size_t run_next = 0;   // next body index to hand out
  size_t run_total = 0;  // body count for the active run
  size_t run_done = 0;   // bodies completed
  int run_child_budget = 1;

  // Stealable fork-join submissions (any nesting depth).
  std::list<ForkEntry*> forks;

  std::vector<std::thread> threads;
  bool stopping = false;

  std::mutex run_mu;  // serializes concurrent Run calls from distinct threads

  void WorkerLoop() {
    tls_on_worker_thread = true;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (stopping) {
        return;
      }
      if (!forks.empty()) {
        ForkEntry* fork = forks.front();
        forks.pop_front();
        fork->claimed = true;
        lock.unlock();
        (*fork->fn)();
        lock.lock();
        fork->done = true;
        done_cv.notify_all();
        continue;
      }
      if (run_body != nullptr && run_next < run_total) {
        const size_t id = run_next++;
        const std::function<void(size_t)>* body = run_body;
        const int budget = run_child_budget;
        lock.unlock();
        {
          ScopedThreadBudget scope(budget);
          (*body)(id);
        }
        lock.lock();
        ++run_done;
        done_cv.notify_all();
        continue;
      }
      work_cv.wait(lock);
    }
  }

  // Grows the pool to at least `count` persistent workers. Callers may request
  // more workers than cores (tests exercise thread counts beyond the machine);
  // the pool honors the request -- concurrency is then bounded by the scheduler,
  // exactly as with raw std::thread, but threads are created once, not per phase.
  void Reserve(size_t count) {
    std::lock_guard<std::mutex> g(mu);
    while (threads.size() < count) {
      threads.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> g(mu);
      stopping = true;
    }
    work_cv.notify_all();
    for (std::thread& t : threads) {
      t.join();
    }
  }
};

WorkPool::WorkPool() : impl_(new Impl) {}

WorkPool::~WorkPool() { delete impl_; }

WorkPool& WorkPool::Instance() {
  // Meyers singleton with a real destructor: workers are joined at static
  // destruction so sanitizer runs see neither leaked memory nor leaked threads.
  static WorkPool pool;
  return pool;
}

bool WorkPool::OnWorkerThread() { return tls_on_worker_thread; }

size_t WorkPool::MaxWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void WorkPool::Run(size_t workers, const std::function<void(size_t)>& body) {
  if (workers <= 1) {
    ScopedThreadBudget scope(tls_thread_budget == 0 ? 0 : 1);
    body(0);
    return;
  }
  if (tls_on_worker_thread) {
    // Nested flat run: the caller is itself a borrowed worker. Spawning (or even
    // queueing a second flat run) here is the oversubscription bug.
    assert(!"WorkPool::Run called from inside a pool worker");
    ScopedThreadBudget scope(1);
    for (size_t w = 0; w < workers; ++w) {
      body(w);
    }
    return;
  }

  std::lock_guard<std::mutex> serial(impl_->run_mu);
  impl_->Reserve(workers - 1);

  // Each body is granted an equal share of the requested workers as its nested
  // thread budget -- a public function of (workers, workers), i.e. 1 here, since
  // one body runs per worker. Bodies that want nested parallelism must be given
  // headroom by their phase instead (see RunPhase's task budget).
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    impl_->run_body = &body;
    impl_->run_total = workers;
    impl_->run_next = 1;  // the calling thread takes body 0 itself
    impl_->run_done = 0;
    impl_->run_child_budget = 1;
  }
  impl_->work_cv.notify_all();

  {
    // The caller participates as worker 0 and then helps drain remaining bodies,
    // so a pool smaller than `workers - 1` can never strand a body.
    tls_on_worker_thread = true;
    ScopedThreadBudget scope(1);
    body(0);
    for (;;) {
      std::unique_lock<std::mutex> lock(impl_->mu);
      if (impl_->run_next >= impl_->run_total) {
        break;
      }
      const size_t id = impl_->run_next++;
      lock.unlock();
      body(id);
      lock.lock();
      ++impl_->run_done;
      impl_->done_cv.notify_all();
    }
    tls_on_worker_thread = false;
  }

  std::unique_lock<std::mutex> lock(impl_->mu);
  ++impl_->run_done;  // the caller's own body(0)
  impl_->done_cv.wait(lock, [this] { return impl_->run_done >= impl_->run_total; });
  impl_->run_body = nullptr;
  impl_->run_total = 0;
  impl_->run_next = 0;
  impl_->run_done = 0;
}

void WorkPool::ForkJoin(const std::function<void()>& first,
                        const std::function<void()>& second) {
  if (tls_on_worker_thread && tls_thread_budget <= 1) {
#ifndef NDEBUG
    NestedSpawnFatal("ForkJoin");
#endif
    first();
    second();
    return;
  }

  ForkEntry entry;
  entry.fn = &first;
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    impl_->forks.push_front(&entry);
    entry.where = impl_->forks.begin();
  }
  impl_->work_cv.notify_one();

  second();

  std::unique_lock<std::mutex> lock(impl_->mu);
  if (!entry.claimed) {
    // Nobody stole it: reclaim under the lock (removing it from the list, so no
    // worker can ever see a dangling entry) and run it on this thread.
    entry.claimed = true;
    impl_->forks.erase(entry.where);
    lock.unlock();
    first();
    return;
  }
  impl_->done_cv.wait(lock, [&entry] { return entry.done; });
}

void WorkPool::Reserve(size_t workers) { impl_->Reserve(workers); }

void RunPhase(size_t n, int threads, const PhasePoolContext& ctx,
              const std::function<void(size_t)>& task) {
  if (n == 0) {
    return;
  }
  const size_t max_workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  const size_t workers = n < max_workers ? n : max_workers;
  const int task_budget = max_workers / n > 1 ? static_cast<int>(max_workers / n) : 1;
  const auto now = [&ctx]() -> double {
    return ctx.now ? ctx.now() : SpanTimer::SteadyNowSeconds();
  };
  Tracer* tracer =
      ctx.tracer != nullptr && ctx.tracer->enabled() ? ctx.tracer : nullptr;

  std::vector<std::vector<TraceEvent>> buffers(n);
  std::vector<std::unique_ptr<SpanRingBuffer>> rings(n);
  if (tracer != nullptr) {
    // Per-task rings stay small at detail 1 (a task plus its step spans); the full
    // default capacity is only worth its zero-fill cost when tile-level detail
    // multiplies the span count.
    const size_t capacity = tracer->detail() >= 2 ? SpanRingBuffer::kDefaultCapacity : 64;
    for (std::unique_ptr<SpanRingBuffer>& ring : rings) {
      ring = std::make_unique<SpanRingBuffer>(capacity);
    }
  }
  std::vector<std::exception_ptr> errors(n);
  std::vector<WorkerPhaseStats> stats(workers);
  stats[0].max_queue_depth = n;  // one shared queue: record its depth once
  std::atomic<size_t> next{0};

  const double pool_start = now();
  WorkPool::Instance().Run(workers, [&](size_t w) {
    WorkerPhaseStats& st = stats[w];
    st.start_s = now();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      TraceThreadBuffer events{&buffers[i]};
      TracerThreadBuffer spans{rings[i].get()};
      const double task_start = now();
      const double task_cpu_start = ThreadCpuNowSeconds();
      {
        TraceSpan span(tracer, "task", ctx.phase, i, 1 + w);
        span.SetArg("worker", w);
        ScopedThreadBudget budget(task_budget);
        try {
          task(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      st.busy_ns += static_cast<uint64_t>((now() - task_start) * 1e9);
      st.cpu_busy_ns +=
          static_cast<uint64_t>((ThreadCpuNowSeconds() - task_cpu_start) * 1e9);
      ++st.tasks;
    }
    st.finish_s = now();
  });
  const double pool_end = now();
  for (WorkerPhaseStats& st : stats) {
    const double idle_s = pool_end - st.finish_s;
    st.idle_ns = idle_s > 0 ? static_cast<uint64_t>(idle_s * 1e9) : 0;
  }

  for (size_t i = 0; i < n; ++i) {
    TraceAppendCurrent(buffers[i]);
    if (tracer != nullptr) {
      tracer->AppendCurrent(*rings[i]);
    }
  }
  RecordWorkerPhase(ctx.tracer, ctx.metrics, ctx.phase, workers, pool_start, pool_end,
                    stats);
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace snoopy
