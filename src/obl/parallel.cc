#include "src/obl/parallel.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <list>
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

// One offered body. All fields are guarded by the pool mutex: an offer sits in the
// pool's list exactly while `claimed` is false, so whoever flips `claimed` under the
// lock (a worker taking it, or Run reclaiming it) runs it, and no pointer into Run's
// stack frame outlives the call.
struct Offer {
  const std::function<void(size_t)>* body = nullptr;
  size_t index = 0;
  bool claimed = false;
  bool done = false;
  std::list<Offer*>::iterator where;
};

// An exception escaping a body would unwind Run past offers still in the list, so
// it terminates instead.
void Call(const std::function<void(size_t)>& body, size_t index) noexcept { body(index); }

// One RunPhase task's buffered output: its enclave events and its spans, merged in
// task order after the join. Padded to its own cache line because neighbouring tasks
// push into neighbouring sinks concurrently.
struct alignas(64) TaskSink {
  std::vector<TraceEvent> events;
  std::vector<SpanEvent> spans;
};

}  // namespace

struct WorkPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers park here between offers
  std::condition_variable done_cv;  // Run waits here for claimed offers
  std::list<Offer*> offers;         // the one queue of pending work: unclaimed offers
  bool stopping = false;
  std::vector<std::thread> threads;  // last: workers use every member above

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [this] { return stopping || !offers.empty(); });
      if (stopping) {
        return;
      }
      Offer* offer = offers.front();
      offers.pop_front();
      offer->claimed = true;
      lock.unlock();
      Call(*offer->body, offer->index);
      lock.lock();
      offer->done = true;
      done_cv.notify_all();
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

void WorkPool::Run(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    Call(body, 0);
    return;
  }
  impl_->Reserve(n - 1);
  std::vector<Offer> offers(n - 1);
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    for (size_t i = n - 1; i >= 1; --i) {  // pushed newest-first: body 1 at the front
      Offer& offer = offers[i - 1];
      offer.body = &body;
      offer.index = i;
      impl_->offers.push_front(&offer);
      offer.where = impl_->offers.begin();
    }
  }
  for (size_t i = 1; i < n; ++i) {
    impl_->work_cv.notify_one();
  }

  Call(body, 0);

  std::unique_lock<std::mutex> lock(impl_->mu);
  for (Offer& offer : offers) {
    if (offer.claimed) {
      continue;
    }
    // Nobody took it: reclaim under the lock (removing it from the list, so no
    // worker can ever see a dangling offer) and run it on this thread.
    offer.claimed = true;
    impl_->offers.erase(offer.where);
    lock.unlock();
    Call(body, offer.index);
    lock.lock();
    offer.done = true;
  }
  impl_->done_cv.wait(lock, [&offers] {
    return std::all_of(offers.begin(), offers.end(),
                       [](const Offer& offer) { return offer.done; });
  });
}

void WorkPool::Reserve(size_t workers) { impl_->Reserve(workers); }

void RunPhase(size_t n, int threads, const PhasePoolContext& ctx,
              const std::function<void(size_t)>& task) {
  if (n == 0) {
    return;
  }
  const size_t max_workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  const size_t workers = n < max_workers ? n : max_workers;
  const auto now = [&ctx]() -> double {
    return ctx.now ? ctx.now() : SpanTimer::SteadyNowSeconds();
  };
  Tracer* tracer =
      ctx.tracer != nullptr && ctx.tracer->enabled() ? ctx.tracer : nullptr;

  std::vector<TaskSink> sinks(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<WorkerPhaseStats> stats(workers);
  std::atomic<size_t> next{0};

  WorkPool::Instance().Run(workers, [&](size_t w) {
    WorkerPhaseStats& st = stats[w];
    st.start_s = now();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      TraceThreadBuffer events{&sinks[i].events};
      // The span sink is shared by every Tracer, so it is installed only while this
      // phase's tracer records; otherwise spans go wherever they went before.
      TracerThreadBuffer spans{tracer != nullptr ? &sinks[i].spans : nullptr};
      const double task_start = now();
      const double task_cpu_start = ThreadCpuNowSeconds();
      {
        TraceSpan span(tracer, "task", ctx.phase, i, 1 + w);
        span.SetArg("worker", w);
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

  for (const TaskSink& sink : sinks) {
    TraceAppendCurrent(sink.events);
    if (tracer != nullptr) {
      tracer->AppendCurrent(sink.spans);
    }
  }
  RecordWorkerPhase(ctx.tracer, ctx.metrics, ctx.phase, workers, stats);
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace snoopy
