// Scaling-regression gates for the epoch pipeline (ISSUE 9 / ROADMAP open item 1).
//
// The 3.2x work-inflation bug class: parallel phases that spawn threads over each
// other (epoch workers x nested sort threads) run more *wall-busy* seconds at 4
// threads than at 1 for the same work, while busy/(busy+idle) efficiency happily
// reports ~1.0. These tests pin the two invariants that make that bug impossible
// to land silently again:
//
//   1. Obliviousness is schedule-free: the enclave trace and the client responses
//      are byte-identical at epoch_threads {1, 2, 4}.
//   2. Work is thread-count-free: the pool's *CPU* busy time (per-thread
//      CLOCK_THREAD_CPUTIME_ID, immune to timesharing) inflates by at most 1.5x
//      from 1 thread to 4 threads. Wall-busy time is deliberately not gated here:
//      on an oversubscribed CI host it measures the scheduler, not the work.
//
// Plus unit coverage for the shared WorkPool (flat and nested runs) and for
// RunPhase, the one executor every epoch phase goes through, including tasks that
// run parallel sorts of their own on the same pool. The deployment's only thread
// setting is epoch_threads; the sorts nested in its tasks run at width 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/snoopy.h"
#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/parallel.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace snoopy {
namespace {

// ---------------------------------------------------------------------------------
// WorkPool unit coverage.
// ---------------------------------------------------------------------------------

TEST(WorkPool, RunExecutesEveryBodyExactlyOnce) {
  for (const size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(workers);
    for (auto& h : hits) {
      h.store(0);
    }
    WorkPool::Instance().Run(workers, [&](size_t w) {
      ASSERT_LT(w, workers);
      hits[w].fetch_add(1);
    });
    for (size_t w = 0; w < workers; ++w) {
      EXPECT_EQ(hits[w].load(), 1) << "worker " << w << " of " << workers;
    }
  }
}

TEST(WorkPool, NestedRunRunsEveryBodyAtAnyDepth) {
  // A three-wide Run whose bodies each run three-wide Runs, three levels deep: 3^3
  // leaves, every leaf counted exactly once. Run reclaims any offer no worker has
  // taken and waits only on bodies already running, so nesting cannot deadlock
  // however many workers exist or are busy.
  std::atomic<int> leaves{0};
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    WorkPool::Instance().Run(3, [&](size_t) { recurse(depth - 1); });
  };
  recurse(3);
  EXPECT_EQ(leaves.load(), 27);
}

// ---------------------------------------------------------------------------------
// RunPhase unit coverage.
// ---------------------------------------------------------------------------------

TEST(RunPhase, RunsEachTaskOnceAndMergesInIndexOrder) {
  for (const int threads : {1, 2, 4, 8}) {
    for (const size_t n : {1u, 3u, 4u, 9u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " n=" + std::to_string(n));
      MetricsRegistry registry;
      const PoolPhaseMetrics metrics = PoolPhaseMetrics::Resolve(&registry, "unit");
      std::vector<std::atomic<int>> hits(n);
      std::vector<TraceEvent> events;
      {
        TraceScope scope;
        RunPhase(n, threads, {"unit", &metrics}, [&](size_t i) {
          hits[i].fetch_add(1);
          // Two events around a sleep that shrinks with the index, so tasks finish
          // out of index order whenever they run concurrently.
          TraceRecord(TraceOp::kRead, i, 0);
          std::this_thread::sleep_for(std::chrono::microseconds(100 * (n - i)));
          TraceRecord(TraceOp::kWrite, i, 1);
        });
        events = scope.Events();
      }
      std::vector<TraceEvent> expected;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
        expected.push_back({TraceOp::kRead, i, 0});
        expected.push_back({TraceOp::kWrite, i, 1});
      }
      EXPECT_EQ(events, expected);
      const MetricLabels labels = {{"phase", "unit"}};
      EXPECT_EQ(registry.GetCounter("snoopy_pool_tasks_total", labels).value(), n);
      EXPECT_EQ(registry.GetGauge("snoopy_pool_workers", labels).value(),
                static_cast<double>(std::min(n, static_cast<size_t>(threads))));
    }
  }
}

TEST(RunPhase, EveryTaskRunsAndLowestIndexErrorSurfacesAtEveryWidth) {
  for (const int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> ran(4);
    try {
      RunPhase(4, threads, {"unit_errors"}, [&](size_t i) {
        ran[i].fetch_add(1);
        if (i == 0) {
          // Task 0 throws last, so the surfaced error is chosen by index, not by
          // which task failed first.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (i == 0 || i == 2) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception surfaced at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 0") << "threads=" << threads;
    }
    for (size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "task " << i << " at threads=" << threads;
    }
  }
}

// Parallel code inside a phase task nests on the same pool: four tasks at width 4,
// each sorting its own slab at width 2. Every slab comes out sorted, and the merged
// enclave trace equals the run where both levels are width 1.
TEST(RunPhase, TasksRunParallelSortsOnTheSamePool) {
  static constexpr size_t kTasks = 4;
  static constexpr size_t kRecords = 300;  // not a power of two: uneven halves
  const auto run = [](int phase_threads, int sort_threads) {
    std::vector<ByteSlab> slabs;
    for (size_t t = 0; t < kTasks; ++t) {
      slabs.emplace_back(kRecords, 16);
      for (size_t i = 0; i < kRecords; ++i) {
        const uint64_t key = (t + 1) * 0x9e3779b97f4a7c15ull * (i + 7);
        std::memcpy(slabs[t].Record(i), &key, 8);
      }
    }
    TraceScope scope;
    RunPhase(kTasks, phase_threads, {"nested_sort"},
             [&](size_t t) {
               BitonicSortSlab(
                   slabs[t],
                   [](const uint8_t* a, const uint8_t* b) {
                     return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
                   },
                   sort_threads);
             });
    for (const ByteSlab& slab : slabs) {
      for (size_t i = 1; i < kRecords; ++i) {
        uint64_t prev = 0;
        uint64_t cur = 0;
        std::memcpy(&prev, slab.Record(i - 1), 8);
        std::memcpy(&cur, slab.Record(i), 8);
        EXPECT_LE(prev, cur) << "record " << i;
      }
    }
    return scope.Events();
  };
  const std::vector<TraceEvent> sequential = run(1, 1);
  EXPECT_TRUE(NonVacuousTraceEq(run(4, 2), sequential));
}

// ---------------------------------------------------------------------------------
// Epoch scaling regression: fixed workload at epoch_threads {1, 2, 4}.
// ---------------------------------------------------------------------------------

constexpr size_t kValueSize = 32;
constexpr uint64_t kObjects = 2048;
constexpr int kEpochs = 4;
constexpr int kRequestsPerEpoch = 96;

std::vector<uint8_t> Val(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

struct ScalingRun {
  std::vector<TraceEvent> enclave_trace;
  std::map<uint64_t, std::vector<uint8_t>> responses;  // client_seq -> value
  double pool_cpu_busy_s = 0;                          // all phases, all epochs
};

ScalingRun RunScalingWorkload(int epoch_threads, uint64_t seed) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = epoch_threads;
  Snoopy store(cfg, seed);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kObjects; ++k) {
    objects.emplace_back(k, Val(k));
  }
  store.Initialize(objects);
  MetricsRegistry registry;
  store.set_metrics_registry(&registry);

  ScalingRun out;
  uint64_t seq = 1;
  {
    TraceScope scope;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (int i = 0; i < kRequestsPerEpoch; ++i) {
        const auto lb = static_cast<uint32_t>(i % cfg.num_load_balancers);
        const uint64_t key = (seed + epoch * 131 + i * 7) % kObjects;
        if (i % 3 == 0) {
          store.SubmitWriteWithLb(lb, lb, seq, key,
                                  Val(key, static_cast<uint8_t>(epoch + 1)));
        } else {
          store.SubmitReadWithLb(lb, lb, seq, key);
        }
        ++seq;
      }
      for (ClientResponse& resp : store.RunEpoch()) {
        out.responses[resp.client_seq] = std::move(resp.value);
      }
    }
    out.enclave_trace = scope.Events();
  }
  for (const char* phase : {"lb_prepare", "suboram_execute", "response_match"}) {
    out.pool_cpu_busy_s +=
        registry.GetGauge("snoopy_pool_cpu_busy_seconds_total", {{"phase", phase}})
            .value();
  }
  return out;
}

TEST(ScalingRegression, TracesAndResponsesAreThreadCountInvariant) {
  const ScalingRun base = RunScalingWorkload(/*epoch_threads=*/1, /*seed=*/1234);
  ASSERT_FALSE(base.enclave_trace.empty());
  ASSERT_FALSE(base.responses.empty());
  for (const int threads : {2, 4}) {
    const ScalingRun run = RunScalingWorkload(threads, /*seed=*/1234);
    EXPECT_TRUE(NonVacuousTraceEq(run.enclave_trace, base.enclave_trace))
        << "enclave trace diverged at epoch_threads=" << threads;
    EXPECT_EQ(run.responses, base.responses) << "epoch_threads=" << threads;
  }
}

TEST(ScalingRegression, CpuWorkInflationStaysBounded) {
  // The 1.5x ceiling is deliberately above the 1.15x headline target: this is the
  // never-again gate for the 3.2x bug class, tolerant of CI noise on a small
  // workload, not the performance target itself (the bench gates track that).
  if (ThreadCpuNowSeconds() == 0.0) {
    GTEST_SKIP() << "no per-thread CPU clock on this platform";
  }
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan instruments every synchronization op, so coordination "
                  "CPU scales with thread count under it; the gate only means "
                  "something on an uninstrumented build";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "TSan instruments every synchronization op, so coordination "
                  "CPU scales with thread count under it; the gate only means "
                  "something on an uninstrumented build";
#endif
#endif
  // Two measured runs; the first call in the process has warmed up pool threads.
  const ScalingRun base = RunScalingWorkload(/*epoch_threads=*/1, /*seed=*/99);
  const ScalingRun wide = RunScalingWorkload(/*epoch_threads=*/4, /*seed=*/99);
  ASSERT_GT(base.pool_cpu_busy_s, 0.0);
  ASSERT_GT(wide.pool_cpu_busy_s, 0.0);
  const double inflation = wide.pool_cpu_busy_s / base.pool_cpu_busy_s;
  EXPECT_LE(inflation, 1.5) << "4-thread epoch burns " << inflation
                            << "x the CPU of the 1-thread epoch for the same work";
}

}  // namespace
}  // namespace snoopy
