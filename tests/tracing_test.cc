// Leakage-safe epoch-pipeline tracing (src/telemetry/tracing.h).
//
// The properties that carry the observability design are pinned here:
//   1. Secrets are unrecordable at compile time: the deleted Secret<T>/SecretBool
//      span and argument overloads are pinned with a detection idiom.
//   2. Tracing changes nothing the adversary sees: a tracing-on and a tracing-off
//      run of the same seeded workload produce byte-identical enclave traces and
//      identical client responses.
//   3. Span sequences are deterministic: per-task span sinks merged in public
//      task-id order make the (cat, name, task_id) sequence invariant under
//      epoch_threads, even though wall-clock durations vary, and a sink never drops.
//   4. The pool profile export writes every pool metric and emits its spans in
//      worker-id order.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/snoopy.h"
#include "src/enclave/trace.h"
#include "src/net/retry.h"
#include "src/obl/secret.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace snoopy {
namespace {

// ---------------------------------------------------------------------------------
// 1. Compile-time unrecordability: the deleted overloads must stay deleted. The
// detection idiom (not a plain static_assert on is_constructible alone) pins the
// plain-typed calls as well, so the guard cannot rot into "nothing compiles".
// ---------------------------------------------------------------------------------

template <typename Id, typename = void>
struct CanOpenSpanWith : std::false_type {};
template <typename Id>
struct CanOpenSpanWith<Id, std::void_t<decltype(TraceSpan(
                               std::declval<Tracer*>(), "cat", "name", std::declval<Id>()))>>
    : std::true_type {};

template <typename V, typename = void>
struct CanSetArgWith : std::false_type {};
template <typename V>
struct CanSetArgWith<V, std::void_t<decltype(std::declval<TraceSpan&>().SetArg(
                            "arg", std::declval<V>()))>> : std::true_type {};

static_assert(CanOpenSpanWith<uint64_t>::value);
static_assert(CanOpenSpanWith<int>::value);
static_assert(!CanOpenSpanWith<Secret<uint64_t>>::value,
              "TraceSpan with a Secret task id must be a compile error");
static_assert(!CanOpenSpanWith<SecretBool>::value);

static_assert(CanSetArgWith<uint64_t>::value);
static_assert(CanSetArgWith<uint32_t>::value);
static_assert(!CanSetArgWith<Secret<uint64_t>>::value,
              "TraceSpan::SetArg(Secret<T>) must be a compile error");
static_assert(!CanSetArgWith<Secret<uint32_t>>::value);
static_assert(!CanSetArgWith<SecretBool>::value);

// ---------------------------------------------------------------------------------
// Span helpers.
// ---------------------------------------------------------------------------------

SpanEvent MakeSpan(const char* name, uint64_t task_id, double start_s, double end_s) {
  SpanEvent e;
  e.cat = "test";
  e.name = name;
  e.task_id = task_id;
  e.start_s = start_s;
  e.end_s = end_s;
  return e;
}

// ---------------------------------------------------------------------------------
// Span recording against a deterministic clock.
// ---------------------------------------------------------------------------------

TEST(TraceSpan, RecordsVirtualClockDrivenSpans) {
  VirtualClock clock;
  Tracer tracer;
  tracer.set_clock([&clock] { return clock.now_s(); });
  tracer.Enable(1);

  {
    TraceSpan outer(&tracer, "phase", "lb_prepare", 7);
    outer.SetArg("requests", 30);
    clock.Advance(1.5);
    {
      TraceSpan inner(&tracer, "task", "lb_prepare", 0, /*track=*/1);
      clock.Advance(0.25);
    }  // inner records first (RAII close order)
    clock.Advance(0.25);
  }
  const std::vector<SpanEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "lb_prepare");
  EXPECT_STREQ(events[0].cat, "task");
  EXPECT_EQ(events[0].start_s, 1.5);
  EXPECT_EQ(events[0].end_s, 1.75);
  EXPECT_EQ(events[0].track, 1u);
  EXPECT_STREQ(events[1].cat, "phase");
  EXPECT_EQ(events[1].task_id, 7u);
  EXPECT_EQ(events[1].start_s, 0.0);
  EXPECT_EQ(events[1].end_s, 2.0);
  ASSERT_STREQ(events[1].arg_names[0], "requests");
  EXPECT_EQ(events[1].arg_values[0], 30u);
  EXPECT_EQ(tracer.spans_recorded(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
}

TEST(TraceSpan, NullOrDisabledTracerIsInert) {
  Tracer disabled;  // never Enable()d
  {
    TraceSpan a(nullptr, "cat", "x");
    TraceSpan b(&disabled, "cat", "y", 3);
    b.SetArg("k", 1);
    EXPECT_FALSE(a.active());
    EXPECT_FALSE(b.active());
    b.End();  // explicit End on an inert span is fine
  }
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_EQ(disabled.spans_recorded(), 0u);
}

TEST(TraceSpan, EndIsIdempotent) {
  Tracer tracer;
  tracer.Enable(1);
  TraceSpan s(&tracer, "step", "once");
  s.End();
  s.End();
  s.End();
  EXPECT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------------
// TLS sink routing: per-task buffering and ordered merges.
// ---------------------------------------------------------------------------------

TEST(TracerThreadBuffer, RoutesSpansToRingAndRestores) {
  Tracer tracer;
  tracer.Enable(1);
  std::vector<SpanEvent> ring;
  {
    TracerThreadBuffer install(&ring);
    TraceSpan s(&tracer, "task", "buffered", 1);
    s.End();
    {
      // Null sink keeps the current one (the conditional-buffering idiom).
      TracerThreadBuffer keep(nullptr);
      TraceSpan t(&tracer, "task", "still_buffered", 2);
      t.End();
    }
    EXPECT_EQ(tracer.size(), 0u);  // nothing hit the shared stream yet
    EXPECT_EQ(ring.size(), 2u);
  }
  // Sink restored: new spans go to the shared stream.
  TraceSpan direct(&tracer, "task", "direct", 3);
  direct.End();
  EXPECT_EQ(tracer.size(), 1u);
  tracer.AppendCurrent(ring);
  const std::vector<SpanEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "direct");
  EXPECT_STREQ(events[1].name, "buffered");
  EXPECT_STREQ(events[2].name, "still_buffered");
  EXPECT_EQ(tracer.spans_recorded(), 3u);
}

TEST(Tracer, AppendCurrentRespectsEnclosingRing) {
  Tracer tracer;
  tracer.Enable(1);
  const std::vector<SpanEvent> child = {MakeSpan("child_a", 0, 1, 2),
                                        MakeSpan("child_b", 1, 2, 3)};
  std::vector<SpanEvent> parent;
  {
    TracerThreadBuffer install(&parent);
    TraceSpan own(&tracer, "task", "parent_own", 5);
    own.End();
    tracer.AppendCurrent(child);  // must land in `parent`, not the shared stream
  }
  EXPECT_EQ(tracer.size(), 0u);
  ASSERT_EQ(parent.size(), 3u);
  EXPECT_STREQ(parent.at(0).name, "parent_own");
  EXPECT_STREQ(parent.at(1).name, "child_a");
  EXPECT_STREQ(parent.at(2).name, "child_b");
  // Without an installed sink the same call appends to the shared stream.
  tracer.AppendCurrent(parent);
  EXPECT_EQ(tracer.size(), 3u);
}

// ---------------------------------------------------------------------------------
// Pool profile export: RecordWorkerPhase metrics and spans.
// ---------------------------------------------------------------------------------

TEST(RecordWorkerPhase, ExportsCountersGaugesAndOrderedSpans) {
  Tracer tracer;
  tracer.Enable(1);
  MetricsRegistry registry;
  std::vector<WorkerPhaseStats> stats(2);
  stats[0].tasks = 3;
  stats[0].busy_ns = 200'000'000;  // 0.2 s
  stats[0].idle_ns = 100'000'000;  // 0.1 s
  stats[0].start_s = 10.0;
  stats[0].finish_s = 10.4;
  stats[1].tasks = 2;
  stats[1].busy_ns = 300'000'000;
  stats[1].idle_ns = 0;
  stats[1].start_s = 10.0;
  stats[1].finish_s = 10.5;
  const PoolPhaseMetrics metrics = PoolPhaseMetrics::Resolve(&registry, "suboram_execute");
  RecordWorkerPhase(&tracer, &metrics, "suboram_execute", 2, stats);

  const MetricLabels labels = {{"phase", "suboram_execute"}};
  EXPECT_EQ(registry.GetCounter("snoopy_pool_phases_total", labels).value(), 1u);
  EXPECT_EQ(registry.GetCounter("snoopy_pool_tasks_total", labels).value(), 5u);
  EXPECT_NEAR(registry.GetGauge("snoopy_pool_busy_seconds_total", labels).value(), 0.5,
              1e-9);
  EXPECT_NEAR(registry.GetGauge("snoopy_pool_idle_seconds_total", labels).value(), 0.1,
              1e-9);
  EXPECT_EQ(registry.GetGauge("snoopy_pool_workers", labels).value(), 2.0);
  EXPECT_EQ(registry.GetHistogram("snoopy_pool_worker_busy_seconds", labels).count(), 2.0);

  // Spans: worker summaries in worker-id order. Sequence (not timing) is the
  // deterministic part.
  const std::vector<SpanEvent> events = tracer.snapshot();
  std::vector<const SpanEvent*> workers;
  for (const SpanEvent& e : events) {
    ASSERT_STREQ(e.cat, "pool");
    workers.push_back(&e);
  }
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0]->task_id, 0u);
  EXPECT_EQ(workers[0]->track, 1u);
  EXPECT_EQ(workers[1]->task_id, 1u);
  EXPECT_EQ(workers[1]->track, 2u);

  // Null tracer / null metrics must be accepted (always-on counters are optional
  // per deployment), and so must the all-null handles a null registry resolves to.
  RecordWorkerPhase(nullptr, nullptr, "suboram_execute", 2, stats);
  const PoolPhaseMetrics unresolved = PoolPhaseMetrics::Resolve(nullptr, "suboram_execute");
  RecordWorkerPhase(nullptr, &unresolved, "suboram_execute", 2, stats);
}

// ---------------------------------------------------------------------------------
// Whole-pipeline properties: determinism across epoch_threads and trace identity
// with tracing on/off.
// ---------------------------------------------------------------------------------

constexpr size_t kValueSize = 32;
constexpr uint64_t kObjects = 64;

std::vector<uint8_t> Val(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

struct TracedRun {
  std::vector<SpanEvent> spans;
  std::vector<TraceEvent> enclave_trace;
  std::map<uint64_t, std::vector<uint8_t>> responses;  // client_seq -> value
};

TracedRun RunTracedWorkload(int epoch_threads, bool tracing_on, uint64_t seed) {
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
  Tracer tracer;
  if (tracing_on) {
    tracer.Enable(1);
  }
  store.set_tracer(tracing_on ? &tracer : nullptr);

  TracedRun out;
  uint64_t seq = 1;
  {
    TraceScope scope;
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (uint64_t i = 0; i < 12; ++i) {
        const auto lb = static_cast<uint32_t>(i % cfg.num_load_balancers);
        const uint64_t key = (seed + epoch * 12 + i * 5) % kObjects;
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
  out.spans = tracer.snapshot();
  return out;
}

// The schedule-independent skeleton of a span stream: (cat, name, task_id) in
// order, with the per-worker pool summaries dropped (their count is a function of
// the worker count, which is exactly the knob the test varies).
std::vector<std::tuple<std::string, std::string, uint64_t>> SpanSkeleton(
    const std::vector<SpanEvent>& spans) {
  std::vector<std::tuple<std::string, std::string, uint64_t>> out;
  for (const SpanEvent& e : spans) {
    if (std::strcmp(e.cat, "pool") == 0) {
      continue;
    }
    out.emplace_back(e.cat, e.name, e.task_id);
  }
  return out;
}

TEST(TracingDeterminism, SpanSequenceIsThreadCountInvariant) {
  const TracedRun base = RunTracedWorkload(/*epoch_threads=*/1, true, /*seed=*/77);
  const auto base_skeleton = SpanSkeleton(base.spans);
  ASSERT_FALSE(base_skeleton.empty());
  // The stream must hold the full hierarchy: epochs, phases, and per-LB/subORAM
  // tasks (pool summaries checked separately above).
  bool saw_epoch = false, saw_phase = false, saw_task = false;
  for (const auto& [cat, name, id] : base_skeleton) {
    saw_epoch |= cat == "epoch";
    saw_phase |= cat == "phase";
    saw_task |= cat == "task";
  }
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_task);
  for (const int threads : {2, 4}) {
    const TracedRun run = RunTracedWorkload(threads, true, /*seed=*/77);
    EXPECT_EQ(SpanSkeleton(run.spans), base_skeleton) << "epoch_threads=" << threads;
    EXPECT_EQ(run.responses, base.responses) << "epoch_threads=" << threads;
  }
}

// Every epoch's phase spans are disjoint and in pipeline order at a pooled width:
// each phase is a barrier, so a phase starts no earlier than the previous one
// ended. tools/trace_report.py subtracts the summed pooled-phase walls from the
// epoch wall to get the serial remainder; overlapping phase spans would count
// the overlap twice and understate the serial fraction.
TEST(TracingDeterminism, PhaseSpansAreDisjointAndInPipelineOrder) {
  const TracedRun run = RunTracedWorkload(/*epoch_threads=*/4, true, /*seed=*/77);
  const std::vector<std::string> pipeline = {"lb_prepare", "suboram_execute",
                                             "response_match", "deliver", "seal"};
  std::vector<const SpanEvent*> phases;  // phase spans since the last epoch span
  int epochs = 0;
  for (const SpanEvent& e : run.spans) {
    if (std::strcmp(e.cat, "phase") == 0) {
      phases.push_back(&e);
      continue;
    }
    if (std::strcmp(e.cat, "epoch") != 0) {
      continue;
    }
    // Phase spans close (and are recorded) before their epoch span does.
    std::vector<std::string> names;
    for (const SpanEvent* p : phases) {
      names.push_back(p->name);
    }
    EXPECT_EQ(names, pipeline) << "epoch " << epochs;
    for (size_t i = 0; i < phases.size(); ++i) {
      EXPECT_LE(e.start_s, phases[i]->start_s) << "epoch " << epochs;
      EXPECT_LE(phases[i]->end_s, e.end_s) << "epoch " << epochs;
      if (i > 0) {
        EXPECT_LE(phases[i - 1]->end_s, phases[i]->start_s)
            << "epoch " << epochs << ": " << phases[i - 1]->name << " overlaps "
            << phases[i]->name;
      }
    }
    phases.clear();
    ++epochs;
  }
  EXPECT_EQ(epochs, 3);
}

// A subORAM task records three step spans per load balancer's batch, so at 12 load
// balancers one task holds dozens of spans. Per-task sinks grow like the enclave
// event buffers: every step span of the epoch reaches the stream and none is dropped.
TEST(TracingDeterminism, NoStepSpanIsDroppedAtTwelveBalancers) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 12;
  cfg.num_suborams = 2;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = 2;
  Snoopy store(cfg, /*seed=*/5);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kObjects; ++k) {
    objects.emplace_back(k, Val(k));
  }
  store.Initialize(objects);
  for (uint32_t lb = 0; lb < cfg.num_load_balancers; ++lb) {
    for (uint64_t i = 0; i < 4; ++i) {
      store.SubmitReadWithLb(lb, lb, lb * 4 + i + 1, (lb * 4 + i) % kObjects);
    }
  }

  Tracer& global = Tracer::Global();  // the step spans' tracer and the store's default
  const bool was_enabled = global.enabled();
  global.Clear();
  global.Enable();
  store.RunEpoch();
  const std::vector<SpanEvent> spans = global.snapshot();
  const uint64_t dropped = global.spans_dropped();
  if (!was_enabled) {
    global.Disable();
  }
  global.Clear();

  EXPECT_EQ(dropped, 0u);
  std::map<std::string, size_t> steps;
  for (const SpanEvent& e : spans) {
    if (std::strcmp(e.cat, "step") == 0) {
      ++steps[e.name];
    }
  }
  const size_t batches = cfg.num_load_balancers * cfg.num_suborams;
  for (const char* name : {"suboram_scan", "suboram_extract", "suboram_oht_build"}) {
    EXPECT_EQ(steps[name], batches) << name;
  }
}

TEST(TracingLeakage, ObliviousTraceIdenticalTracingOnAndOff) {
  for (const int threads : {1, 4}) {
    const TracedRun on = RunTracedWorkload(threads, /*tracing_on=*/true, /*seed=*/91);
    const TracedRun off = RunTracedWorkload(threads, /*tracing_on=*/false, /*seed=*/91);
    EXPECT_TRUE(NonVacuousTraceEq(on.enclave_trace, off.enclave_trace))
        << "epoch_threads=" << threads
        << ": tracing must not perturb the oblivious access trace";
    EXPECT_EQ(on.responses, off.responses) << "epoch_threads=" << threads;
    EXPECT_FALSE(on.spans.empty());
    EXPECT_TRUE(off.spans.empty());
  }
}

// ---------------------------------------------------------------------------------
// Exporter sanity: the Chrome trace JSON is structurally sound.
// ---------------------------------------------------------------------------------

TEST(ChromeTrace, RenderHoldsEveryRecordedSpan) {
  VirtualClock clock;
  Tracer tracer;
  tracer.set_clock([&clock] { return clock.now_s(); });
  tracer.Enable(1);
  {
    TraceSpan a(&tracer, "phase", "lb_prepare", 0);
    clock.Advance(0.001);
    a.SetArg("requests", 12);
  }
  {
    TraceSpan b(&tracer, "task", "suboram_execute", 3, 2);
    clock.Advance(0.002);
  }
  const std::string json = tracer.RenderChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"lb_prepare\""), std::string::npos);
  EXPECT_NE(json.find("\"suboram_execute\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace snoopy
