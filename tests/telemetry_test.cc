// Tests for the leakage-safe telemetry layer (src/telemetry/metrics.h) and its
// instrumentation of the Snoopy pipeline.
//
// Three properties carry the security argument and get the heaviest coverage here:
//   1. Secrets are unrecordable at compile time: the deleted Secret<T>/SecretBool
//      overloads are pinned with a detection idiom (static_asserts below).
//   2. Telemetry never touches the enclave trace: a metrics-on run and a metrics-off
//      run of the same seeded workload produce byte-identical traces.
//   3. Every robustness counter is *caused* by an adversary-visible event: the chaos
//      reconciliation test proves retries/recoveries/dedup-hits are an exact function
//      of the injector's fired-decision log -- nothing secret-dependent, and no double
//      counting when retransmit dedup and crash recovery interact.

#include "src/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/snoopy.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/obl/secret.h"

namespace snoopy {
namespace {

// ---------------------------------------------------------------------------------
// Compile-time leakage safety: the deleted overloads must make every secret-typed
// record expression ill-formed, while the plain-typed ones stay callable.
// ---------------------------------------------------------------------------------

template <typename M, typename V, typename = void>
struct CanIncrement : std::false_type {};
template <typename M, typename V>
struct CanIncrement<M, V,
                    std::void_t<decltype(std::declval<M&>().Increment(std::declval<V>()))>>
    : std::true_type {};

template <typename M, typename V, typename = void>
struct CanSetValue : std::false_type {};
template <typename M, typename V>
struct CanSetValue<M, V,
                   std::void_t<decltype(std::declval<M&>().SetValue(std::declval<V>()))>>
    : std::true_type {};

template <typename M, typename V, typename = void>
struct CanAdd : std::false_type {};
template <typename M, typename V>
struct CanAdd<M, V, std::void_t<decltype(std::declval<M&>().Add(std::declval<V>()))>>
    : std::true_type {};

template <typename M, typename V, typename = void>
struct CanObserve : std::false_type {};
template <typename M, typename V>
struct CanObserve<M, V, std::void_t<decltype(std::declval<M&>().Observe(std::declval<V>()))>>
    : std::true_type {};

static_assert(CanIncrement<Counter, uint64_t>::value);
static_assert(CanIncrement<Counter, int>::value);
static_assert(!CanIncrement<Counter, Secret<uint64_t>>::value,
              "Counter::Increment(Secret<T>) must be a compile error");
static_assert(!CanIncrement<Counter, SecretBool>::value);

static_assert(CanSetValue<Gauge, double>::value);
static_assert(!CanSetValue<Gauge, Secret<uint64_t>>::value,
              "Gauge::SetValue(Secret<T>) must be a compile error");
static_assert(!CanSetValue<Gauge, SecretBool>::value);
static_assert(CanAdd<Gauge, double>::value);
static_assert(!CanAdd<Gauge, Secret<uint32_t>>::value);
static_assert(!CanAdd<Gauge, SecretBool>::value);

static_assert(CanObserve<Histogram, double>::value);
static_assert(CanObserve<Histogram, uint64_t>::value);
static_assert(!CanObserve<Histogram, Secret<uint64_t>>::value,
              "Histogram::Observe(Secret<T>) must be a compile error");
static_assert(!CanObserve<Histogram, SecretBool>::value);

// ---------------------------------------------------------------------------------
// Histogram: bucket geometry, quantiles, uniform mass, merge.
// ---------------------------------------------------------------------------------

TEST(Histogram, BucketGeometryBracketsEveryValue) {
  for (const double v : {1e-12, 3.7e-9, 0.001, 0.5, 1.0, 1.0625, 2.0, 3.14159, 1000.0,
                         7.5e8, 9.9e11}) {
    const int i = Histogram::BucketIndex(v);
    ASSERT_GT(i, 0) << v;
    ASSERT_LT(i, Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::BucketLowerEdge(i), v) << v;
    EXPECT_GT(Histogram::BucketUpperEdge(i), v) << v;
    // Log-linear promise: each bucket is narrow relative to its position.
    EXPECT_LT(Histogram::BucketUpperEdge(i) / Histogram::BucketLowerEdge(i),
              1.0 + 2.0 / Histogram::kSubBuckets)
        << v;
  }
  // Edges tile the positive axis without gaps or overlaps.
  for (int i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    ASSERT_DOUBLE_EQ(Histogram::BucketUpperEdge(i), Histogram::BucketLowerEdge(i + 1)) << i;
  }
  // Zero, negatives, and underflow land in the catch-all bucket; overflow clamps.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e-300), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(Histogram, QuantilesTrackKnownDistribution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // ~6% relative quantile error from the bucket width; allow 8% headroom.
  EXPECT_NEAR(h.Quantile(0.50), 500.0, 40.0);
  EXPECT_NEAR(h.Quantile(0.90), 900.0, 72.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 80.0);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.90));
  EXPECT_LE(h.Quantile(0.90), h.Quantile(0.99));
  EXPECT_LE(h.Quantile(0.99), h.Quantile(0.999));
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(Histogram, EmptyHistogramIsAllZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(Histogram, ObserveUniformMatchesDiscreteSampling) {
  // The simulator's O(buckets) uniform spread must agree with O(n) discrete
  // observation of the same distribution -- same mass, same moments, same quantiles
  // up to bucket resolution.
  Histogram spread;
  spread.ObserveUniform(1.0, 3.0, 4000);

  Histogram sampled;
  for (int i = 0; i < 4000; ++i) {
    sampled.Observe(1.0 + 2.0 * (i + 0.5) / 4000.0);
  }

  EXPECT_DOUBLE_EQ(spread.count(), 4000);
  EXPECT_NEAR(spread.sum(), sampled.sum(), 1e-6);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = 1.0 + 2.0 * q;
    EXPECT_NEAR(spread.Quantile(q), expected, 0.08 * expected) << "q=" << q;
    EXPECT_NEAR(spread.Quantile(q), sampled.Quantile(q), 0.16) << "q=" << q;
  }
  // Degenerate interval: all mass in one bucket.
  Histogram point;
  point.ObserveUniform(2.0, 2.0, 10);
  EXPECT_DOUBLE_EQ(point.count(), 10);
  EXPECT_NEAR(point.Quantile(0.5), 2.0, 2.0 / Histogram::kSubBuckets);
  // Non-positive count is a no-op.
  Histogram empty;
  empty.ObserveUniform(1.0, 2.0, 0);
  EXPECT_EQ(empty.count(), 0);
}

TEST(Histogram, MergeIsBucketwiseAndPreservesMoments) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) {
    a.Observe(static_cast<double>(i));
    b.Observe(static_cast<double>(100 + i));
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_DOUBLE_EQ(merged.count(), 200);
  EXPECT_DOUBLE_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 200.0);
  EXPECT_NEAR(merged.Quantile(0.5), 100.0, 8.0);
  // Merging an empty histogram changes nothing.
  const double before = merged.Quantile(0.9);
  merged.Merge(Histogram{});
  EXPECT_DOUBLE_EQ(merged.count(), 200);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.9), before);
}

// ---------------------------------------------------------------------------------
// Registry: creation, labels, reset-in-place, rendering.
// ---------------------------------------------------------------------------------

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  MetricsRegistry registry;
  registry.GetCounter("requests", {{"lb", "0"}}).Increment(3);
  registry.GetCounter("requests", {{"lb", "1"}}).Increment(5);
  EXPECT_EQ(registry.GetCounter("requests", {{"lb", "0"}}).value(), 3u);
  EXPECT_EQ(registry.GetCounter("requests", {{"lb", "1"}}).value(), 5u);
  EXPECT_TRUE(registry.Has("requests", {{"lb", "0"}}));
  EXPECT_FALSE(registry.Has("requests"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, ResetZeroesInPlaceAndKeepsReferences) {
  // The registry's contract with instrumentation: Get* references stay valid across
  // Reset(), so hot paths may cache them.
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("events");
  Gauge& g = registry.GetGauge("level");
  Histogram& h = registry.GetHistogram("latency");
  c.Increment(7);
  g.SetValue(2.5);
  h.Observe(1.0);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  // Same objects, still wired into the registry.
  EXPECT_EQ(&c, &registry.GetCounter("events"));
  EXPECT_EQ(&g, &registry.GetGauge("level"));
  EXPECT_EQ(&h, &registry.GetHistogram("latency"));
  c.Increment();
  EXPECT_EQ(registry.GetCounter("events").value(), 1u);
}

TEST(MetricsRegistry, TypeConfusionThrows) {
  MetricsRegistry registry;
  registry.GetCounter("x");
  EXPECT_THROW(registry.GetGauge("x"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("x"), std::logic_error);
}

TEST(MetricsRegistry, RendersPrometheusAndJson) {
  MetricsRegistry registry;
  registry.GetCounter("snoopy_epochs_total").Increment(2);
  registry.GetGauge("snoopy_net_messages", {{"pair", "lb/0->suboram/1/from/0"}}).SetValue(9);
  Histogram& h = registry.GetHistogram("snoopy_epoch_seconds");
  h.Observe(0.25);
  h.Observe(0.75);

  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE snoopy_epochs_total counter"), std::string::npos);
  EXPECT_NE(prom.find("snoopy_epochs_total 2"), std::string::npos);
  EXPECT_NE(prom.find("pair=\"lb/0->suboram/1/from/0\""), std::string::npos);
  EXPECT_NE(prom.find("snoopy_epoch_seconds{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("snoopy_epoch_seconds_sum 1"), std::string::npos);
  EXPECT_NE(prom.find("snoopy_epoch_seconds_count 2"), std::string::npos);

  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"name\":\"snoopy_epochs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\",\"value\":2"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------------------
// SpanTimer: virtual time source, record-once, disabled path.
// ---------------------------------------------------------------------------------

TEST(SpanTimer, RecordsElapsedVirtualTimeOnce) {
  Histogram h;
  double now = 10.0;
  int clock_reads = 0;
  const auto now_fn = [&] {
    ++clock_reads;
    return now;
  };
  {
    SpanTimer span(&h, now_fn);
    now = 10.5;
    EXPECT_DOUBLE_EQ(span.Stop(), 0.5);
    now = 99.0;
    EXPECT_DOUBLE_EQ(span.Stop(), 0.0);  // second Stop is a no-op
  }                                      // destructor must not record again
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);
  EXPECT_EQ(clock_reads, 2);  // construction + first Stop only
}

TEST(SpanTimer, NullHistogramIsANoOpAndNeverReadsTheClock) {
  int clock_reads = 0;
  {
    SpanTimer span(nullptr, [&] {
      ++clock_reads;
      return 1.0;
    });
    EXPECT_DOUBLE_EQ(span.Stop(), 0.0);
  }
  EXPECT_EQ(clock_reads, 0);
}

TEST(SpanTimer, NestedSpansComposeViaLabels) {
  // The epoch/phase convention: a root span plus child spans sharing its lifetime.
  MetricsRegistry registry;
  double now = 0.0;
  const auto now_fn = [&] { return now; };
  {
    SpanTimer epoch(&registry.GetHistogram("epoch_seconds"), now_fn);
    {
      SpanTimer prepare(&registry.GetHistogram("phase_seconds", {{"phase", "prepare"}}),
                        now_fn);
      now += 1.0;
    }
    {
      SpanTimer execute(&registry.GetHistogram("phase_seconds", {{"phase", "execute"}}),
                        now_fn);
      now += 2.0;
    }
  }
  EXPECT_DOUBLE_EQ(registry.GetHistogram("epoch_seconds").sum(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("phase_seconds", {{"phase", "prepare"}}).sum(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("phase_seconds", {{"phase", "execute"}}).sum(), 2.0);
}

// ---------------------------------------------------------------------------------
// Network: per-endpoint-pair breakdown and stats reset.
// ---------------------------------------------------------------------------------

TEST(NetworkStats, PerPairBreakdownSumsToAggregate) {
  Network net;
  net.Register("server", [](std::span<const uint8_t>) {
    return std::vector<uint8_t>(5, 0xab);
  });
  const std::vector<uint8_t> req(16, 1);
  net.Call("alice", "server", req);
  net.Call("alice", "server", req);
  net.Call("bob", "server", req);
  net.RecordRetry("alice", "server");

  const Network::Stats& s = net.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.bytes_sent, 48u);
  EXPECT_EQ(s.bytes_received, 15u);
  EXPECT_EQ(s.retries, 1u);
  ASSERT_EQ(s.per_pair.size(), 2u);
  const Network::PairStats& alice = s.per_pair.at("alice->server");
  const Network::PairStats& bob = s.per_pair.at("bob->server");
  EXPECT_EQ(alice.messages, 2u);
  EXPECT_EQ(alice.bytes_sent, 32u);
  EXPECT_EQ(alice.bytes_received, 10u);
  EXPECT_EQ(alice.retries, 1u);
  EXPECT_EQ(bob.messages, 1u);
  EXPECT_EQ(bob.retries, 0u);
  EXPECT_EQ(alice.messages + bob.messages, s.messages);
  EXPECT_EQ(alice.bytes_sent + bob.bytes_sent, s.bytes_sent);

  // Export publishes both the aggregate and the labeled per-pair series.
  MetricsRegistry registry;
  net.ExportTo(registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("snoopy_net_messages").value(), 3.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("snoopy_net_pair_messages", {{"pair", "alice->server"}}).value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("snoopy_net_pair_retries", {{"pair", "alice->server"}}).value(), 1.0);
}

TEST(NetworkStats, ResetStatsClearsAggregateAndPerPair) {
  // Regression: ResetStats must wipe the per-pair map, not just the aggregate fields
  // -- stale pairs would otherwise leak into the next measurement window's export.
  Network net;
  net.Register("server", [](std::span<const uint8_t>) { return std::vector<uint8_t>(1, 0); });
  net.Call("alice", "server", std::vector<uint8_t>(8, 1));
  net.RecordRetry("alice", "server");
  net.RecordRecovery();
  ASSERT_FALSE(net.stats().per_pair.empty());

  net.ResetStats();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes_sent, 0u);
  EXPECT_EQ(net.stats().retries, 0u);
  EXPECT_EQ(net.stats().recoveries, 0u);
  EXPECT_TRUE(net.stats().per_pair.empty());
}

// ---------------------------------------------------------------------------------
// Pipeline instrumentation: clean epochs.
// ---------------------------------------------------------------------------------

std::vector<uint8_t> Val(uint64_t tag) {
  std::vector<uint8_t> v(16, 0);
  std::memcpy(v.data(), &tag, 8);
  return v;
}

TEST(SnoopyTelemetry, CleanEpochRecordsAllSeries) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 2;
  cfg.value_size = 16;
  cfg.lambda = 40;
  Snoopy store(cfg, 17);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 32; ++k) {
    objects.emplace_back(k, Val(0));
  }
  store.Initialize(objects);

  MetricsRegistry registry;
  store.set_metrics_registry(&registry);
  for (uint64_t i = 0; i < 10; ++i) {
    store.SubmitRead(/*client_id=*/1, /*client_seq=*/i, /*key=*/i % 32);
  }
  store.RunEpoch();
  for (uint64_t i = 0; i < 6; ++i) {
    store.SubmitRead(/*client_id=*/1, /*client_seq=*/100 + i, /*key=*/i);
  }
  store.RunEpoch();

  EXPECT_EQ(registry.GetCounter("snoopy_epochs_total").value(), 2u);
  EXPECT_EQ(registry.GetCounter("snoopy_requests_total").value(), 16u);
  EXPECT_EQ(registry.GetHistogram("snoopy_epoch_seconds").count(), 2);
  for (const char* phase : {"lb_prepare", "suboram_execute", "response_match"}) {
    EXPECT_EQ(
        registry.GetHistogram("snoopy_epoch_phase_seconds", {{"phase", phase}}).count(), 2)
        << phase;
  }
  for (const char* lb : {"0", "1"}) {
    const Histogram& batch = registry.GetHistogram("snoopy_batch_size", {{"lb", lb}});
    EXPECT_EQ(batch.count(), 2) << lb;
    EXPECT_GT(batch.min(), 0.0) << "padded batches are never empty";
  }
  // Clean run: robustness counters stay untouched, network gauges match the stats.
  EXPECT_EQ(registry.GetCounter("snoopy_dedup_hits_total").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("snoopy_net_retries").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("snoopy_net_messages").value(),
                   static_cast<double>(store.network().stats().messages));
  EXPECT_TRUE(registry.Has("snoopy_net_pair_messages",
                           {{"pair", "lb/0->suboram/1/from/0"}}));
}

TEST(SnoopyTelemetry, NullRegistryDisablesRecordingButNotTheStore) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 1;
  cfg.num_suborams = 1;
  cfg.value_size = 16;
  cfg.lambda = 40;
  Snoopy store(cfg, 3);
  store.Initialize({{1, Val(5)}, {2, Val(6)}});
  store.set_metrics_registry(nullptr);
  store.SubmitRead(1, 1, 1);
  const std::vector<ClientResponse> responses = store.RunEpoch();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].value, Val(5));
  EXPECT_EQ(store.metrics_registry(), nullptr);
}

// ---------------------------------------------------------------------------------
// Trace identity: telemetry must not move a single enclave trace event.
// ---------------------------------------------------------------------------------

TEST(SnoopyTelemetry, MetricsDoNotPerturbTheEnclaveTrace) {
  // Same seed, same workload; one run records into a registry, the other records
  // nothing. The FULL trace (memory + communication) must be byte-identical: the
  // telemetry layer neither emits trace events nor changes any code path that does.
  auto run = [](bool with_metrics) -> uint64_t {
    SnoopyConfig cfg;
    cfg.num_load_balancers = 2;
    cfg.num_suborams = 2;
    cfg.value_size = 16;
    cfg.lambda = 40;
    Snoopy store(cfg, 29);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 16; ++k) {
      objects.emplace_back(k, Val(0));
    }
    store.Initialize(objects);

    MetricsRegistry registry;
    store.set_metrics_registry(with_metrics ? &registry : nullptr);

    Rng rng(71);
    TraceScope scope;
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int i = 0; i < 8; ++i) {
        const auto lb = static_cast<uint32_t>(rng.Uniform(2));
        const uint64_t key = rng.Uniform(16);
        if (rng.Uniform(2) == 0) {
          store.SubmitWriteWithLb(lb, 1, epoch * 100 + i, key, Val(key + 1));
        } else {
          store.SubmitReadWithLb(lb, 1, epoch * 100 + i, key);
        }
      }
      store.RunEpoch();
    }
    return scope.Digest();
  };

  EXPECT_EQ(run(true), run(false))
      << "recording metrics changed the enclave trace: telemetry is leaking";
}

// ---------------------------------------------------------------------------------
// Chaos reconciliation: counters are an exact function of the fired-decision log.
// ---------------------------------------------------------------------------------

TEST(SnoopyTelemetry, ChaosCountersReconcileWithFiredDecisionLog) {
  // Every robustness metric must be attributable to a specific adversary-caused
  // event. Per fired per-call decision:
  //   kDrop              -> 1 retry, 1 timeout
  //   kCorruptRequest    -> 1 retry                (AEAD open fails at the subORAM)
  //   kCorruptReply      -> 1 retry, 1 dedup hit   (retransmit serves the cached reply)
  //   kDuplicate         -> 1 dedup hit            (second delivery hits the cache)
  //   kCrashBeforeReply  -> 2 retries, 2 timeouts, 1 recovery, 0 dedup hits
  //                         (recovery clears the response cache, so the retried batch
  //                          re-executes instead of double-counting a dedup)
  //   kDelay             -> nothing but virtual time
  // and each epoch-boundary crash poll that hits -> 1 recovery.
  // The equalities below are exact -- any double counting (e.g. a dedup hit surviving
  // a crash recovery, or a retry counted at two layers) breaks them.
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SnoopyConfig cfg;
    cfg.num_load_balancers = 2;
    cfg.num_suborams = 3;
    cfg.value_size = 16;
    cfg.lambda = 40;
    Snoopy store(cfg, seed + 500);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 24; ++k) {
      objects.emplace_back(k, Val(0));
    }
    store.Initialize(objects);

    FaultInjector injector(seed);
    FaultProfile chaos;
    chaos.drop = 0.08;
    chaos.duplicate = 0.08;
    chaos.corrupt = 0.06;
    chaos.crash_before_reply = 0.04;
    chaos.delay = 0.05;
    chaos.delay_s = 0.01;
    chaos.crash_at_epoch_start = 0.05;
    injector.set_default_profile(chaos);
    store.set_fault_injector(&injector);

    MetricsRegistry registry;
    store.set_metrics_registry(&registry);

    Rng rng(seed * 13 + 7);
    uint64_t seq = 1;
    for (int epoch = 0; epoch < 10; ++epoch) {
      const size_t n = 1 + rng.Uniform(16);
      for (size_t i = 0; i < n; ++i) {
        const auto lb = static_cast<uint32_t>(rng.Uniform(cfg.num_load_balancers));
        const uint64_t key = rng.Uniform(24);
        if (rng.Uniform(2) == 0) {
          store.SubmitWriteWithLb(lb, lb, seq++, key, Val(key + 1));
        } else {
          store.SubmitReadWithLb(lb, lb, seq++, key);
        }
      }
      store.RunEpoch();
    }

    const uint64_t drops = injector.fired_count(FaultAction::kDrop);
    const uint64_t dups = injector.fired_count(FaultAction::kDuplicate);
    const uint64_t corrupt_req = injector.fired_count(FaultAction::kCorruptRequest);
    const uint64_t corrupt_rep = injector.fired_count(FaultAction::kCorruptReply);
    const uint64_t crashes = injector.fired_count(FaultAction::kCrashBeforeReply);
    const uint64_t delays = injector.fired_count(FaultAction::kDelay);
    const uint64_t epoch_crashes = injector.fired_epoch_crashes();

    // The run must actually have exercised the interesting interactions.
    ASSERT_GT(drops + dups + corrupt_req + corrupt_rep, 0u) << "seed=" << seed;
    ASSERT_GT(crashes + epoch_crashes, 0u) << "seed=" << seed;

    const Network::Stats& stats = store.network().stats();
    EXPECT_EQ(stats.faults_injected, drops + dups + corrupt_req + corrupt_rep + crashes + delays)
        << "seed=" << seed;
    EXPECT_EQ(stats.retries, drops + corrupt_req + corrupt_rep + 2 * crashes)
        << "seed=" << seed;
    EXPECT_EQ(stats.timeouts, drops + 2 * crashes) << "seed=" << seed;
    EXPECT_EQ(stats.recoveries, crashes + epoch_crashes) << "seed=" << seed;
    EXPECT_EQ(registry.GetCounter("snoopy_dedup_hits_total").value(), dups + corrupt_rep)
        << "seed=" << seed;

    // The labeled counters decompose the same totals: summing over endpoints
    // (components) reproduces the aggregates exactly.
    uint64_t retries_by_endpoint = 0;
    uint64_t pair_retries = 0;
    for (uint32_t so = 0; so < cfg.num_suborams; ++so) {
      for (uint32_t lb = 0; lb < cfg.num_load_balancers; ++lb) {
        const std::string endpoint =
            "suboram/" + std::to_string(so) + "/from/" + std::to_string(lb);
        retries_by_endpoint +=
            registry.GetCounter("snoopy_retries_total", {{"endpoint", endpoint}}).value();
        const std::string pair = "lb/" + std::to_string(lb) + "->" + endpoint;
        if (stats.per_pair.count(pair) != 0) {
          pair_retries += stats.per_pair.at(pair).retries;
        }
      }
    }
    EXPECT_EQ(retries_by_endpoint, stats.retries) << "seed=" << seed;
    EXPECT_EQ(pair_retries, stats.retries) << "seed=" << seed;

    uint64_t recoveries_by_component = 0;
    for (uint32_t so = 0; so < cfg.num_suborams; ++so) {
      recoveries_by_component +=
          registry
              .GetCounter("snoopy_recoveries_total",
                          {{"component", "suboram/" + std::to_string(so)}})
              .value();
    }
    for (uint32_t lb = 0; lb < cfg.num_load_balancers; ++lb) {
      recoveries_by_component +=
          registry
              .GetCounter("snoopy_recoveries_total", {{"component", "lb/" + std::to_string(lb)}})
              .value();
    }
    EXPECT_EQ(recoveries_by_component, stats.recoveries) << "seed=" << seed;

    // The fired log itself is consistent: per-call entries name endpoints, epoch-crash
    // entries name components.
    for (const FaultInjector::FiredDecision& d : injector.fired_log()) {
      if (d.epoch_crash) {
        EXPECT_EQ(d.action, FaultAction::kCrashBeforeReply);
        EXPECT_EQ(d.target.find("/from/"), std::string::npos) << d.target;
      } else {
        EXPECT_NE(d.action, FaultAction::kNone);
      }
    }
    EXPECT_EQ(registry.GetCounter("snoopy_epochs_total").value(), 10u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace snoopy
