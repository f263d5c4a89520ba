// Tests of the benchmark itself: the reference checker catches wrong responses, the
// order statistics match known inputs, and the generator is a pure function of the
// seed.

#include <gtest/gtest.h>

#include <vector>

#include "perfbench/src/deployment.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

WorkloadSpec TinyClosedLoop() {
  WorkloadSpec spec;
  spec.name = "tiny_closed";
  spec.num_objects = 256;
  spec.num_lbs = 2;
  spec.requests_per_epoch = 64;
  spec.write_frac = 0.5;
  return spec;
}

WorkloadSpec TinyOpenLoop() {
  WorkloadSpec spec = TinyClosedLoop();
  spec.name = "tiny_open";
  spec.open_loop = true;
  spec.requests_per_epoch = 0;
  spec.zipf_theta = 0.99;
  spec.num_clients = 8;
  spec.rate_rps = 4000;
  spec.striping_replicas = 1;
  return spec;
}

TEST(Statistics, QuantilesMatchKnownInputs) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  // Inclusive linear interpolation: position q * (n - 1).
  EXPECT_DOUBLE_EQ(Quantile(hundred, 0.90), 90.1);
  EXPECT_DOUBLE_EQ(Quantile(hundred, 0.25), 25.75);
  EXPECT_DOUBLE_EQ(Quantile(hundred, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(hundred, 1.0), 100);
  const Percentile p90 = PercentileOf(hundred, 0.90);
  EXPECT_DOUBLE_EQ(p90.value, 90.1);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
}

TEST(Statistics, EpochSeriesDiscardsWarmup) {
  EpochSeries series(2);
  for (double v : {100.0, 50.0, 1.0, 2.0, 3.0}) {
    series.Add(v);
  }
  EXPECT_EQ(series.kept(), (std::vector<double>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(series.median(), 2);
}

TEST(Generator, SameSeedGivesByteIdenticalWorkloads) {
  for (const WorkloadSpec& spec : Workloads()) {
    std::vector<Op> a;
    std::vector<Op> b;
    std::vector<Op> other;
    if (spec.open_loop) {
      ArrivalStream sa(spec, 7);
      ArrivalStream sb(spec, 7);
      ArrivalStream so(spec, 8);
      for (int i = 0; i < 2000; ++i) {
        a.push_back(sa.Next());
        b.push_back(sb.Next());
        other.push_back(so.Next());
      }
    } else {
      for (uint64_t e = 0; e < 3; ++e) {
        for (const Op& op : ClosedLoopEpoch(spec, 7, e)) a.push_back(op);
        for (const Op& op : ClosedLoopEpoch(spec, 7, e)) b.push_back(op);
        for (const Op& op : ClosedLoopEpoch(spec, 8, e)) other.push_back(op);
      }
    }
    EXPECT_EQ(EncodeOps(a), EncodeOps(b)) << spec.name;
    EXPECT_NE(EncodeOps(a), EncodeOps(other)) << spec.name;
  }
}

TEST(Generator, ValuesRoundTripThroughTags) {
  const std::vector<uint8_t> v = ValueOf(12345, 160);
  EXPECT_EQ(TagOfValue(v.data(), v.size()), 12345u);
  std::vector<uint8_t> bad = v;
  bad[100] ^= 1;
  EXPECT_EQ(TagOfValue(bad.data(), bad.size()), 0u);
}

TEST(Generator, OneWritePerKeyPerEpoch) {
  std::vector<Op> ops(3);
  for (Op& op : ops) {
    op.key = 5;
    op.write = true;
    op.tag = 100;
  }
  EXPECT_EQ(LimitOneWritePerKey(ops), 2u);
  EXPECT_TRUE(ops[0].write);
  EXPECT_FALSE(ops[1].write);
  EXPECT_FALSE(ops[2].write);
}

TEST(Reference, PinnedEpochFollowsAppendixCOrder) {
  ReferenceModel model(4);
  // lb 1 writes key 0; lb 0 reads it (lb 0 applies first: sees the initial value);
  // a read at lb 1 sees the pre-batch state too; two writes at lb 0: last one wins.
  std::vector<Op> ops(5);
  ops[0] = {0, 50, 1, 0, true, 0};
  ops[1] = {0, 0, 0, 0, false, 0};
  ops[2] = {0, 0, 1, 0, false, 0};
  ops[3] = {1, 60, 0, 0, true, 0};
  ops[4] = {1, 61, 0, 0, true, 0};
  const std::vector<Expected> e = model.ApplyPinnedEpoch(ops, 2);
  EXPECT_EQ(e[0].tag, InitialTag(0));
  EXPECT_EQ(e[1].tag, InitialTag(0));
  EXPECT_EQ(e[2].tag, InitialTag(0));
  EXPECT_EQ(e[3].tag, InitialTag(1));
  EXPECT_EQ(e[4].tag, InitialTag(1));
  EXPECT_EQ(model.tag(0), 50u);
  EXPECT_EQ(model.tag(1), 61u);
}

TEST(Reference, UnpinnedEpochAllowsEitherSideOfTheWrite) {
  ReferenceModel model(4);
  std::vector<Op> ops(2);
  ops[0] = {2, 70, 0, 0, true, 0};
  ops[1] = {2, 0, 0, 1, false, 0};
  const std::vector<Expected> e = model.ApplyUnpinnedEpoch(ops);
  EXPECT_TRUE(e[0].Allows(InitialTag(2)));
  EXPECT_FALSE(e[0].Allows(70));
  EXPECT_TRUE(e[1].Allows(InitialTag(2)));
  EXPECT_TRUE(e[1].Allows(70));
  EXPECT_EQ(model.tag(2), 70u);
  EXPECT_EQ(CountMismatches(e, {InitialTag(2), 70}), 0u);
  EXPECT_EQ(CountMismatches(e, {70, 70}), 1u);
  EXPECT_EQ(CountMismatches(e, {InitialTag(2), 0}), 1u);  // missing response
}

TEST(Checker, CleanRunsHaveNoFailures) {
  for (const WorkloadSpec& spec : {TinyClosedLoop(), TinyOpenLoop()}) {
    const EndToEndReport r = RunEndToEnd(spec, 3, 0.3);
    EXPECT_GT(r.attempted, 0u) << spec.name;
    EXPECT_EQ(r.failed, 0u) << spec.name;
    EXPECT_GT(r.throughput_rps, 0) << spec.name;
  }
}

TEST(Checker, PlantedWrongResponsesRaiseFailedFrac) {
  for (const WorkloadSpec& spec : {TinyClosedLoop(), TinyOpenLoop()}) {
    const EndToEndReport r = RunEndToEnd(spec, 3, 0.3, /*plant_wrong=*/3);
    EXPECT_EQ(r.failed, 3u) << spec.name;
    EXPECT_GT(static_cast<double>(r.failed) / static_cast<double>(r.attempted), 0)
        << spec.name;
  }
}

TEST(Checker, AnUnexpectedResponseCountsAsFailed) {
  Harness harness(TinyClosedLoop(), 5);
  harness.Setup();
  EXPECT_EQ(harness.RunEpoch().failed, 0u);
  // A request submitted behind the harness's back gets a response nobody expects.
  harness.snoopy().SubmitReadWithLb(0, 9999, 1, 3);
  EXPECT_EQ(harness.RunEpoch().failed, 1u);
}

}  // namespace
}  // namespace perfbench
