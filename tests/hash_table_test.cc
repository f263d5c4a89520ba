#include "src/obl/hash_table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/primitives.h"

namespace snoopy {
namespace {

// Record layout: key(8) | bin(4) | dummy(1) | pad(3) | order(8) | dedup(8) | value(8)
constexpr size_t kStride = 40;
constexpr size_t kValueOffset = 32;
constexpr OhtSchema kSchema{/*key_offset=*/0, /*bin_offset=*/8, /*dummy_offset=*/12,
                            /*order_offset=*/16, /*dedup_offset=*/24};

ByteSlab MakeBatch(const std::vector<uint64_t>& keys) {
  ByteSlab slab(keys.size(), kStride);
  for (size_t i = 0; i < keys.size(); ++i) {
    uint8_t* rec = slab.Record(i);
    std::memcpy(rec, &keys[i], 8);
    const uint64_t value = keys[i] * 1000 + 7;
    std::memcpy(rec + kValueOffset, &value, 8);
  }
  return slab;
}

// Oblivious-style lookup: scan both buckets fully, remember a matching record's value.
bool Lookup(TwoTierOht& oht, uint64_t key, uint64_t* value_out) {
  bool found = false;
  uint64_t value = 0;
  auto scan = [&](std::span<uint8_t> bucket) {
    const size_t stride = oht.record_bytes();
    for (size_t off = 0; off + stride <= bucket.size(); off += stride) {
      const uint8_t* rec = bucket.data() + off;
      uint64_t k;
      std::memcpy(&k, rec + kSchema.key_offset, 8);
      const bool is_dummy = rec[kSchema.dummy_offset] != 0;
      const bool match = static_cast<bool>(static_cast<unsigned>(CtEq64(k, key)) &
                                           static_cast<unsigned>(!is_dummy));
      uint64_t v;
      std::memcpy(&v, rec + kValueOffset, 8);
      value = CtSelect64(match, v, value);
      found = static_cast<bool>(static_cast<unsigned>(found) | static_cast<unsigned>(match));
    }
  };
  scan(oht.Tier1Bucket(key));
  scan(oht.Tier2Bucket(key));
  *value_out = value;
  return found;
}

class OhtBatchSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(OhtBatchSizes, EveryKeyIsFindable) {
  const size_t n = GetParam();
  Rng rng(n + 5);
  std::set<uint64_t> key_set;
  while (key_set.size() < n) {
    key_set.insert(rng.Uniform(1u << 30));
  }
  std::vector<uint64_t> keys(key_set.begin(), key_set.end());

  TwoTierOht oht(kSchema, /*lambda=*/40);
  ASSERT_TRUE(oht.Build(MakeBatch(keys), rng));
  for (const uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(Lookup(oht, k, &v)) << "n=" << n << " key=" << k;
    ASSERT_EQ(v, k * 1000 + 7);
  }
  // Absent keys are not found.
  for (int i = 0; i < 50; ++i) {
    uint64_t absent = (1u << 30) + rng.Uniform(1000);
    uint64_t v = 0;
    ASSERT_FALSE(Lookup(oht, absent, &v));
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, OhtBatchSizes,
                         ::testing::Values(0, 1, 2, 5, 16, 17, 50, 128, 300, 1024, 4096));

TEST(TwoTierOht, RepeatedBuildsAlwaysSucceed) {
  // Construction aborts only with negligible probability; 100 random builds must pass.
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    std::set<uint64_t> key_set;
    while (key_set.size() < 256) {
      key_set.insert(rng.Next64());
    }
    TwoTierOht oht(kSchema, /*lambda=*/40);
    ASSERT_TRUE(
        oht.Build(MakeBatch(std::vector<uint64_t>(key_set.begin(), key_set.end())), rng))
        << "trial " << trial;
  }
}

TEST(TwoTierOht, ExtractAllReturnsExactlyTheBatch) {
  Rng rng(8);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 200; ++i) {
    keys.push_back(i * 3 + 1);
  }
  TwoTierOht oht(kSchema, 40);
  ASSERT_TRUE(oht.Build(MakeBatch(keys), rng));
  ByteSlab all = oht.ExtractAll();
  ASSERT_EQ(all.size(), keys.size());
  std::set<uint64_t> got;
  for (size_t i = 0; i < all.size(); ++i) {
    uint64_t k;
    std::memcpy(&k, all.Record(i), 8);
    EXPECT_EQ(all.Record(i)[kSchema.dummy_offset], 0);
    got.insert(k);
  }
  EXPECT_EQ(got, std::set<uint64_t>(keys.begin(), keys.end()));
}

TEST(TwoTierOht, ValuesSurviveInPlaceUpdatesThroughBuckets) {
  // The subORAM mutates bucket records through the returned spans; make sure updates
  // land in the extracted output.
  Rng rng(99);
  std::vector<uint64_t> keys = {10, 20, 30, 40, 50};
  TwoTierOht oht(kSchema, 40);
  ASSERT_TRUE(oht.Build(MakeBatch(keys), rng));
  // Overwrite the value for key 30 via its bucket.
  bool wrote = false;
  auto write_in = [&](std::span<uint8_t> bucket) {
    for (size_t off = 0; off + kStride <= bucket.size(); off += kStride) {
      uint8_t* rec = bucket.data() + off;
      uint64_t k;
      std::memcpy(&k, rec, 8);
      if (k == 30 && rec[kSchema.dummy_offset] == 0) {
        const uint64_t nv = 999;
        std::memcpy(rec + kValueOffset, &nv, 8);
        wrote = true;
      }
    }
  };
  write_in(oht.Tier1Bucket(30));
  write_in(oht.Tier2Bucket(30));
  ASSERT_TRUE(wrote);
  ByteSlab all = oht.ExtractAll();
  bool checked = false;
  for (size_t i = 0; i < all.size(); ++i) {
    uint64_t k;
    uint64_t v;
    std::memcpy(&k, all.Record(i), 8);
    std::memcpy(&v, all.Record(i) + kValueOffset, 8);
    if (k == 30) {
      EXPECT_EQ(v, 999u);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ChooseOhtParams, SoundAndNoWorseThanSingleTier) {
  for (const uint64_t n : {32ull, 256ull, 1024ull, 4096ull, 16384ull}) {
    const OhtParams two = ChooseOhtParams(n, 128);
    const OhtParams one = ChooseSingleTierParams(n, 128);
    EXPECT_LE(two.LookupCost(), one.z1) << "n=" << n;
    EXPECT_GE(two.bins1 * two.z1 + two.overflow_cap, n) << "capacity must cover the batch";
    EXPECT_LE(two.TotalSlots(), 8 * n) << "memory blowup bound";
  }
}

TEST(ChooseOhtParams, TinyBatchesUseOneBucket) {
  const OhtParams p = ChooseOhtParams(8, 128);
  EXPECT_EQ(p.bins1, 1u);
  EXPECT_EQ(p.z1, 8u);
  EXPECT_EQ(p.bins2, 0u);
}

class OhtSoundnessSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(OhtSoundnessSweep, BuildsNeverOverflowAndLookupsAlwaysHit) {
  const auto [n, lambda] = GetParam();
  Rng rng(n * 7 + lambda);
  for (int trial = 0; trial < 10; ++trial) {
    std::set<uint64_t> key_set;
    while (key_set.size() < n) {
      key_set.insert(rng.Next64() >> 1);
    }
    const std::vector<uint64_t> keys(key_set.begin(), key_set.end());
    TwoTierOht oht(kSchema, lambda);
    ASSERT_TRUE(oht.Build(MakeBatch(keys), rng)) << "n=" << n << " lambda=" << lambda;
    for (size_t i = 0; i < keys.size(); i += 1 + keys.size() / 16) {
      uint64_t v = 0;
      ASSERT_TRUE(Lookup(oht, keys[i], &v));
      ASSERT_EQ(v, keys[i] * 1000 + 7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OhtSoundnessSweep,
    ::testing::Combine(::testing::Values(64ull, 512ull, 2048ull),
                       ::testing::Values(40u, 80u, 128u)));

TEST(TwoTierOht, ConstructionTraceIndependentOfKeys) {
  // Same batch size, different key sets: construction must touch memory identically.
  auto trace_for = [](uint64_t seed) {
    Rng data_rng(seed);
    std::set<uint64_t> key_set;
    while (key_set.size() < 64) {
      key_set.insert(data_rng.Next64());
    }
    TwoTierOht oht(kSchema, 40);
    Rng build_rng(42);  // fixed build randomness isolates data-dependence
    TraceScope scope;
    EXPECT_TRUE(oht.Build(MakeBatch(std::vector<uint64_t>(key_set.begin(), key_set.end())),
                          build_rng));
    return scope.Digest();
  };
  EXPECT_EQ(trace_for(1), trace_for(2));
  EXPECT_EQ(trace_for(3), trace_for(4));
}

uint64_t Fnv1a(const ByteSlab& slab) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < slab.size() * slab.record_bytes(); ++i) {
    h = (h ^ slab.data()[i]) * 0x100000001b3ULL;
  }
  return h;
}

// Tier layouts at n = 17 (one tier), 2694 (batch_heavy's batch) and 4096 (the bucket
// route's size knee, so tier 1's reals-only sort can take the route), lambda 128. The
// digests were recorded from the append-then-sort-everything build; every strategy and
// thread count must reproduce them, with one construction trace per strategy.
TEST(TwoTierOht, TierBytesArePinned) {
  struct Pin {
    uint64_t n;
    uint64_t tier1;
    uint64_t tier2;
  };
  const Pin pins[] = {{17, 0x7a6896b77ddc50d3ULL, 0xcbf29ce484222325ULL},
                      {2694, 0x3e0aeb545b56f7ceULL, 0xc568a457feb90af6ULL},
                      {4096, 0xe160d0efe56d1860ULL, 0xc7b9f012869e585dULL}};
  for (const Pin& pin : pins) {
    Rng data_rng(pin.n);
    std::set<uint64_t> key_set;
    while (key_set.size() < pin.n) {
      key_set.insert(data_rng.Next64() >> 1);
    }
    const std::vector<uint64_t> keys(key_set.begin(), key_set.end());
    for (const SortStrategy strategy : {SortStrategy::kBitonic, SortStrategy::kBucket}) {
      uint64_t first_trace = 0;
      for (const int threads : {1, 2, 4}) {
        TwoTierOht oht(kSchema, kDefaultLambda);
        Rng build_rng(7);
        TraceScope scope;
        ASSERT_TRUE(oht.Build(MakeBatch(keys), build_rng, threads, strategy));
        const std::string where = "n=" + std::to_string(pin.n) + " " +
                                  SortStrategyName(strategy) + " threads=" +
                                  std::to_string(threads);
        EXPECT_EQ(Fnv1a(oht.tier1()), pin.tier1) << where;
        EXPECT_EQ(Fnv1a(oht.tier2()), pin.tier2) << where;
        if (threads == 1) {
          first_trace = scope.Digest();
        } else {
          EXPECT_EQ(scope.Digest(), first_trace) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snoopy
