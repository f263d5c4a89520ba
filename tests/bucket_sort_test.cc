// Differential and obliviousness tests for the bucket oblivious sort strategy
// (src/obl/bucket_sort.{h,cc}) and the common ObliviousSortSlab entry point:
//
//   1. Differential fuzz: bucket vs bitonic vs a plain reference sort over random,
//      adversarial (pre-sorted / reversed / single-bin), and duplicate-heavy keys,
//      at sizes straddling the kMinBucketRecords knee and misaligned slab strides.
//      With distinct (bin, key) pairs the two strategies must be BYTE-identical;
//      with duplicates they must both be correct (sorted + same record multiset).
//   2. Geometry/crossover unit checks for ChooseBucketParams / ResolveSortStrategy.
//   3. Trace identity: for each strategy, the enclave memory trace is byte-identical
//      at sort threads {1, 2, 4}; and a full deployment's epoch trace is identical
//      at epoch_threads {1, 2, 4} for a fixed strategy.
//   4. Twin deployments running the same request stream under kBitonic and kBucket
//      return identical response streams (strategy independence, ISSUE acceptance).
//   5. Overflow fallback: labels that violate the simulatable-bins attestation make
//      the routing overflow; release builds fall back to the bitonic network on the
//      untouched slab and still return fully sorted output.

#include "src/obl/bucket_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/reshard.h"
#include "src/core/snoopy.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/slab.h"

namespace snoopy {
namespace {

// Record layout used throughout: bin u32 at 0, key u64 at 4 (misaligned on
// purpose), payload filler to the stride.
constexpr size_t kBinOff = 0;
constexpr size_t kKeyOff = 4;

struct RefRec {
  uint32_t bin;
  uint64_t key;
  std::vector<uint8_t> bytes;
};

uint32_t BinOf(const uint8_t* rec) {
  uint32_t b;
  std::memcpy(&b, rec + kBinOff, 4);
  return b;
}

uint64_t KeyOf(const uint8_t* rec) {
  uint64_t k;
  std::memcpy(&k, rec + kKeyOff, 8);
  return k;
}

SecretBool KeyLess(const uint8_t* a, const uint8_t* b) {
  return LoadSecretU64(a, kKeyOff) < LoadSecretU64(b, kKeyOff);
}

enum class KeyShape { kRandom, kPresorted, kReversed, kDuplicateHeavy, kSingleBin };

ByteSlab MakeSlab(size_t n, size_t stride, uint64_t num_bins, KeyShape shape,
                  uint64_t seed) {
  ByteSlab slab(n, stride);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* rec = slab.Record(i);
    for (size_t off = 0; off < stride; ++off) {
      rec[off] = static_cast<uint8_t>(rng.Next64());
    }
    uint64_t key;
    uint32_t bin;
    switch (shape) {
      case KeyShape::kPresorted:
        key = i;
        bin = static_cast<uint32_t>((i * num_bins) / (n == 0 ? 1 : n));
        break;
      case KeyShape::kReversed:
        key = n - i;
        bin = static_cast<uint32_t>(((n - 1 - i) * num_bins) / (n == 0 ? 1 : n));
        break;
      case KeyShape::kDuplicateHeavy:
        key = rng.Uniform(1 + n / 8);
        bin = static_cast<uint32_t>(rng.Uniform(num_bins));
        break;
      case KeyShape::kSingleBin:
        key = rng.Next64();
        bin = 0;
        break;
      case KeyShape::kRandom:
      default:
        // Distinct keys with overwhelming probability; bins iid uniform -- the
        // simulatable-bins shape every eligible call site has.
        key = rng.Next64();
        bin = static_cast<uint32_t>(rng.Uniform(num_bins));
        break;
    }
    std::memcpy(rec + kBinOff, &bin, 4);
    std::memcpy(rec + kKeyOff, &key, 8);
  }
  return slab;
}

SortBinSpec SpecFor(uint64_t num_bins) {
  SortBinSpec spec;
  spec.bin_offset = kBinOff;
  spec.num_bins = num_bins;
  spec.bins_simulatable = true;
  spec.lambda = 40;
  return spec;
}

void SortWith(ByteSlab& slab, uint64_t num_bins, SortStrategy strategy, int threads) {
  ObliviousSortSlab(slab, SpecFor(num_bins), KeyLess, strategy, threads);
}

// Reference: stable sort of full-record byte strings under (bin, key). Stable so
// equal (bin, key) duplicates keep a canonical order for multiset comparison.
std::vector<RefRec> ReferenceSort(const ByteSlab& slab) {
  std::vector<RefRec> ref;
  ref.reserve(slab.size());
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint8_t* rec = slab.Record(i);
    ref.push_back(RefRec{BinOf(rec), KeyOf(rec),
                         std::vector<uint8_t>(rec, rec + slab.record_bytes())});
  }
  std::stable_sort(ref.begin(), ref.end(), [](const RefRec& a, const RefRec& b) {
    if (a.bin != b.bin) return a.bin < b.bin;
    if (a.key != b.key) return a.key < b.key;
    return a.bytes < b.bytes;  // totalize for multiset comparison only
  });
  return ref;
}

void ExpectSortedAndSamePopulation(const ByteSlab& input, const ByteSlab& sorted) {
  ASSERT_EQ(input.size(), sorted.size());
  for (size_t i = 1; i < sorted.size(); ++i) {
    const uint8_t* prev = sorted.Record(i - 1);
    const uint8_t* cur = sorted.Record(i);
    ASSERT_TRUE(BinOf(prev) < BinOf(cur) ||
                (BinOf(prev) == BinOf(cur) && KeyOf(prev) <= KeyOf(cur)))
        << "order violated at i=" << i;
  }
  // Same record multiset, byte-for-byte.
  const std::vector<RefRec> want = ReferenceSort(input);
  const std::vector<RefRec> got = ReferenceSort(sorted);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].bytes, got[i].bytes) << "record multiset differs at i=" << i;
  }
}

TEST(BucketSortGeometry, ChoosesViableParamsAboveTheKnee) {
  const BucketSortParams p = ChooseBucketParams(1u << 16, 256, 40);
  ASSERT_TRUE(p.ok);
  EXPECT_GE(p.buckets, 2u);
  EXPECT_EQ(p.buckets, uint64_t{1} << p.levels);
  EXPECT_GE(p.capacity, 2 * ((uint64_t{1} << 16) / p.buckets));
  // Below the knee: never viable (arena setup dominates).
  EXPECT_FALSE(ChooseBucketParams(1024, 64, 40).ok);
  EXPECT_FALSE(ChooseBucketParams(1u << 16, 1, 40).ok);
}

TEST(BucketSortGeometry, ResolveHonorsEligibilityGates) {
  const SortBinSpec spec = SpecFor(64);
  BucketSortParams params;
  // Forced bucket with viable geometry resolves to bucket.
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 1u << 14, 24, &spec, &params),
            SortStrategy::kBucket);
  EXPECT_TRUE(params.ok);
  // No spec, non-simulatable bins, or tiny n always resolve to bitonic.
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 1u << 14, 24, nullptr, nullptr),
            SortStrategy::kBitonic);
  SortBinSpec leaky = spec;
  leaky.bins_simulatable = false;
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 1u << 14, 24, &leaky, nullptr),
            SortStrategy::kBitonic);
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 100, 24, &spec, nullptr),
            SortStrategy::kBitonic);
  // The packed scalar ABI agrees with the struct ABI.
  const uint64_t packed = ResolveSortStrategyPacked(
      static_cast<uint8_t>(SortStrategy::kBucket), 1u << 14, 24, 64, 1, 40);
  ASSERT_EQ(packed & 1u, 1u);
  EXPECT_EQ(uint64_t{1} << ((packed >> 1) & 0x3f), params.buckets);
  EXPECT_EQ(packed >> 8, params.capacity);
}

TEST(BucketSortGeometry, AutoPicksBucketAtLargeNAndBitonicWhenRoutingCannotPay) {
  // This test pins the *pure* kAuto crossover; neutralize the process-wide
  // SNOOPY_SORT_STRATEGY override (CI reruns the whole suite with it set to
  // bucket, which legitimately flips the few-bins case below).
  const char* forced = getenv("SNOOPY_SORT_STRATEGY");
  const std::string saved = forced ? forced : "";
  ASSERT_EQ(unsetenv("SNOOPY_SORT_STRATEGY"), 0);
  const SortBinSpec spec = SpecFor(1u << 10);
  // At 2^20 the pass model puts bucket far ahead of even the blocked bitonic.
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kAuto, 1u << 20, 24, &spec, nullptr),
            SortStrategy::kBucket);
  // Below the knee the eligibility gate alone keeps bitonic.
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kAuto, 2048, 24, &spec, nullptr),
            SortStrategy::kBitonic);
  // Few bins => at most a couple of butterfly levels and huge per-bucket cleanup
  // sorts: the crossover model (with its safety margin) keeps bitonic even though
  // the geometry is viable.
  const SortBinSpec few_bins = SpecFor(4);
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kAuto, 4096, 24, &few_bins, nullptr),
            SortStrategy::kBitonic);
  if (forced != nullptr) {
    ASSERT_EQ(setenv("SNOOPY_SORT_STRATEGY", saved.c_str(), 1), 0);
  }
}

class BucketSortDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BucketSortDifferential, MatchesBitonicAndReference) {
  const size_t n = std::get<0>(GetParam());
  const size_t stride = std::get<1>(GetParam());
  const uint64_t num_bins = 64;
  for (const KeyShape shape :
       {KeyShape::kRandom, KeyShape::kPresorted, KeyShape::kReversed,
        KeyShape::kDuplicateHeavy, KeyShape::kSingleBin}) {
    const uint64_t seed = n * 131 + stride * 7 + static_cast<uint64_t>(shape);
    const ByteSlab input = MakeSlab(n, stride, num_bins, shape, seed);

    ByteSlab bitonic = input;
    SortWith(bitonic, num_bins, SortStrategy::kBitonic, 1);
    ByteSlab bucket = input;
    SortWith(bucket, num_bins, SortStrategy::kBucket, 1);

    ExpectSortedAndSamePopulation(input, bitonic);
    ExpectSortedAndSamePopulation(input, bucket);

    // Distinct (bin, key) pairs make the order total: both strategies must emit
    // identical bytes (the strategy-independence acceptance criterion). Duplicate
    // shapes only promise equal multisets, checked above.
    if (shape != KeyShape::kDuplicateHeavy) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(bitonic.Record(i), bucket.Record(i), stride), 0)
            << "strategy outputs diverge: shape=" << static_cast<int>(shape)
            << " n=" << n << " stride=" << stride << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndStrides, BucketSortDifferential,
    ::testing::Combine(
        // Straddles the kMinBucketRecords = 4096 knee: below it the bucket request
        // silently falls back to bitonic (still must be correct); at and above it
        // the butterfly actually routes.
        ::testing::Values(0, 1, 2, 17, 1023, 4095, 4096, 5000, 8192),
        // Misaligned strides: the key at offset 4 is never 8-aligned, and 17/49
        // make every record boundary odd.
        ::testing::Values(17, 24, 49, 208)));

TEST(BucketSort, MultithreadedMatchesSequentialOutput) {
  const uint64_t num_bins = 128;
  const ByteSlab input = MakeSlab(8192, 24, num_bins, KeyShape::kRandom, 5);
  ByteSlab seq = input;
  SortWith(seq, num_bins, SortStrategy::kBucket, 1);
  for (const int threads : {2, 4}) {
    ByteSlab par = input;
    SortWith(par, num_bins, SortStrategy::kBucket, threads);
    for (size_t i = 0; i < par.size(); ++i) {
      ASSERT_EQ(std::memcmp(seq.Record(i), par.Record(i), par.record_bytes()), 0)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(BucketSort, TraceIsByteIdenticalAcrossThreadCountsPerStrategy) {
  // ISSUE acceptance: for a fixed strategy the enclave trace must be byte-identical
  // at any thread count. The bucket trace includes the per-record kDeclassify
  // stream, per-pair kBucketScan events (ascending pair order via the fork-join
  // buffer merge), the cleanup kCondSwap stream, and the emission kAppends.
  for (const SortStrategy strategy : {SortStrategy::kBitonic, SortStrategy::kBucket}) {
    auto trace_for = [&](int threads) {
      ByteSlab slab = MakeSlab(8192, 24, 64, KeyShape::kRandom, 17);
      TraceScope scope;
      SortWith(slab, 64, strategy, threads);
      return scope.Events();
    };
    const std::vector<TraceEvent> sequential = trace_for(1);
    for (const int threads : {2, 4}) {
      EXPECT_TRUE(NonVacuousTraceEq(sequential, trace_for(threads)))
          << "strategy=" << SortStrategyName(strategy) << " threads=" << threads;
    }
  }
}

TEST(BucketSort, TraceShapeIsDataIndependentGivenLabels) {
  // With the same (public) label multiset but different record contents and
  // orders, the full memory trace digest must not change: nothing but the
  // declassified labels steers the access pattern.
  auto digest_for = [](uint64_t seed) {
    // Same per-bin histogram regardless of seed: bin = i % 64 before shuffling
    // record order with the seeded rng.
    const size_t n = 8192;
    ByteSlab slab = MakeSlab(n, 24, 64, KeyShape::kRandom, seed);
    std::vector<uint32_t> bins(n);
    for (size_t i = 0; i < n; ++i) {
      bins[i] = static_cast<uint32_t>(i % 64);
    }
    Rng rng(seed * 3 + 1);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(bins[i], bins[rng.Uniform(i + 1)]);
    }
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(slab.Record(i) + kBinOff, &bins[i], 4);
    }
    TraceScope scope;
    SortWith(slab, 64, SortStrategy::kBucket, 1);
    return MemoryTraceDigest(scope.Events());
  };
  EXPECT_EQ(digest_for(1), digest_for(2));
  EXPECT_EQ(digest_for(2), digest_for(99));
}

#ifdef NDEBUG
TEST(BucketSort, RouteOverflowFallsBackToBitonic) {
  // Every record in bin 0 violates the simulatable-bins attestation: the butterfly
  // cannot spread the load and a bucket overflows during routing (debug builds
  // treat this as fatal; release builds surface the public fallback). The entry
  // point must still return fully sorted output via the bitonic network.
  const uint64_t num_bins = 64;
  const ByteSlab input = MakeSlab(8192, 24, num_bins, KeyShape::kSingleBin, 23);
  ByteSlab sorted = input;
  SortWith(sorted, num_bins, SortStrategy::kBucket, 1);
  ExpectSortedAndSamePopulation(input, sorted);
  ByteSlab bitonic = input;
  SortWith(bitonic, num_bins, SortStrategy::kBitonic, 1);
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(std::memcmp(sorted.Record(i), bitonic.Record(i), sorted.record_bytes()), 0)
        << i;
  }
}
#endif  // NDEBUG

TEST(BucketSort, ReshardPartitionsAreStrategyIndependent) {
  // PartitionSlabByBin routed through the bucket strategy must produce exactly the
  // partitions the bitonic path produces: same sizes, same bytes.
  ByteSlab records(6000, 8 + 16);
  Rng rng(29);
  for (size_t i = 0; i < records.size(); ++i) {
    uint8_t* rec = records.Record(i);
    const uint64_t key = i * 0x9e3779b97f4a7c15ull + 1;  // distinct keys
    std::memcpy(rec, &key, 8);
    for (size_t off = 8; off < records.record_bytes(); ++off) {
      rec[off] = static_cast<uint8_t>(rng.Next64());
    }
  }
  SipKey pkey{};
  for (size_t i = 0; i < pkey.size(); ++i) {
    pkey[i] = static_cast<uint8_t>(i * 11 + 3);
  }
  const std::vector<ByteSlab> bitonic =
      PartitionSlabByBin(records, pkey, 16, 16, SortStrategy::kBitonic, 40);
  const std::vector<ByteSlab> bucket =
      PartitionSlabByBin(records, pkey, 16, 16, SortStrategy::kBucket, 40);
  ASSERT_EQ(bitonic.size(), bucket.size());
  for (size_t p = 0; p < bitonic.size(); ++p) {
    ASSERT_EQ(bitonic[p].size(), bucket[p].size()) << "partition " << p;
    for (size_t i = 0; i < bitonic[p].size(); ++i) {
      ASSERT_EQ(std::memcmp(bitonic[p].Record(i), bucket[p].Record(i),
                            bitonic[p].record_bytes()),
                0)
          << "partition " << p << " record " << i;
    }
  }
}

// ---- Twin deployments: full stores under each strategy ----

std::vector<uint8_t> Val(uint64_t tag, size_t value_size) {
  std::vector<uint8_t> v(value_size, 0);
  std::memcpy(v.data(), &tag, 8);
  return v;
}

uint64_t TagOf(const std::vector<uint8_t>& v) {
  uint64_t t = 0;
  std::memcpy(&t, v.data(), 8);
  return t;
}

// Forces `strategy` through SNOOPY_SORT_STRATEGY for the guard's lifetime (the
// deployment configures kAuto; the override is how a caller pins a strategy), then
// restores the caller's setting, which CI's forced-bucket stage sets.
class ScopedSortStrategy {
 public:
  explicit ScopedSortStrategy(SortStrategy strategy) {
    const char* saved = getenv("SNOOPY_SORT_STRATEGY");
    had_saved_ = saved != nullptr;
    saved_ = had_saved_ ? saved : "";
    setenv("SNOOPY_SORT_STRATEGY", SortStrategyName(strategy), 1);
  }
  ~ScopedSortStrategy() {
    if (had_saved_) {
      setenv("SNOOPY_SORT_STRATEGY", saved_.c_str(), 1);
    } else {
      unsetenv("SNOOPY_SORT_STRATEGY");
    }
  }
  ScopedSortStrategy(const ScopedSortStrategy&) = delete;
  ScopedSortStrategy& operator=(const ScopedSortStrategy&) = delete;

 private:
  bool had_saved_ = false;
  std::string saved_;
};

// Enough objects that the subORAM build sorts cross the kMinBucketRecords knee and
// the bucket butterfly genuinely runs inside the deployment.
constexpr uint64_t kTwinObjects = 6000;
constexpr size_t kTwinValueSize = 16;

std::vector<std::pair<uint64_t, uint64_t>> RunTwin(SortStrategy strategy,
                                                   int epoch_threads,
                                                   uint64_t* trace_digest) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 1;
  cfg.num_suborams = 1;
  cfg.value_size = kTwinValueSize;
  cfg.lambda = 40;
  const ScopedSortStrategy forced(strategy);
  cfg.epoch_threads = epoch_threads;
  Snoopy store(cfg, 83);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  objects.reserve(kTwinObjects);
  for (uint64_t k = 0; k < kTwinObjects; ++k) {
    objects.emplace_back(k, Val(k + 1, kTwinValueSize));
  }
  store.Initialize(objects);

  Rng rng(59);
  uint64_t seq = 1;
  std::vector<std::pair<uint64_t, uint64_t>> responses;
  TraceScope scope;
  for (int e = 0; e < 2; ++e) {
    for (int i = 0; i < 12; ++i) {
      const uint64_t key = rng.Uniform(kTwinObjects);
      if (rng.Uniform(2) == 0) {
        store.SubmitWrite(1, seq, key, Val(seq ^ 0xabcd, kTwinValueSize));
      } else {
        store.SubmitRead(1, seq, key);
      }
      ++seq;
    }
    for (const ClientResponse& resp : store.RunEpoch()) {
      responses.emplace_back(resp.client_seq, TagOf(resp.value));
    }
  }
  if (trace_digest != nullptr) {
    *trace_digest = MemoryTraceDigest(scope.Events());
  }
  return responses;
}

TEST(BucketSortTwin, ResponsesAreStrategyIndependent) {
  const auto bitonic = RunTwin(SortStrategy::kBitonic, 1, nullptr);
  const auto bucket = RunTwin(SortStrategy::kBucket, 1, nullptr);
  ASSERT_FALSE(bitonic.empty());
  EXPECT_EQ(bitonic, bucket)
      << "twin deployments diverged: response streams must not depend on the sort "
         "strategy";
}

TEST(BucketSortTwin, EpochTraceIsThreadCountInvariantPerStrategy) {
  for (const SortStrategy strategy : {SortStrategy::kBitonic, SortStrategy::kBucket}) {
    uint64_t d1 = 0;
    const auto r1 = RunTwin(strategy, 1, &d1);
    for (const int epoch_threads : {2, 4}) {
      uint64_t dn = 0;
      const auto rn = RunTwin(strategy, epoch_threads, &dn);
      EXPECT_EQ(r1, rn) << "strategy=" << SortStrategyName(strategy)
                        << " epoch_threads=" << epoch_threads;
      EXPECT_EQ(d1, dn) << "trace changed with thread count: strategy="
                        << SortStrategyName(strategy)
                        << " epoch_threads=" << epoch_threads;
    }
  }
}

TEST(BucketSort, EnvOverrideSelectsStrategy) {
  // SNOOPY_SORT_STRATEGY overrides the configured strategy at resolve time.
  const SortBinSpec spec = SpecFor(64);
  ASSERT_EQ(setenv("SNOOPY_SORT_STRATEGY", "bucket", 1), 0);
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBitonic, 1u << 14, 24, &spec, nullptr),
            SortStrategy::kBucket);
  ASSERT_EQ(setenv("SNOOPY_SORT_STRATEGY", "bitonic", 1), 0);
  EXPECT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 1u << 14, 24, &spec, nullptr),
            SortStrategy::kBitonic);
  ASSERT_EQ(unsetenv("SNOOPY_SORT_STRATEGY"), 0);
}

}  // namespace
}  // namespace snoopy
