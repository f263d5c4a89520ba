#include "src/obl/bin_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/core/load_balancer.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"

namespace snoopy {
namespace {

// Test record layout: key(8) | bin(4) | dummy(1) | pad(3) | order(8) | dedup(8)
constexpr size_t kStride = 32;
constexpr BinSchema kSchema{/*bin_offset=*/8, /*dummy_offset=*/12, /*order_offset=*/16,
                            /*dedup_offset=*/24};

void SetField64(uint8_t* rec, size_t off, uint64_t v) { std::memcpy(rec + off, &v, 8); }
uint64_t GetField64(const uint8_t* rec, size_t off) {
  uint64_t v;
  std::memcpy(&v, rec + off, 8);
  return v;
}
void SetBin(uint8_t* rec, uint32_t bin) { std::memcpy(rec + kSchema.bin_offset, &bin, 4); }
uint32_t GetBin(const uint8_t* rec) {
  uint32_t v;
  std::memcpy(&v, rec + kSchema.bin_offset, 4);
  return v;
}

ByteSlab MakeRequests(const std::vector<std::pair<uint64_t, uint32_t>>& key_bins) {
  ByteSlab slab(key_bins.size(), kStride);
  for (size_t i = 0; i < key_bins.size(); ++i) {
    uint8_t* rec = slab.Record(i);
    SetField64(rec, 0, key_bins[i].first);
    SetBin(rec, key_bins[i].second);
    rec[kSchema.dummy_offset] = 0;
    SetField64(rec, kSchema.order_offset, i);
    SetField64(rec, kSchema.dedup_offset, key_bins[i].first);
  }
  return slab;
}

void MakeDummy(uint8_t* rec) { SetField64(rec, 0, ~uint64_t{0}); }

TEST(BinPlacement, PlacesEachRecordInItsBin) {
  // 7 records over 3 bins, capacity 4.
  ByteSlab slab = MakeRequests({{10, 0}, {11, 1}, {12, 2}, {13, 0}, {14, 1}, {15, 0}, {16, 2}});
  BinPlacementOptions opts;
  opts.num_bins = 3;
  opts.bin_capacity = 4;
  const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.placed, 7u);
  ASSERT_EQ(slab.size(), 12u);

  std::map<uint32_t, std::vector<uint64_t>> bins;
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint8_t* rec = slab.Record(i);
    const uint32_t expected_bin = static_cast<uint32_t>(i / 4);
    EXPECT_EQ(GetBin(rec), expected_bin) << "slot " << i;
    if (rec[kSchema.dummy_offset] == 0) {
      bins[expected_bin].push_back(GetField64(rec, 0));
    }
  }
  EXPECT_EQ(bins[0], (std::vector<uint64_t>{10, 13, 15}));
  EXPECT_EQ(bins[1], (std::vector<uint64_t>{11, 14}));
  EXPECT_EQ(bins[2], (std::vector<uint64_t>{12, 16}));
}

TEST(BinPlacement, RealsPrecedeDummiesWithinBin) {
  ByteSlab slab = MakeRequests({{5, 0}, {6, 0}});
  BinPlacementOptions opts;
  opts.num_bins = 1;
  opts.bin_capacity = 5;
  ASSERT_TRUE(ObliviousBinPlacement(slab, kSchema, opts, MakeDummy).ok);
  ASSERT_EQ(slab.size(), 5u);
  EXPECT_EQ(slab.Record(0)[kSchema.dummy_offset], 0);
  EXPECT_EQ(slab.Record(1)[kSchema.dummy_offset], 0);
  EXPECT_EQ(slab.Record(2)[kSchema.dummy_offset], 1);
  EXPECT_EQ(slab.Record(3)[kSchema.dummy_offset], 1);
  EXPECT_EQ(slab.Record(4)[kSchema.dummy_offset], 1);
}

TEST(BinPlacement, OverflowIsReported) {
  ByteSlab slab = MakeRequests({{1, 0}, {2, 0}, {3, 0}});
  BinPlacementOptions opts;
  opts.num_bins = 2;
  opts.bin_capacity = 2;  // bin 0 gets 3 records > 2
  const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(slab.size(), 4u);  // output shape is unchanged by the failure (public)
}

TEST(BinPlacement, DedupKeepsSurvivorOnly) {
  // Three requests for key 42 with orders 2,0,1; survivor must be order 0 (the caller
  // encodes "survivor-first" in the order field, e.g. latest write first).
  ByteSlab slab(0, kStride);
  const uint64_t orders[3] = {2, 0, 1};
  for (int i = 0; i < 3; ++i) {
    uint8_t* rec = slab.AppendZero();
    SetField64(rec, 0, 100 + orders[i]);  // distinct payload marker per duplicate
    SetBin(rec, 0);
    rec[kSchema.dummy_offset] = 0;
    SetField64(rec, kSchema.order_offset, orders[i]);
    SetField64(rec, kSchema.dedup_offset, 42);  // same dedup key: duplicates
  }
  // Plus one non-duplicate.
  {
    uint8_t* rec = slab.AppendZero();
    SetField64(rec, 0, 7);
    SetBin(rec, 0);
    rec[kSchema.dummy_offset] = 0;
    SetField64(rec, kSchema.order_offset, 9);
    SetField64(rec, kSchema.dedup_offset, 7);
  }
  BinPlacementOptions opts;
  opts.num_bins = 1;
  opts.bin_capacity = 3;
  opts.dedup = true;
  const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.placed, 2u);  // survivor of the dup group + the single request
  ASSERT_EQ(slab.size(), 3u);
  // Output is ordered by dedup key within the bin (7 < 42); the dup group's survivor
  // is the order-0 duplicate (payload marker 100).
  EXPECT_EQ(GetField64(slab.Record(0), 0), 7u);
  EXPECT_EQ(GetField64(slab.Record(1), 0), 100u);
  EXPECT_EQ(slab.Record(2)[kSchema.dummy_offset], 1);
}

TEST(BinPlacement, DedupPreventsOverflowFromSkew) {
  // 100 requests, all for the same key: after dedup one slot suffices (the paper's
  // skew argument in section 4.1).
  std::vector<std::pair<uint64_t, uint32_t>> reqs(100, {77, 1});
  ByteSlab slab = MakeRequests(reqs);
  // dedup keys must all match for dedup to fire (MakeRequests sets dedup = key).
  BinPlacementOptions opts;
  opts.num_bins = 4;
  opts.bin_capacity = 2;
  opts.dedup = true;
  const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.placed, 1u);
}

TEST(BinPlacement, RandomizedAgainstReferenceModel) {
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t m = static_cast<uint32_t>(1 + rng.Uniform(8));
    const uint32_t z = static_cast<uint32_t>(1 + rng.Uniform(10));
    const size_t n = rng.Uniform(m * z + 5);
    std::vector<std::pair<uint64_t, uint32_t>> reqs;
    std::map<uint32_t, std::vector<uint64_t>> expected;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = 1000 + i;
      const auto bin = static_cast<uint32_t>(rng.Uniform(m));
      reqs.push_back({key, bin});
      expected[bin].push_back(key);
    }
    bool should_fail = false;
    for (auto& [bin, keys] : expected) {
      if (keys.size() > z) {
        should_fail = true;
      }
    }
    ByteSlab slab = MakeRequests(reqs);
    BinPlacementOptions opts;
    opts.num_bins = m;
    opts.bin_capacity = z;
    const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
    ASSERT_EQ(r.ok, !should_fail) << "trial=" << trial;
    ASSERT_EQ(slab.size(), size_t{m} * z);
    if (should_fail) {
      continue;
    }
    for (uint32_t b = 0; b < m; ++b) {
      std::vector<uint64_t> got;
      for (uint32_t j = 0; j < z; ++j) {
        const uint8_t* rec = slab.Record(b * z + j);
        if (rec[kSchema.dummy_offset] == 0) {
          got.push_back(GetField64(rec, 0));
        }
      }
      ASSERT_EQ(got, expected[b]) << "trial=" << trial << " bin=" << b;
    }
  }
}

TEST(BinPlacement, TraceIndependentOfAssignment) {
  // Same n, m, z, different secret bin assignments: identical traces.
  auto trace_for = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<uint64_t, uint32_t>> reqs;
    for (size_t i = 0; i < 40; ++i) {
      reqs.push_back({i, static_cast<uint32_t>(rng.Uniform(4))});
    }
    ByteSlab slab = MakeRequests(reqs);
    BinPlacementOptions opts;
    opts.num_bins = 4;
    opts.bin_capacity = 40;  // capacity large enough that neither input overflows
    TraceScope scope;
    ObliviousBinPlacement(slab, kSchema, opts, MakeDummy);
    return scope.Digest();
  };
  EXPECT_EQ(trace_for(1), trace_for(2));
  EXPECT_EQ(trace_for(3), trace_for(17));
}

// ---- The padded sort (PaddedBinSort) ----

// Bin placement's within-bin order over kSchema: (dummy, dedup, order).
SecretBool PlacementLess(const uint8_t* a, const uint8_t* b) {
  const SecretU64 a1 = Widen(LoadSecretU8(a, kSchema.dummy_offset)) & 1;
  const SecretU64 b1 = Widen(LoadSecretU8(b, kSchema.dummy_offset)) & 1;
  const SecretU64 a2 = LoadSecretU64(a, kSchema.dedup_offset);
  const SecretU64 b2 = LoadSecretU64(b, kSchema.dedup_offset);
  const SecretU64 a3 = LoadSecretU64(a, kSchema.order_offset);
  const SecretU64 b3 = LoadSecretU64(b, kSchema.order_offset);
  return (a1 < b1) | ((a1 == b1) & ((a2 < b2) | ((a2 == b2) & (a3 < b3))));
}

// Bin placement's padding dummy, with a per-dummy payload so a misplaced dummy shows.
void PlacementDummy(uint8_t* rec, uint64_t bin, uint64_t counter) {
  SetField64(rec, 0, (uint64_t{1} << 62) | counter);
  SetBin(rec, static_cast<uint32_t>(bin));
  rec[kSchema.dummy_offset] = 1;
  SetField64(rec, kSchema.order_offset, ~uint64_t{0});
  SetField64(rec, kSchema.dedup_offset, ~uint64_t{0} - counter);
}

SortBinSpec PlacementSpec(uint64_t m) {
  SortBinSpec spec;
  spec.bin_offset = kSchema.bin_offset;
  spec.num_bins = m;
  spec.bins_simulatable = true;
  return spec;
}

// The reference the padded sort replaced: append every bin's padding in call order,
// then sort reals and padding together.
void AppendThenSortAll(ByteSlab& slab, uint64_t m, uint64_t z, SortStrategy strategy) {
  for (uint64_t b = 0; b < m; ++b) {
    for (uint64_t j = 0; j < z; ++j) {
      PlacementDummy(slab.AppendZero(), b, b * z + j);
    }
  }
  ObliviousSortSlab(slab, PlacementSpec(m), PlacementLess, strategy, /*threads=*/1);
}

enum class Dups { kNone, kSome, kAll };

struct PaddedCase {
  size_t n_real;
  uint32_t m;
  uint32_t z;
  Dups dups;
  SortStrategy strategy;
};

// n_real distinct-order records with uniform bins. Duplicate groups share a dedup key
// and a bin, as the load balancer's same-key requests do; kAll makes one group.
ByteSlab FuzzRecords(const PaddedCase& c, Rng& rng) {
  ByteSlab slab(c.n_real, kStride);
  const uint64_t all_bin = rng.Uniform(c.m);
  for (size_t i = 0; i < c.n_real; ++i) {
    uint8_t* rec = slab.Record(i);
    uint64_t dedup = 1000 + i;
    if (c.dups == Dups::kSome) {
      dedup = 1000 + rng.Uniform(c.n_real / 2 + 1);
    } else if (c.dups == Dups::kAll) {
      dedup = 77;
    }
    const uint64_t bin = c.dups == Dups::kAll ? all_bin : (dedup * 0x9e3779b97f4a7c15ULL) % c.m;
    SetField64(rec, 0, rng.Next64() >> 2);  // payload
    SetBin(rec, static_cast<uint32_t>(bin));
    rec[kSchema.dummy_offset] = 0;
    SetField64(rec, kSchema.order_offset, (rng.Next64() & ~uint64_t{0xffff}) | i);
    SetField64(rec, kSchema.dedup_offset, dedup);
  }
  return slab;
}

std::vector<PaddedCase> PaddedCases() {
  std::vector<PaddedCase> cases = {
      {0, 1, 1, Dups::kNone, SortStrategy::kBitonic},
      {0, 5, 3, Dups::kNone, SortStrategy::kAuto},
      {1, 1, 1, Dups::kNone, SortStrategy::kBitonic},
      {7, 1, 9, Dups::kSome, SortStrategy::kBitonic},
      {9, 4, 1, Dups::kNone, SortStrategy::kBitonic},
      {60, 3, 4, Dups::kAll, SortStrategy::kBitonic},
      {40, 2, 8, Dups::kNone, SortStrategy::kBitonic},  // overflows both bins
      // Past the bucket route's size knee, so the reals-only sort takes the route.
      {5000, 64, 120, Dups::kNone, SortStrategy::kBucket},
      {5000, 64, 120, Dups::kSome, SortStrategy::kAuto},
  };
  Rng rng(2024);
  const SortStrategy strategies[] = {SortStrategy::kBitonic, SortStrategy::kBucket,
                                     SortStrategy::kAuto};
  const Dups dups[] = {Dups::kNone, Dups::kSome, Dups::kAll};
  for (int trial = 0; trial < 200; ++trial) {
    cases.push_back({rng.Uniform(300), static_cast<uint32_t>(1 + rng.Uniform(16)),
                     static_cast<uint32_t>(1 + rng.Uniform(24)), dups[rng.Uniform(3)],
                     strategies[rng.Uniform(3)]});
  }
  return cases;
}

std::vector<uint8_t> Bytes(const ByteSlab& slab) {
  return std::vector<uint8_t>(slab.data(), slab.data() + slab.size() * slab.record_bytes());
}

TEST(PaddedBinSort, MatchesAppendThenSortAll) {
  Rng rng(99);
  for (const PaddedCase& c : PaddedCases()) {
    ByteSlab merged = FuzzRecords(c, rng);
    ByteSlab reference = merged;
    PaddedBinSort(merged, PlacementSpec(c.m), c.z, PlacementLess, PlacementDummy, c.strategy,
                  /*threads=*/1);
    AppendThenSortAll(reference, c.m, c.z, c.strategy);
    ASSERT_EQ(merged.size(), c.n_real + size_t{c.m} * c.z);
    ASSERT_EQ(Bytes(merged), Bytes(reference))
        << "n_real=" << c.n_real << " m=" << c.m << " z=" << c.z
        << " dups=" << static_cast<int>(c.dups)
        << " strategy=" << SortStrategyName(c.strategy);
  }
}

// Every 0/1 input the merge can receive -- a descending run 1^p 0^(a-p) followed by an
// ascending run 0^(b-q) 1^q -- for every split a + b <= 64. By the 0/1 principle the
// merge then sorts every descending-then-ascending input of those lengths.
TEST(PaddedBinSort, MergeSortsEveryZeroOneSplit) {
  std::vector<uint8_t> v;
  for (size_t n = 0; n <= 64; ++n) {
    for (size_t a = 0; a <= n; ++a) {
      const size_t b = n - a;
      for (size_t p = 0; p <= a; ++p) {
        for (size_t q = 0; q <= b; ++q) {
          v.assign(n, 0);
          std::fill(v.begin(), v.begin() + p, 1);
          std::fill(v.end() - q, v.end(), 1);
          internal::BitonicMerge(
              0, n, /*asc=*/true,
              [&](size_t i, size_t j, bool asc) {
                if (asc ? v[i] > v[j] : v[i] < v[j]) {
                  std::swap(v[i], v[j]);
                }
              },
              /*threads=*/1);
          ASSERT_TRUE(std::is_sorted(v.begin(), v.end()))
              << "a=" << a << " b=" << b << " p=" << p << " q=" << q;
        }
      }
    }
  }
}

TEST(PaddedBinSort, BytesAndTraceIdenticalAcrossThreadCounts) {
  const SortBinSpec spec = PlacementSpec(64);
  BucketSortParams params;
  ASSERT_EQ(ResolveSortStrategy(SortStrategy::kBucket, 5000, kStride, &spec, &params),
            SortStrategy::kBucket);
  for (const SortStrategy strategy : {SortStrategy::kBitonic, SortStrategy::kBucket}) {
    std::vector<uint8_t> first_bytes;
    uint64_t first_trace = 0;
    for (const int threads : {1, 2, 4}) {
      Rng rng(5);
      ByteSlab slab = FuzzRecords({5000, 64, 120, Dups::kSome, strategy}, rng);
      TraceScope scope;
      PaddedBinSort(slab, spec, 120, PlacementLess, PlacementDummy, strategy, threads);
      if (threads == 1) {
        first_bytes = Bytes(slab);
        first_trace = scope.Digest();
        continue;
      }
      EXPECT_EQ(Bytes(slab), first_bytes) << SortStrategyName(strategy) << " at " << threads;
      EXPECT_EQ(scope.Digest(), first_trace) << SortStrategyName(strategy) << " at " << threads;
    }
  }
}

// A plain model of Figure 5 over kSchema records: per bin, the reals in (dedup, order)
// order, duplicates dropped when dedup is on, the first z kept, then the bin's
// padding dummies in sorted order (descending counter) up to z.
struct ModelResult {
  bool ok = true;
  uint64_t placed = 0;
  ByteSlab slab;
};

ModelResult PlacementModel(const ByteSlab& reals, uint32_t m, uint32_t z, bool dedup) {
  ModelResult out;
  out.slab = ByteSlab(size_t{m} * z, kStride);
  for (uint32_t b = 0; b < m; ++b) {
    std::vector<const uint8_t*> bin;
    for (size_t i = 0; i < reals.size(); ++i) {
      if (GetBin(reals.Record(i)) == b) {
        bin.push_back(reals.Record(i));
      }
    }
    std::sort(bin.begin(), bin.end(), [](const uint8_t* x, const uint8_t* y) {
      return std::make_tuple(GetField64(x, kSchema.dedup_offset),
                             GetField64(x, kSchema.order_offset)) <
             std::make_tuple(GetField64(y, kSchema.dedup_offset),
                             GetField64(y, kSchema.order_offset));
    });
    std::vector<const uint8_t*> survivors;
    for (const uint8_t* rec : bin) {
      if (!dedup || survivors.empty() ||
          GetField64(survivors.back(), kSchema.dedup_offset) !=
              GetField64(rec, kSchema.dedup_offset)) {
        survivors.push_back(rec);
      }
    }
    out.ok = out.ok && survivors.size() <= z;
    const size_t kept = std::min<size_t>(survivors.size(), z);
    out.placed += kept;
    for (size_t t = 0; t < z; ++t) {
      uint8_t* slot = out.slab.Record(b * z + t);
      if (t < kept) {
        std::memcpy(slot, survivors[t], kStride);
      } else {
        PlacementDummy(slot, b, uint64_t{b} * z + (z - 1 - (t - kept)));
      }
    }
  }
  return out;
}

TEST(BinPlacement, MatchesPlainModelIncludingOverflowAndDuplicates) {
  Rng rng(7);
  for (const PaddedCase& c : PaddedCases()) {
    for (const bool dedup : {false, true}) {
      ByteSlab slab = FuzzRecords(c, rng);
      const ModelResult model = PlacementModel(slab, c.m, c.z, dedup);
      BinPlacementOptions opts;
      opts.num_bins = c.m;
      opts.bin_capacity = c.z;
      opts.dedup = dedup;
      opts.sort_strategy = c.strategy;
      opts.bins_simulatable = true;
      uint64_t counter = 0;
      const BinPlacementResult r = ObliviousBinPlacement(slab, kSchema, opts, [&](uint8_t* rec) {
        SetField64(rec, 0, (uint64_t{1} << 62) | counter++);
      });
      const std::string where = "n_real=" + std::to_string(c.n_real) + " m=" +
                                std::to_string(c.m) + " z=" + std::to_string(c.z) +
                                " dedup=" + std::to_string(dedup);
      ASSERT_EQ(r.ok, model.ok) << where;
      ASSERT_EQ(r.placed, model.placed) << where;
      ASSERT_EQ(Bytes(slab), Bytes(model.slab)) << where;
    }
  }
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (const uint8_t byte : bytes) {
    h = (h ^ byte) * 0x100000001b3ULL;
  }
  return h;
}

// The load balancer's batches at batch_heavy's per-LB geometry (r = 8192 requests over
// s = 4 subORAMs, lambda 128, 160-byte values): the digest was recorded from the
// append-then-sort-everything placement, so the padded sort must reproduce its bytes.
TEST(BinPlacement, LoadBalancerBatchBytesArePinned) {
  LoadBalancerConfig cfg;
  cfg.num_suborams = 4;
  cfg.value_size = 160;
  SipKey pk{};
  pk[0] = 3;
  LoadBalancer lb(cfg, pk, /*rng_seed=*/7);
  Rng rng(8192);
  RequestBatch requests(160);
  for (uint64_t i = 0; i < 8192; ++i) {
    RequestHeader h;
    h.key = rng.Uniform(32768);
    h.op = rng.Uniform(2) == 0 ? kOpRead : kOpWrite;
    h.client_id = i % 64;
    h.client_seq = i / 64;
    std::vector<uint8_t> value(160);
    rng.Fill(value.data(), value.size());
    requests.Append(h, value);
  }
  LoadBalancer::PreparedEpoch epoch = lb.PrepareBatches(std::move(requests), /*epoch_seed=*/99);
  EXPECT_EQ(epoch.batch_size, BatchSize(8192, 4, kDefaultLambda));
  EXPECT_EQ(epoch.batch_size, 2685u);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const RequestBatch& batch : epoch.suboram_batches) {
    digest = Fnv1a(batch.Serialize(), digest);
  }
  EXPECT_EQ(digest, 0x0cabe154dee09cceULL);
}

}  // namespace
}  // namespace snoopy
