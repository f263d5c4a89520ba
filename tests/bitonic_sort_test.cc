#include "src/obl/bitonic_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"

namespace snoopy {
namespace {

struct Rec {
  uint64_t key;
  uint64_t payload;
};

SecretBool RecLess(const Rec& a, const Rec& b) { return SecretU64(a.key) < SecretU64(b.key); }

class BitonicSortSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BitonicSortSizes, SortsRandomInput) {
  const size_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<Rec> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = Rec{rng.Uniform(1 + n / 2), i};  // duplicates likely
  }
  std::vector<uint64_t> expected;
  for (const Rec& r : data) {
    expected.push_back(r.key);
  }
  std::sort(expected.begin(), expected.end());

  BitonicSort(std::span<Rec>(data), RecLess);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i].key, expected[i]) << "n=" << n << " i=" << i;
  }
  // Payloads must still be a permutation of 0..n-1 (records move as units).
  std::vector<uint64_t> payloads;
  for (const Rec& r : data) {
    payloads.push_back(r.payload);
  }
  std::sort(payloads.begin(), payloads.end());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(payloads[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(ArbitrarySizes, BitonicSortSizes,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                                           100, 127, 128, 129, 255, 500, 1000, 1024, 1025));

TEST(BitonicSort, AlreadySortedAndReversed) {
  for (const bool reversed : {false, true}) {
    std::vector<Rec> data(200);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].key = reversed ? data.size() - i : i;
    }
    BitonicSort(std::span<Rec>(data), RecLess);
    for (size_t i = 1; i < data.size(); ++i) {
      ASSERT_LE(data[i - 1].key, data[i].key);
    }
  }
}

TEST(BitonicSort, MultithreadedMatchesSequential) {
  Rng rng(99);
  std::vector<Rec> a(777);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = Rec{rng.Next64(), i};
  }
  std::vector<Rec> b = a;
  BitonicSort(std::span<Rec>(a), RecLess, 1);
  BitonicSort(std::span<Rec>(b), RecLess, 3);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key);
  }
}

TEST(BitonicSort, SlabVariantSortsRuntimeSizedRecords) {
  const size_t n = 300;
  const size_t stride = 48;
  ByteSlab slab(n, stride);
  Rng rng(4);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Uniform(1000);
    std::memcpy(slab.Record(i), &keys[i], 8);
    std::memset(slab.Record(i) + 8, static_cast<int>(i & 0xff), stride - 8);
  }
  BitonicSortSlab(slab, [](const uint8_t* a, const uint8_t* b) {
    return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
  });
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < n; ++i) {
    uint64_t k;
    std::memcpy(&k, slab.Record(i), 8);
    ASSERT_EQ(k, keys[i]);
  }
}

TEST(BitonicSort, NetworkShapeIsDataIndependent) {
  // Core obliviousness property: the compare-swap sequence depends only on n.
  auto trace_for = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<Rec> data(173);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Rec{rng.Next64(), i};
    }
    TraceScope scope;
    BitonicSort(std::span<Rec>(data), RecLess);
    return scope.Digest();
  };
  EXPECT_EQ(trace_for(1), trace_for(2));
  EXPECT_EQ(trace_for(2), trace_for(999));
}

TEST(BitonicSort, ParallelTraceIsByteIdenticalToSequential) {
  // Regression for the parallel-sort trace race: recursion halves used to push their
  // cswap events into the shared recorder concurrently (a data race, and a scrambled
  // event order). Each half now buffers thread-locally and the parent appends the
  // buffers in recursion order, so the merged trace must be byte-for-byte the
  // sequential one -- not a permutation of it, and not empty. Under TSan (tools/ci.sh)
  // this test also pins the absence of the concurrent push_back.
  auto trace_for = [](int threads) {
    Rng rng(41);
    std::vector<Rec> data(333);  // non-power-of-two: exercises the uneven split
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Rec{rng.Next64(), i};
    }
    TraceScope scope;
    BitonicSort(std::span<Rec>(data), RecLess, threads);
    return scope.Events();
  };
  const std::vector<TraceEvent> sequential = trace_for(1);
  for (const int threads : {2, 3, 8}) {
    EXPECT_TRUE(NonVacuousTraceEq(sequential, trace_for(threads)))
        << "threads=" << threads;
  }
}

TEST(BitonicSort, SlabParallelTraceIsByteIdenticalToSequential) {
  // Same property through BitonicSortSlab, the fig13a path that exposed the race.
  auto trace_for = [](int threads) {
    const size_t stride = 24;
    ByteSlab slab(200, stride);
    Rng rng(6);
    for (size_t i = 0; i < slab.size(); ++i) {
      const uint64_t key = rng.Next64();
      std::memcpy(slab.Record(i), &key, 8);
    }
    TraceScope scope;
    BitonicSortSlab(
        slab,
        [](const uint8_t* a, const uint8_t* b) {
          return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
        },
        threads);
    return scope.Events();
  };
  EXPECT_TRUE(NonVacuousTraceEq(trace_for(1), trace_for(3)));
}

SecretBool SlabKeyLess(const uint8_t* a, const uint8_t* b) {
  return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
}

ByteSlab RandomKeySlab(size_t n, uint64_t seed) {
  ByteSlab slab(n, 24);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = rng.Next64();
    std::memcpy(slab.Record(i), &key, 8);
  }
  return slab;
}

TEST(KernelTrace, BlockedSortTraceIdenticalAcrossBlockSizesAndBackends) {
  // The thread width alone decides how the network runs: the recursion forks while
  // threads > 1 and hands each width-1 block to the tile executor. Whatever the block
  // split and kernel backend, the slab sort must emit the tile executor's compare-swap
  // sequence and bytes. Under TSan (tools/ci.sh) the threaded widths also pin the
  // race-free trace merge.
  ByteSlab expected = RandomKeySlab(333, 7);  // non-power-of-two: uneven splits
  std::vector<TraceEvent> reference;
  {
    TraceScope scope;
    const size_t stride = expected.record_bytes();
    uint8_t* base = expected.data();
    internal::BitonicTileSort(0, expected.size(), /*asc=*/true,
                              [&](size_t i, size_t j, bool asc) {
                                TraceRecord(TraceOp::kCondSwap, i, j);
                                uint8_t* a = base + i * stride;
                                uint8_t* b = base + j * stride;
                                const SecretBool out_of_order =
                                    asc ? SlabKeyLess(b, a) : SlabKeyLess(a, b);
                                CtCondSwapBytes(out_of_order, a, b, stride);
                              });
    reference = scope.Events();
  }
  const KernelBackend saved = ActiveKernelBackend();
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    for (const int threads : {1, 2, 3, 4, 8}) {
      ByteSlab slab = RandomKeySlab(333, 7);
      TraceScope scope;
      BitonicSortSlab(slab, SlabKeyLess, threads);
      EXPECT_TRUE(NonVacuousTraceEq(reference, scope.Events()))
          << KernelBackendName(backend) << " threads=" << threads;
      EXPECT_EQ(std::memcmp(slab.data(), expected.data(), 333 * 24), 0)
          << KernelBackendName(backend) << " threads=" << threads;
    }
  }
  SetKernelBackend(saved);
}

TEST(BlockedSort, SortsCorrectlyAtAwkwardSizes) {
  // Awkward sizes sort correctly on the tile executor and through the fork-join.
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{63}, size_t{200}, size_t{333},
                         size_t{1024}}) {
    for (const int threads : {1, 3}) {
      ByteSlab slab = RandomKeySlab(n, n * 31 + threads);
      std::vector<uint64_t> keys(n);
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(&keys[i], slab.Record(i), 8);
      }
      BitonicSortSlab(slab, SlabKeyLess, threads);
      std::sort(keys.begin(), keys.end());
      for (size_t i = 0; i < n; ++i) {
        uint64_t k;
        std::memcpy(&k, slab.Record(i), 8);
        ASSERT_EQ(k, keys[i]) << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(AdaptiveSortThreads, SmallInputsStaySequential) {
  EXPECT_EQ(AdaptiveSortThreads(100, 4), 1);
  EXPECT_EQ(AdaptiveSortThreads(1u << 20, 1), 1);
  EXPECT_GE(AdaptiveSortThreads(1u << 20, 4), 1);
}

}  // namespace
}  // namespace snoopy
