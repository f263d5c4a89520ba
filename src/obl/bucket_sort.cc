#include "src/obl/bucket_sort.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "src/analysis/binomial.h"
#include "src/enclave/trace.h"
#include "src/obl/parallel.h"

namespace snoopy {

namespace {

// Crossover constants for the kAuto pass-count model. These mirror the sim's
// calibrated CostModelConfig ([A4] anchors): kSortBlockedDiscount is
// CostModelConfig::sort_blocked_discount (the relative cost of an L1-tile-resident
// compare-exchange pass), kRouteTagBytes is the per-level per-record routing
// traffic — the butterfly moves only the 8-byte (label, index) tag, gather plus
// split — so a routing level costs kRouteTagBytes / record_bytes of a streaming
// record pass, and kCleanupLocalityDiscount reflects that cleanup sorts run over
// single buckets that stay cache-resident. CostModel::BucketSortSeconds
// (src/sim/cost_model.cc) prices epochs with the same algebra.
constexpr double kSortBlockedDiscount = 0.55;
constexpr double kRouteTagBytes = 16.0;
// Whole-record passes outside the butterfly: label extraction + tag scatter,
// the materialization gather, and the sorted emission.
constexpr double kBucketFixedPasses = 2.5;
constexpr double kCleanupLocalityDiscount = 0.7;
constexpr double kAutoSafetyMargin = 1.15;

// Below this the arena setup and per-pair scratch dominate any comparator savings
// (same knee as AdaptiveSortThreads' parallel threshold).
constexpr uint64_t kMinBucketRecords = 4096;

// Smallest acceptable mean bucket load. The overflow tail must clear 2^-lambda
// with capacity Z = 2 * ceil(n / B); loads this size give the binomial tail a
// comfortable exponent (~0.55 bits per record of mean load at Z = 2 * mean) while
// keeping cleanup sorts cache-resident. The geometry search below still verifies
// the exact bound and shrinks B further when needed.
constexpr uint64_t kMinMeanLoad = 256;

uint32_t FloorLog2(uint64_t v) {
  uint32_t l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

// P[some bucket overflows at some butterfly level], by union bound. After level l
// (1-based), a bucket's candidate population is the q * 2^l records of the 2^l
// source buckets that can reach it, each landing there iff its label's top l bits
// match: probability at most 2^-l + 1/num_bins (a level-l label range covers
// B / 2^l consecutive labels, i.e. at most num_bins / 2^l + 1 bins under the
// monotone collapse). The bound is over iid uniform bins — the bins_simulatable
// precondition; deterministically even per-bin padding (the OHT's z1 dummies per
// bin) concentrates strictly less than the binomial model assumes (DESIGN.md).
double RouteOverflowProbability(uint64_t n, uint64_t num_bins, uint64_t buckets,
                                uint64_t q, uint64_t capacity, uint32_t levels) {
  double fail = 0.0;
  for (uint32_t l = 1; l <= levels; ++l) {
    const uint64_t candidates = std::min<uint64_t>(n, q << l);
    if (candidates <= capacity) {
      continue;  // population can't exceed capacity
    }
    const double p =
        std::min(1.0, std::ldexp(1.0, -static_cast<int>(l)) +
                          1.0 / static_cast<double>(num_bins));
    fail += static_cast<double>(buckets) * BinomialTailAbove(candidates, p, capacity);
    if (fail >= 1.0) {
      return 1.0;
    }
  }
  return fail;
}

struct ParamsKey {
  uint64_t n;
  uint64_t num_bins;
  uint32_t lambda;
  bool operator<(const ParamsKey& o) const {
    return std::tie(n, num_bins, lambda) < std::tie(o.n, o.num_bins, o.lambda);
  }
};

}  // namespace

const char* SortStrategyName(SortStrategy s) {
  switch (s) {
    case SortStrategy::kBitonic:
      return "bitonic";
    case SortStrategy::kBucket:
      return "bucket";
    case SortStrategy::kAuto:
      return "auto";
  }
  return "unknown";
}

BucketSortParams ChooseBucketParams(uint64_t n, uint64_t num_bins, uint32_t lambda) {
  BucketSortParams out;
  if (n < kMinBucketRecords || num_bins < 2) {
    return out;
  }

  static std::mutex cache_mutex;
  static std::map<ParamsKey, BucketSortParams> cache;
  const ParamsKey key{n, num_bins, lambda};
  {
    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) {
      return it->second;
    }
  }

  // Largest power-of-two bucket count that keeps the mean load >= kMinMeanLoad and
  // aggregates whole bins (B <= num_bins keeps the collapse monotone AND useful);
  // halve until the exact union bound clears 2^-lambda.
  const uint64_t cap = std::min<uint64_t>(num_bins, n / kMinMeanLoad);
  const double budget = std::ldexp(1.0, -static_cast<int>(lambda));
  for (uint64_t b = cap >= 2 ? uint64_t{1} << FloorLog2(cap) : 0; b >= 2; b /= 2) {
    const uint64_t q = (n + b - 1) / b;
    const uint64_t z = 2 * q;
    const uint32_t levels = FloorLog2(b);
    if (RouteOverflowProbability(n, num_bins, b, q, z, levels) <= budget) {
      out.buckets = b;
      out.capacity = z;
      out.levels = levels;
      out.ok = true;
      break;
    }
  }

  std::lock_guard<std::mutex> lock(cache_mutex);
  cache.emplace(key, out);
  return out;
}

double BitonicSortPassesPerElement(uint64_t n, size_t record_bytes) {
  if (n < 2) {
    return 0.0;
  }
  // The tile-residency algebra from CostModel::BitonicSortSeconds: of the
  // L(L+1)/2 compare-exchange passes, the tile-resident ones cost
  // kSortBlockedDiscount relative to a streaming pass.
  const double lg = std::log2(static_cast<double>(n));
  const double lb = std::min(
      lg, std::log2(static_cast<double>(SortBlockRecords(record_bytes))));
  const double total_passes = lg * (lg + 1.0) / 2.0;
  const double tile_passes = lb * (lb + 1.0) / 2.0 + (lg - lb) * lb;
  const double tile_fraction = total_passes > 0.0 ? tile_passes / total_passes : 0.0;
  const double blocked_factor =
      (1.0 - tile_fraction) + tile_fraction * kSortBlockedDiscount;
  return blocked_factor * total_passes;
}

double BucketSortPassesPerElement(uint64_t n, size_t record_bytes,
                                  const BucketSortParams& params) {
  (void)n;
  if (!params.ok) {
    return 1e30;  // never selected
  }
  const double mean_load =
      std::max(2.0, static_cast<double>(params.capacity) / 2.0);
  const double lz = std::log2(mean_load);
  const double cleanup_passes = lz * (lz + 1.0) / 2.0;
  const double route_passes = static_cast<double>(params.levels) * kRouteTagBytes /
                              std::max(1.0, static_cast<double>(record_bytes));
  return route_passes + kBucketFixedPasses +
         kCleanupLocalityDiscount * cleanup_passes;
}

SortStrategy ResolveSortStrategy(SortStrategy configured, uint64_t n, size_t record_bytes,
                                 const SortBinSpec* spec, BucketSortParams* params) {
  SortStrategy s = configured;
  if (const char* env = std::getenv("SNOOPY_SORT_STRATEGY")) {
    if (std::strcmp(env, "bitonic") == 0) {
      s = SortStrategy::kBitonic;
    } else if (std::strcmp(env, "bucket") == 0) {
      s = SortStrategy::kBucket;
    } else if (std::strcmp(env, "auto") == 0) {
      s = SortStrategy::kAuto;
    }
  }
  if (s == SortStrategy::kBitonic || spec == nullptr || !spec->bins_simulatable ||
      spec->num_bins < 2 || n < kMinBucketRecords || n > UINT32_MAX) {
    return SortStrategy::kBitonic;
  }
  BucketSortParams chosen = ChooseBucketParams(n, spec->num_bins, spec->lambda);
  if (!chosen.ok) {
    return SortStrategy::kBitonic;
  }
  if (s == SortStrategy::kAuto &&
      BucketSortPassesPerElement(n, record_bytes, chosen) * kAutoSafetyMargin >=
          BitonicSortPassesPerElement(n, record_bytes)) {
    return SortStrategy::kBitonic;
  }
  if (params != nullptr) {
    *params = chosen;
  }
  return SortStrategy::kBucket;
}

__attribute__((noinline)) uint64_t ResolveSortStrategyPacked(
    uint8_t configured, uint64_t n, uint64_t record_bytes, uint64_t num_bins,
    uint32_t bins_simulatable, uint32_t lambda) {
  SortBinSpec spec;
  spec.num_bins = num_bins;
  spec.bins_simulatable = bins_simulatable != 0;
  spec.lambda = lambda;
  BucketSortParams params;
  if (ResolveSortStrategy(static_cast<SortStrategy>(configured), n, record_bytes, &spec,
                          &params) != SortStrategy::kBucket) {
    return 0;
  }
  return uint64_t{1} | (uint64_t{params.levels} << 1) | (params.capacity << 8);
}

namespace {

// Fork-join wrapper over RouteLevelRange: recursively halve the pair range while
// there is thread budget, exactly like the bitonic recursion — the range split is
// public and the per-half trace buffers merge first-then-second, so the
// kBucketScan stream is in ascending pair order at any thread count.
void RouteLevelParallel(const bucket_internal::BucketArena& arena, uint32_t m,
                        uint32_t level, uint64_t pair_lo, uint64_t pair_hi, int threads,
                        std::atomic<bool>* ok) {
  if (threads <= 1 || pair_hi - pair_lo <= 1) {
    if (!bucket_internal::RouteLevelRange(arena, m, level, pair_lo, pair_hi)) {
      ok->store(false, std::memory_order_relaxed);
    }
    return;
  }
  const uint64_t mid = pair_lo + (pair_hi - pair_lo) / 2;
  internal::TraceForkJoinHalves(
      [&] { RouteLevelParallel(arena, m, level, pair_lo, mid, threads / 2, ok); },
      [&] {
        RouteLevelParallel(arena, m, level, mid, pair_hi, threads - threads / 2, ok);
      },
      threads);
}

// Type-erasure shim so the BucketCleanupCSwap template (audited with a concrete
// functor) runs the caller's trampoline comparator in production.
struct WithinRef {
  SortLessFn fn;
  const void* ctx;
  SecretBool operator()(const uint8_t* a, const uint8_t* b) const { return fn(ctx, a, b); }
};

// Per-bucket materialize-then-sort, fork-joined over bucket ranges. Fusing the
// materialization gather with the cleanup keeps each bucket L2-resident between
// the two steps (gather the records, immediately sort them) instead of streaming
// the whole arena twice.
void MaterializeAndCleanupParallel(const bucket_internal::BucketArena& arena,
                                   const uint8_t* data, size_t bin_offset,
                                   WithinRef within, uint64_t bucket_lo,
                                   uint64_t bucket_hi, int threads) {
  if (threads <= 1 || bucket_hi - bucket_lo <= 1) {
    for (uint64_t b = bucket_lo; b < bucket_hi; ++b) {
      bucket_internal::MaterializeBucketRange(arena, data, b, b + 1);
      const uint32_t cnt = arena.counts[b];
      if (cnt < 2) {
        continue;
      }
      const BucketCleanupCSwap<WithinRef> cswap{
          arena.records + b * arena.capacity * arena.stride, arena.stride,
          bin_offset, b * arena.capacity, within};
      internal::BitonicTileSort(0, cnt, /*asc=*/true, cswap);
    }
    return;
  }
  const uint64_t mid = bucket_lo + (bucket_hi - bucket_lo) / 2;
  internal::TraceForkJoinHalves(
      [&] {
        MaterializeAndCleanupParallel(arena, data, bin_offset, within, bucket_lo, mid,
                                      threads / 2);
      },
      [&] {
        MaterializeAndCleanupParallel(arena, data, bin_offset, within, mid, bucket_hi,
                                      threads - threads / 2);
      },
      threads);
}

}  // namespace

// noinline: this is the binary-audit boundary. The label declassification and the
// routing that branches on the declassified labels are public *by the simulatable-
// bins contract*, which the binary taint verifier cannot model — so, exactly like
// PartitionSlabByBin's boundary split, they must not inline into audited roots
// (tools/ct_binary_manifest.json allowlists this symbol; the secret-handling
// kernels inside it are audited separately via ctdf_bucket_route/ctdf_bucket_cleanup).
__attribute__((noinline)) bool TryBucketSortSlab(uint8_t* data, uint64_t n, size_t stride,
                                                 size_t bin_offset, uint64_t num_bins,
                                                 uint32_t lambda, SortLessFn less_within_bin,
                                                 const void* less_ctx, int threads) {
  const BucketSortParams params = ChooseBucketParams(n, num_bins, lambda);
  // n must fit the u32 input-index tags the butterfly routes (ResolveSortStrategy
  // applies the same gate, so this bound is never the surprising path).
  if (!params.ok || n < 2 || n > UINT32_MAX) {
    return false;
  }
  if (threads < 1) {
    threads = 1;
  }
  const uint64_t b = params.buckets;
  const uint64_t z = params.capacity;
  const uint64_t q = (n + b - 1) / b;

  // Phase 1: extract and declassify the labels. One fixed-order kDeclassify event
  // per record; the label is the caller's keyed-hash bin collapsed monotonically
  // onto the B buckets (floor(bin * B / num_bins)), so global bucket order implies
  // global bin order.
  std::vector<uint32_t> input_labels(n);
  // SNOOPY_OBLIVIOUS_BEGIN(bucket_labels)
  // ct-public: i n data stride input_labels b label num_bins bin_offset
  // ct-calls: LoadSecretU32 Widen Declassify min
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t bin =
        Widen(LoadSecretU32(data + i * stride, bin_offset)).Declassify("bucket_sort.bin");
    const uint64_t label = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(bin) * b) / num_bins);
    input_labels[i] = static_cast<uint32_t>(std::min<uint64_t>(label, b - 1));
  }
  // SNOOPY_OBLIVIOUS_END(bucket_labels)

  // Phase 2: scatter the (label, index) tags into the arena, q per bucket in input
  // order (<= Z/2 each). Record bytes stay in the input slab until the post-routing
  // materialization; arena slots beyond a bucket's count are never read.
  std::vector<uint8_t> arena_records(b * z * stride);
  std::vector<uint32_t> arena_labels(b * z);
  std::vector<uint32_t> arena_indices(b * z);
  std::vector<uint32_t> arena_counts(b, 0);
  bucket_internal::BucketArena arena{arena_records.data(), arena_labels.data(),
                                     arena_indices.data(), arena_counts.data(),
                                     b,                    z,
                                     stride};
  for (uint64_t bucket = 0; bucket < b; ++bucket) {
    const uint64_t lo = bucket * q;
    const uint64_t hi = std::min<uint64_t>(n, lo + q);
    if (lo >= hi) {
      break;
    }
    std::memcpy(arena_labels.data() + bucket * z, input_labels.data() + lo,
                (hi - lo) * sizeof(uint32_t));
    for (uint64_t i = lo; i < hi; ++i) {
      arena_indices[bucket * z + (i - lo)] = static_cast<uint32_t>(i);
    }
    arena_counts[bucket] = static_cast<uint32_t>(hi - lo);
  }
  TraceRecord(TraceOp::kAppend, n, b * z);

  // Phase 3: the butterfly. MSB-first: level l pairs buckets differing in bit
  // (levels - 1 - l); after it, labels agree with their bucket on the top l + 1
  // bits. Per-level fork-join over the B/2 independent pairs on the WorkPool.
  std::atomic<bool> route_ok{true};
  for (uint32_t level = 0; level < params.levels; ++level) {
    const uint32_t m = uint32_t{1} << (params.levels - 1 - level);
    RouteLevelParallel(arena, m, level, 0, b / 2, threads, &route_ok);
    if (!route_ok.load(std::memory_order_relaxed)) {
      // A bucket overflowed: a public event bounded at 2^-lambda given the
      // bins_simulatable precondition. Debug-fatal (the caller's attestation was
      // wrong or the bound was misconfigured); in release the caller falls back
      // to the bitonic network on the untouched input slab.
      assert(!"bucket sort route overflow beyond the 2^-lambda bound");
      return false;
    }
  }

  // Phase 4: materialize each bucket's records from the input slab (the tags
  // carried their public source indices through the butterfly) and clean it up
  // under (bin, within-bin), with global arena slot indices in the trace.
  MaterializeAndCleanupParallel(arena, data, bin_offset,
                                WithinRef{less_within_bin, less_ctx}, 0, b, threads);

  // Phase 5: emit the real prefixes in bucket order. Counts are public; their sum
  // is exactly n (routing preserves every record once overflow is excluded).
  uint64_t total = 0;
  for (uint64_t bucket = 0; bucket < b; ++bucket) {
    total += arena_counts[bucket];
  }
  if (total != n) {
    assert(!"bucket sort lost records during routing");
    return false;
  }
  uint64_t cursor = 0;
  for (uint64_t bucket = 0; bucket < b; ++bucket) {
    const uint32_t cnt = arena_counts[bucket];
    std::memcpy(data + cursor * stride,
                arena_records.data() + bucket * z * stride,
                static_cast<size_t>(cnt) * stride);
    TraceRecord(TraceOp::kAppend, cursor, cnt);
    cursor += cnt;
  }
  return true;
}

// noinline: audit boundary for composite ct_dataflow roots (see the header
// comment). Runs the exact template entry point with a type-erased comparator.
__attribute__((noinline)) void ObliviousSortSlabErased(
    ByteSlab& slab, size_t bin_offset, uint64_t num_bins, uint32_t bins_simulatable,
    uint32_t lambda, SortLessFn less_within_bin, const void* less_ctx,
    SortStrategy strategy, int threads) {
  SortBinSpec spec;
  spec.bin_offset = bin_offset;
  spec.num_bins = num_bins;
  spec.bins_simulatable = bins_simulatable != 0;
  spec.lambda = lambda;
  ObliviousSortSlab(slab, spec, WithinRef{less_within_bin, less_ctx}, strategy, threads);
}

}  // namespace snoopy
