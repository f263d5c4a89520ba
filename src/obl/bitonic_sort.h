// Batcher's bitonic sorting network for arbitrary n, with optional thread parallelism.
//
// Bitonic sort performs compare-and-swaps in a fixed, data-independent order, so it is
// oblivious: the network shape depends only on n (public). This is the oblivious sort
// the Snoopy load balancer uses to build batches (paper section 4.2.1); the paper also
// parallelizes it across enclave threads (Figure 13a), which RunBitonicNetwork supports
// by fanning the independent recursive halves out to a bounded thread pool.
//
// One network, one executor: the thread width alone decides how a segment runs. The
// recursion forks its halves while threads > 1 and hands each width-1 segment to the
// sequential tile executor, so every single-threaded sort runs exactly the code the
// binary dataflow audit checks. Obliviousness and cost belong to the compare-swap
// sequence, which is the same at every width.
//
// Comparators operate on secret record fields and therefore must return SecretBool
// (obl/secret.h), keeping the compare result in the taint domain until it reaches the
// oblivious swap. Branching on it is a compile error.
//
// Complexity: O(n log^2 n) compare-swaps; depth O(log^2 n).

#ifndef SNOOPY_SRC_OBL_BITONIC_SORT_H_
#define SNOOPY_SRC_OBL_BITONIC_SORT_H_

#include <cstddef>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/enclave/trace.h"
#include "src/obl/kernels.h"
#include "src/obl/parallel.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"

namespace snoopy {

// SNOOPY_OBLIVIOUS_BEGIN(bitonic_sort)
// ct-public: n lo m asc threads i j k stride max_threads hw cap
// ct-public: parallel_threshold kTilesPerParallelSort
// ct-public: half WorkPool
// ct-calls: GreatestPowerOfTwoBelow BitonicMerge BitonicSortRec AdaptiveSortThreads
// ct-calls: BitonicTileMerge BitonicTileSort first second SortBlockRecords BitonicSlabCSwap
// ct-calls: WorkPool Instance Reserve RunPhase PhasePoolContext

namespace internal {

// Largest power of two strictly less than n (n >= 2).
inline size_t GreatestPowerOfTwoBelow(size_t n) {
  size_t k = 1;
  while (k * 2 < n) {
    k *= 2;
  }
  return k;
}

// ---- Tile executor (one thread) ----
//
// The sequential depth-first walk of the network: no fork-join dispatch, no thread
// bookkeeping. Once a segment is at most SortBlockRecords long (kernels.h) every
// compare-swap it spawns stays inside those records, so depth-first order is what
// keeps a width-1 sort L1-resident. This is the code the ctdf_bitonic_tile_sort root
// audits at the binary level (tests/ct_dataflow_fixture.cc).

template <typename CSwap>
void BitonicTileMerge(size_t lo, size_t n, bool asc, const CSwap& cswap) {
  if (n <= 1) {
    return;
  }
  const size_t m = GreatestPowerOfTwoBelow(n);
  for (size_t i = lo; i < lo + n - m; ++i) {
    cswap(i, i + m, asc);
  }
  BitonicTileMerge(lo, m, asc, cswap);
  BitonicTileMerge(lo + m, n - m, asc, cswap);
}

template <typename CSwap>
void BitonicTileSort(size_t lo, size_t n, bool asc, const CSwap& cswap) {
  if (n <= 1) {
    return;
  }
  const size_t m = n / 2;
  BitonicTileSort(lo, m, !asc, cswap);
  BitonicTileSort(lo + m, n - m, asc, cswap);
  BitonicTileMerge(lo, n, asc, cswap);
}

// ---- Fork-join executor (threads > 1) ----

// Runs the two independent halves of a bitonic recursion step in parallel (callers
// pass threads > 1), as a two-task RunPhase (obl/parallel.h): the second half is
// offered to an idle pool worker (or reclaimed by the caller after it finishes the
// first half), each half's cswap events are buffered in its own task sink, and the
// sinks merge after the join in the *sequential* recursion order (first half, then
// second). The split point is public (a function of n alone), so the merged trace is
// byte-identical to a single-threaded run -- the trace-identity tests pin this. No
// span is opened inside a sort half, so the fork carries no tracer and only cswap
// events need the merge. `threads` is the width of this recursion level; the halves
// carry threads / 2 and threads - threads / 2 down, so the recursion forks at most
// `threads` ways and the pool is grown to that width up front.
template <typename First, typename Second>
void TraceForkJoinHalves(const First& first, const Second& second, int threads) {
  WorkPool::Instance().Reserve(static_cast<size_t>(threads) - 1);
  RunPhase(2, 2, PhasePoolContext{"fork"}, [&](size_t half) {
    if (half == 0) {
      first();
    } else {
      second();
    }
  });
}

// The thread width alone decides how a segment runs: it forks while threads > 1 and
// hands the segment to the tile executor once the width reaches 1. Both executors
// emit the same compare-swap sequence, so the trace does not depend on the width.
template <typename CSwap>
void BitonicMerge(size_t lo, size_t n, bool asc, const CSwap& cswap, int threads) {
  if (threads <= 1 || n <= 1) {
    BitonicTileMerge(lo, n, asc, cswap);
    return;
  }
  const size_t m = GreatestPowerOfTwoBelow(n);
  for (size_t i = lo; i < lo + n - m; ++i) {
    cswap(i, i + m, asc);
  }
  TraceForkJoinHalves([&] { BitonicMerge(lo, m, asc, cswap, threads / 2); },
                      [&] { BitonicMerge(lo + m, n - m, asc, cswap, threads - threads / 2); },
                      threads);
}

template <typename CSwap>
void BitonicSortRec(size_t lo, size_t n, bool asc, const CSwap& cswap, int threads) {
  if (threads <= 1 || n <= 1) {
    BitonicTileSort(lo, n, asc, cswap);
    return;
  }
  const size_t m = n / 2;
  TraceForkJoinHalves([&] { BitonicSortRec(lo, m, !asc, cswap, threads / 2); },
                      [&] { BitonicSortRec(lo + m, n - m, asc, cswap, threads - threads / 2); },
                      threads);
  BitonicMerge(lo, n, asc, cswap, threads);
}

}  // namespace internal

// Runs the bitonic network over n elements. `cswap(i, j, asc)` must compare the
// elements at positions i < j and swap them (obliviously) so that they end up in
// ascending order if asc, descending otherwise. `threads` bounds the number of
// concurrently running workers (1 = fully sequential, on the tile executor).
template <typename CSwap>
void RunBitonicNetwork(size_t n, const CSwap& cswap, int threads = 1) {
  internal::BitonicSortRec(0, n, /*asc=*/true, cswap, threads);
}

// Sorts a span of trivially-copyable records in place. `less(a, b)` must be a
// branchless strict weak ordering returning SecretBool (see obl/secret.h).
template <typename T, typename Less>
void BitonicSort(std::span<T> data, const Less& less, int threads = 1) {
  RunBitonicNetwork(
      data.size(),
      [&](size_t i, size_t j, bool asc) {
        TraceRecord(TraceOp::kCondSwap, i, j);
        const SecretBool out_of_order = asc ? less(data[j], data[i]) : less(data[i], data[j]);
        OCmpSwap(out_of_order, data[i], data[j]);
      },
      threads);
}

// The compare-swap of the slab networks: `less(a, b)` receives raw record pointers
// and must be branchless, returning SecretBool. Record moves go through the
// dispatching SIMD kernels (obl/kernels.h); the mask is derived once per compare.
template <typename Less>
auto BitonicSlabCSwap(ByteSlab& slab, const Less& less) {
  const size_t stride = slab.record_bytes();
  uint8_t* base = slab.data();
  return [stride, base, &less](size_t i, size_t j, bool asc) {
    TraceRecord(TraceOp::kCondSwap, i, j);
    uint8_t* a = base + i * stride;
    uint8_t* b = base + j * stride;
    const SecretBool out_of_order = asc ? less(b, a) : less(a, b);
    KernelCondSwapBytes(out_of_order, a, b, stride);
  };
}

// Sorts a ByteSlab of records in place.
template <typename Less>
void BitonicSortSlab(ByteSlab& slab, const Less& less, int threads = 1) {
  RunBitonicNetwork(slab.size(), BitonicSlabCSwap(slab, less), threads);
}

// Sorts a ByteSlab that holds a descending run followed by an ascending run, of any
// lengths, with the merge half of the network alone: O(n log n) compare-swaps. The
// 0/1 principle covers every split, since a 0/1 descending-then-ascending sequence
// is 1^p 0^k 1^q and the arbitrary-n merge sorts each of those (tests/
// bin_placement_test.cc checks them exhaustively up to n = 64).
template <typename Less>
void BitonicMergeSlab(ByteSlab& slab, const Less& less, int threads = 1) {
  internal::BitonicMerge(0, slab.size(), /*asc=*/true, BitonicSlabCSwap(slab, less), threads);
}

// The adaptive policy from the paper (Figure 13a): below a size threshold the thread
// coordination overhead dominates, so fall back to a single thread. The threshold is
// derived from the L1 tile geometry (SortBlockRecords) -- forking pays off once the
// sort spans many L1 tiles -- rather than a bare constant; for the paper's 208-byte records this
// yields 128 tiles * 64 records = 8192, the empirical knee in Figure 13a.
inline int AdaptiveSortThreads(size_t n, int max_threads, size_t record_bytes = 208) {
  constexpr size_t kTilesPerParallelSort = 128;
  const size_t parallel_threshold = kTilesPerParallelSort * SortBlockRecords(record_bytes);
  if (n < parallel_threshold || max_threads < 2) {
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = hw == 0 ? 1 : static_cast<int>(hw);
  return max_threads < cap ? max_threads : cap;
}

// SNOOPY_OBLIVIOUS_END(bitonic_sort)

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_BITONIC_SORT_H_
