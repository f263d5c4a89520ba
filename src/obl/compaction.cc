#include "src/obl/compaction.h"

#include <cassert>
#include <vector>

#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"

namespace snoopy {

// SNOOPY_OBLIVIOUS_BEGIN(compaction)
// ct-public: n i j stride shift asc

size_t GoodrichCompact(ByteSlab& slab, std::span<uint8_t> flags) {
  const size_t n = slab.size();
  assert(flags.size() == n);
  if (n == 0) {
    return 0;
  }
  const size_t stride = slab.record_bytes();
  uint8_t* base = slab.data();

  // Distance each kept record must travel left: the count of dropped records before
  // it. Computed with a single oblivious linear scan. Dropped records are given
  // distance 0 so they never move left (they are displaced rightwards by swaps).
  std::vector<SecretU64> dist(n);
  SecretU64 dropped = 0;
  SecretU64 kept = 0;
  for (size_t i = 0; i < n; ++i) {
    TraceRecord(TraceOp::kRead, i);
    const SecretBool keep = SecretBool::FromWord(flags[i]);
    dist[i] = CtSelectU64(keep, dropped, 0);
    dropped += CtSelectU64(keep, 0, 1);
    kept += CtSelectU64(keep, 1, 0);
  }

  // Route through log n passes. In pass k, the record at position i + 2^k moves to
  // position i iff bit k of its remaining distance is set. Distances of kept records
  // are non-decreasing and, entering pass k, multiples of 2^k; a short induction shows
  // a moving record's target slot never holds a kept record that stays put, so the
  // conditional swap only ever displaces dropped records.
  for (uint64_t shift = 1; shift < n; shift <<= 1) {
    for (size_t i = 0; i + shift < n; ++i) {
      TraceRecord(TraceOp::kCondSwap, i, i + shift);
      const size_t j = i + shift;
      // SecretBool &, never &&: short-circuiting would branch on secret data.
      const SecretBool move = SecretBool::FromWord(flags[j]) & (dist[j] & shift).NonZero();
      dist[j] = CtSelect(move, dist[j] - SecretU64(shift), dist[j]);
      // The record body moves through the SIMD kernel; the 1- and 8-byte scratch
      // fields stay scalar (below vector width, dispatch would only add overhead).
      KernelCondSwapBytes(move, base + i * stride, base + j * stride, stride);
      CtCondSwapBytes(move, &flags[i], &flags[j], 1);
      CtCondSwapBytes(move, &dist[i], &dist[j], sizeof(SecretU64));
    }
  }
  // The kept count is public by the paper's contract (section 4.2.1).
  return static_cast<size_t>(kept.Declassify("compaction.goodrich.kept"));
}

size_t SortCompact(ByteSlab& slab, std::span<uint8_t> flags) {
  const size_t n = slab.size();
  assert(flags.size() == n);
  if (n == 0) {
    return 0;
  }
  const size_t stride = slab.record_bytes();
  uint8_t* base = slab.data();

  SecretU64 kept = 0;
  std::vector<SecretU64> rank(n);
  for (size_t i = 0; i < n; ++i) {
    TraceRecord(TraceOp::kRead, i);
    const SecretBool keep = SecretBool::FromWord(flags[i]);
    kept += CtSelectU64(keep, 1, 0);
    // Sort key: kept records first (in original order), dropped after (in original
    // order). The key embeds the keep bit in the top bit so comparisons stay simple.
    rank[i] = CtSelectU64(keep, 0, uint64_t{1} << 63) | SecretU64(i);
  }

  RunBitonicNetwork(n, [&](size_t i, size_t j, bool asc) {
    TraceRecord(TraceOp::kCondSwap, i, j);
    const SecretBool out_of_order = asc ? rank[j] < rank[i] : rank[i] < rank[j];
    CtCondSwapBytes(out_of_order, &rank[i], &rank[j], sizeof(SecretU64));
    CtCondSwapBytes(out_of_order, &flags[i], &flags[j], 1);
    KernelCondSwapBytes(out_of_order, base + i * stride, base + j * stride, stride);
  });
  return static_cast<size_t>(kept.Declassify("compaction.sort.kept"));
}

// SNOOPY_OBLIVIOUS_END(compaction)

}  // namespace snoopy
