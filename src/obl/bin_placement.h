// Oblivious bin placement.
//
// Given n records each tagged with a secret bin index in [0, m), produce a slab of
// exactly m * z records where bin b occupies slots [b*z, (b+1)*z): the bin's real
// records first (in sort-key order), padded to z with dummies. Nothing is revealed
// beyond the public (n, m, z): the procedure is the padded sort (PaddedBinSort below:
// oblivious sort of the n reals, then one merge with the m * z padding dummies) +
// oblivious linear scan + oblivious compaction, the pipeline of the Snoopy load
// balancer (paper Figure 5) and of oblivious hash-table construction (section 5).
//
// Records are raw fixed-stride byte strings; the caller describes where the secret
// fields live via BinSchema. All field reads/writes inside the routine are branchless.

#ifndef SNOOPY_SRC_OBL_BIN_PLACEMENT_H_
#define SNOOPY_SRC_OBL_BIN_PLACEMENT_H_

#include <cstdint>
#include <functional>

#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

// Byte offsets of the fields bin placement manipulates. All fields are little-endian.
struct BinSchema {
  size_t bin_offset;    // uint32: secret bin index
  size_t dummy_offset;  // uint8: 1 if the record is a padding dummy
  size_t order_offset;  // uint64: secondary sort key (ties broken by it); for
                        // deduplication this must order duplicates survivor-first
  size_t dedup_offset;  // uint64: records in the same bin with equal dedup keys are
                        // duplicates; only used when dedup is enabled
};

struct BinPlacementOptions {
  uint32_t num_bins = 1;
  uint32_t bin_capacity = 1;  // z
  bool dedup = false;         // drop all but the first record of each duplicate group
  int sort_threads = 1;
  // Strategy for the placement sort (ObliviousSortSlab). The bucket strategy is
  // only eligible when the caller attests that the record bin tags are simulatable
  // from public parameters (keyed hash of distinct keys / uniform draws) — see
  // SortBinSpec::bins_simulatable. The load balancer's pre-dedup batches carry
  // duplicate keys and must leave this false.
  SortStrategy sort_strategy = SortStrategy::kBitonic;
  bool bins_simulatable = false;
  uint32_t lambda = 40;  // overflow-failure exponent for the bucket route
};

struct BinPlacementResult {
  // False iff some bin had more eligible records than its capacity, i.e. real records
  // were dropped. With capacities from analysis/batch_bound this happens with
  // probability <= 2^-lambda; callers treat it as an abort.
  bool ok = false;
  // Number of real (non-dummy, non-duplicate) records placed.
  uint64_t placed = 0;
};

// SNOOPY_OBLIVIOUS_BEGIN(padded_bin_sort)
// ct-public: n_real m z bin j i stride base spec strategy threads write_dummy pad
// ct-public: TraceSpan SetArg merge_span
// ct-calls: less_within_bin Widen LoadSecretU32 write_dummy MergePadding

// Steps 2-4 of PaddedBinSort, given the n_real reals of `slab` sorted by (bin,
// less_within_bin):
//   2. the sorted run is reversed with public-index swaps, making it descending;
//   3. the padding is appended as a run already in comparator order: bin-major, with
//      write_dummy(rec, b, b * z + j) called for j = 0..z-1 and dummy j of bin b
//      written to the bin's slot z - 1 - j. The caller's within-bin order must
//      therefore rank a bin's dummies by descending j (bin placement's ascending
//      dedup keys), or not tell them apart (tier 1's identical dummies);
//   4. one bitonic merge sorts the descending-then-ascending slab. A "merge" step
//      span carries the merged record count.
template <typename Less, typename WriteDummy>
void MergePadding(ByteSlab& slab, const SortBinSpec& spec, uint64_t z,
                  const Less& less_within_bin, const WriteDummy& write_dummy, int threads) {
  const size_t n_real = slab.size();
  const uint64_t m = spec.num_bins;
  const size_t stride = slab.record_bytes();
  uint8_t* base = slab.data();
  for (size_t i = 0; i < n_real / 2; ++i) {
    KernelCondSwapBytes(SecretBool::True(), base + i * stride,
                        base + (n_real - 1 - i) * stride, stride);
  }

  uint8_t* pad = slab.AppendZero(m * z);
  for (uint64_t bin = 0; bin < m; ++bin) {
    for (uint64_t j = 0; j < z; ++j) {
      write_dummy(pad + (bin * z + z - 1 - j) * stride, bin, bin * z + j);
    }
  }
  TraceRecord(TraceOp::kAppend, n_real, m * z);

  TraceSpan merge_span(&Tracer::Global(), "step", "merge");
  merge_span.SetArg("records", slab.size());
  BitonicMergeSlab(
      slab,
      [&](const uint8_t* a, const uint8_t* b) {
        const SecretU64 abin = Widen(LoadSecretU32(a, spec.bin_offset));
        const SecretU64 bbin = Widen(LoadSecretU32(b, spec.bin_offset));
        return (abin < bbin) | ((abin == bbin) & less_within_bin(a, b));
      },
      threads);
}

// Appends z padding dummies per bin to the n_real records of `slab` and leaves all
// n_real + m * z records in (bin at spec.bin_offset, less_within_bin) order, m =
// spec.num_bins. The dummies' fields are public, so only the reals are sorted:
//   1. ObliviousSortSlab over the n_real reals (strategy resolution as for any sort
//      of n_real records: the bucket route needs spec.bins_simulatable and n_real
//      past its size knee);
//   2. MergePadding below: reverse, append the padding run, merge.
// The comparator must be total on distinct records, as for ObliviousSortSlab, so the
// bytes equal those of one full sort over reals and padding. The network depends on
// (n_real, m, z) alone.
template <typename Less, typename WriteDummy>
void PaddedBinSort(ByteSlab& slab, const SortBinSpec& spec, uint64_t z,
                   const Less& less_within_bin, const WriteDummy& write_dummy,
                   SortStrategy strategy, int threads) {
  ObliviousSortSlab(slab, spec, less_within_bin, strategy, threads);
  MergePadding(slab, spec, z, less_within_bin, write_dummy, threads);
}

// SNOOPY_OBLIVIOUS_END(padded_bin_sort)

// Rearranges `slab` in place into m * z slots as described above. `make_dummy` must
// initialize a padding record in the provided buffer; bin placement then assigns its
// bin/dummy fields itself. On return slab.size() == num_bins * bin_capacity.
BinPlacementResult ObliviousBinPlacement(
    ByteSlab& slab, const BinSchema& schema, const BinPlacementOptions& options,
    const std::function<void(uint8_t*)>& make_dummy);

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_BIN_PLACEMENT_H_
