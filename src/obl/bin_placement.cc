#include "src/obl/bin_placement.h"

#include <cstring>
#include <vector>

#include "src/enclave/trace.h"
#include "src/obl/compaction.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"

namespace snoopy {

namespace {

inline void StoreU32(uint8_t* rec, size_t off, uint32_t v) { std::memcpy(rec + off, &v, sizeof(v)); }
inline void StoreU64(uint8_t* rec, size_t off, uint64_t v) { std::memcpy(rec + off, &v, sizeof(v)); }

}  // namespace

// SNOOPY_OBLIVIOUS_BEGIN(bin_placement)
// ct-public: m z i total bin counter dedup_enabled kept make_dummy
// ct-public: schema bin_offset dummy_offset order_offset dedup_offset key_offset
// ct-calls: make_dummy PaddedBinSort

BinPlacementResult ObliviousBinPlacement(ByteSlab& slab, const BinSchema& schema,
                                         const BinPlacementOptions& options,
                                         const std::function<void(uint8_t*)>& make_dummy) {
  const uint64_t m = options.num_bins;
  const uint64_t z = options.bin_capacity;
  const bool dedup_enabled = options.dedup;

  // Steps 1-2 (Fig. 5 steps 2-3): pad each bin with z dummies and obliviously sort by
  // (bin, dummy, dedup, order). Dummies sort after the reals within a bin (order =
  // max) and carry unique dedup keys, ~0 - counter, so they can never be mistaken for
  // duplicates and a bin's later dummies sort first, as PaddedBinSort requires.
  // Dummy fields are public when written (the padding has not yet been mixed with
  // the reals), hence the raw stores. From the sort on every record field is secret:
  // loads go through the Secret<T> ports and the comparator stays in the taint
  // domain until the oblivious swap consumes it. The bucket strategy is only
  // selectable when options.bins_simulatable attests the bin tags leak nothing.
  SortBinSpec sort_spec;
  sort_spec.bin_offset = schema.bin_offset;
  sort_spec.num_bins = m;
  sort_spec.bins_simulatable = options.bins_simulatable;
  sort_spec.lambda = options.lambda;
  PaddedBinSort(
      slab, sort_spec, z,
      [&](const uint8_t* a, const uint8_t* b) {
        const SecretU64 a1 = Widen(LoadSecretU8(a, schema.dummy_offset)) & 1;
        const SecretU64 b1 = Widen(LoadSecretU8(b, schema.dummy_offset)) & 1;
        const SecretU64 a2 = LoadSecretU64(a, schema.dedup_offset);
        const SecretU64 b2 = LoadSecretU64(b, schema.dedup_offset);
        const SecretU64 a3 = LoadSecretU64(a, schema.order_offset);
        const SecretU64 b3 = LoadSecretU64(b, schema.order_offset);
        const SecretBool lt3 = a3 < b3;
        const SecretBool lt2 = (a2 < b2) | ((a2 == b2) & lt3);
        return (a1 < b1) | ((a1 == b1) & lt2);
      },
      [&](uint8_t* rec, uint64_t bin, uint64_t counter) {
        make_dummy(rec);
        StoreU32(rec, schema.bin_offset, static_cast<uint32_t>(bin));
        rec[schema.dummy_offset] = 1;
        StoreU64(rec, schema.order_offset, ~uint64_t{0});
        StoreU64(rec, schema.dedup_offset, ~uint64_t{0} - counter);
      },
      options.sort_strategy, options.sort_threads);

  // Step 3 (Fig. 5 step 4): one oblivious linear scan marks, per bin, the first z
  // non-duplicate records (reals first, then padding).
  const size_t total = slab.size();
  std::vector<uint8_t> keep(total, 0);
  SecretU64 prev_bin = ~uint64_t{0};
  SecretU64 prev_dedup_key = ~uint64_t{0};
  SecretU64 count = 0;
  SecretU64 dropped_real = 0;
  SecretU64 placed_real = 0;
  for (size_t i = 0; i < total; ++i) {
    TraceRecord(TraceOp::kRead, i);
    const uint8_t* rec = slab.Record(i);
    const SecretU64 bin = Widen(LoadSecretU32(rec, schema.bin_offset));
    const SecretBool is_dummy = LoadSecretU8(rec, schema.dummy_offset).NonZero();
    const SecretU64 dedup_key = LoadSecretU64(rec, schema.dedup_offset);

    const SecretBool same_bin = bin == prev_bin;
    count = CtSelectU64(same_bin, count, 0);
    const SecretBool is_dup =
        dedup_enabled ? same_bin & (dedup_key == prev_dedup_key) : SecretBool::False();
    const SecretBool keep_i = (!is_dup) & (count < SecretU64(z));
    count += CtSelectU64(keep_i, 1, 0);
    keep[i] = keep_i.ToFlagByte();

    // A dropped real, non-duplicate record means a bin overflowed: abort condition.
    dropped_real += CtSelectU64((!keep_i) & (!is_dummy) & (!is_dup), 1, 0);
    placed_real += CtSelectU64(keep_i & (!is_dummy), 1, 0);
    prev_bin = bin;
    prev_dedup_key = dedup_key;
  }

  // Step 4 (Fig. 5 step 4, second half): compact the kept records to the front. The
  // kept count is exactly m * z by construction, which is public.
  const size_t kept = GoodrichCompact(slab, std::span<uint8_t>(keep.data(), keep.size()));
  slab.Truncate(kept < m * z ? kept : m * z);

  BinPlacementResult result;
  // Whether the batch fit is public (Theorem 3: overflow is a negligible-probability
  // abort the caller surfaces); the count of placed reals is public for the same
  // reason the compaction count is.
  result.ok =
      (dropped_real == SecretU64(0)).Declassify("bin_placement.ok") && (kept == m * z);
  result.placed = placed_real.Declassify("bin_placement.placed");
  return result;
}

// SNOOPY_OBLIVIOUS_END(bin_placement)

}  // namespace snoopy
