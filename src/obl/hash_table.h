// Two-tier oblivious hash table (Chan et al., ASIACRYPT'17), as used by the Snoopy
// subORAM (paper section 5).
//
// The table is built once per batch over B distinct-key records. Construction is
// oblivious: each tier is a padded sort (PaddedBinSort: an oblivious sort of the
// real records, then one merge with the tier's public padding) + linear scans +
// compaction; tier 2 runs it through ObliviousBinPlacement. Afterwards, looking a key
// up touches exactly one full bucket in each tier, so as long as each key is queried
// at most once the access pattern is a fresh PRF of the key and reveals nothing (the
// paper's usage scans *all stored object keys*, a public sequence).
//
// Why two tiers: one-tier tables need buckets sized for a negligible overflow
// probability, which is large; letting tier-1 buckets overflow into a second, smaller
// table keeps both bucket sizes small (paper reports ~10x smaller buckets at B = 4096).
// Tier sizes are public functions of (B, lambda) computed in ChooseOhtParams from the
// exact binomial numerics in analysis/binomial.h; tier-1 overflow beyond the public cap
// is a negligible-probability abort.

#ifndef SNOOPY_SRC_OBL_HASH_TABLE_H_
#define SNOOPY_SRC_OBL_HASH_TABLE_H_

#include <cstdint>
#include <span>

#include "src/crypto/rng.h"
#include "src/crypto/siphash.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/slab.h"

namespace snoopy {

// Byte offsets of the fields the hash table reads/writes inside each record.
struct OhtSchema {
  size_t key_offset;    // uint64: record key (distinct across the batch)
  size_t bin_offset;    // uint32: scratch field used during construction
  size_t dummy_offset;  // uint8: set on padding dummies the table inserts
  size_t order_offset;  // uint64: scratch field used during construction
  size_t dedup_offset;  // uint64: scratch field used during construction
};

struct OhtParams {
  uint64_t n = 0;             // batch size the table was sized for
  uint64_t bins1 = 1;         // tier-1 bucket count
  uint64_t z1 = 1;            // tier-1 bucket capacity
  uint64_t overflow_cap = 0;  // public bound on total tier-1 overflow
  uint64_t bins2 = 0;         // tier-2 bucket count (0: no second tier)
  uint64_t z2 = 0;            // tier-2 bucket capacity

  uint64_t LookupCost() const { return z1 + z2; }
  uint64_t TotalSlots() const { return bins1 * z1 + bins2 * z2; }
};

// Picks tier geometry minimizing the per-lookup scan cost z1 + z2 subject to
// Pr[construction aborts] <= 2^-(lambda-1).
OhtParams ChooseOhtParams(uint64_t n, uint32_t lambda);

// Single-tier geometry with the same failure bound, for comparison (bench + tests).
OhtParams ChooseSingleTierParams(uint64_t n, uint32_t lambda);

class TwoTierOht {
 public:
  TwoTierOht(const OhtSchema& schema, uint32_t lambda) : schema_(schema), lambda_(lambda) {}

  // Builds the table over `batch` (consumed). Keys must be distinct. Returns false on
  // the negligible-probability overflow abort. Fresh bucket-assignment keys are drawn
  // from `rng` for every build (paper section 5: "for every batch we sample a new
  // key"). `sort_threads` parallelizes the construction sorts; `sort_strategy`
  // selects their implementation (both construction sorts are bucket-eligible: bins
  // are fresh keyed hashes of distinct keys, padding is deterministic-per-bin or
  // uniform random, so the bin multiset is simulatable from public parameters).
  bool Build(ByteSlab&& batch, Rng& rng, int sort_threads = 1,
             SortStrategy sort_strategy = SortStrategy::kBitonic);

  const OhtParams& params() const { return params_; }

  // The two buckets that may contain `key`. A caller performing an oblivious lookup
  // must scan both spans in full. Spans are invalidated by Build/ExtractAll.
  std::span<uint8_t> Tier1Bucket(uint64_t key) { return Tier1BucketAt(Tier1BucketIndex(key)); }
  std::span<uint8_t> Tier2Bucket(uint64_t key) { return Tier2BucketAt(Tier2BucketIndex(key)); }
  // Indices of the two candidate buckets of `key`.
  uint64_t Tier1BucketIndex(uint64_t key) const;
  uint64_t Tier2BucketIndex(uint64_t key) const;  // 0 if the table has one tier
  // The bucket at a Tier*BucketIndex result, recorded in the trace as the lookup's
  // bucket scan: for a caller that needs the index as well as the slots, with the key
  // hashed once per tier.
  std::span<uint8_t> Tier1BucketAt(uint64_t b);
  std::span<uint8_t> Tier2BucketAt(uint64_t b);  // empty span if the table has one tier

  size_t record_bytes() const { return tier1_.record_bytes(); }

  // The tier layouts: bins1 * z1 (tier 1) and bins2 * z2 (tier 2) records, bucket by
  // bucket. Tests pin their bytes.
  const ByteSlab& tier1() const { return tier1_; }
  const ByteSlab& tier2() const { return tier2_; }

  // Obliviously extracts the n real records (dropping the table's padding dummies),
  // in unspecified order. The table becomes empty.
  ByteSlab ExtractAll();

 private:
  OhtSchema schema_;
  uint32_t lambda_;
  OhtParams params_;
  SipKey key1_{};
  SipKey key2_{};
  ByteSlab tier1_;
  ByteSlab tier2_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_HASH_TABLE_H_
