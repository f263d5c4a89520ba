#include "src/obl/hash_table.h"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/analysis/binomial.h"
#include "src/enclave/trace.h"
#include "src/obl/bin_placement.h"
#include "src/obl/compaction.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"

namespace snoopy {

namespace {

inline void StoreU64(uint8_t* rec, size_t off, uint64_t v) { std::memcpy(rec + off, &v, sizeof(v)); }
inline void StoreU32(uint8_t* rec, size_t off, uint32_t v) { std::memcpy(rec + off, &v, sizeof(v)); }

constexpr uint64_t kMeanLoads[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};

}  // namespace

OhtParams ChooseSingleTierParams(uint64_t n, uint32_t lambda) {
  OhtParams best;
  best.n = n;
  best.bins1 = 1;
  best.z1 = n;
  if (n <= 4) {
    return best;
  }
  for (const uint64_t mu : kMeanLoads) {
    const uint64_t bins = (n + mu - 1) / mu;
    if (bins <= 1) {
      continue;
    }
    const uint64_t z = BatchSize(n, bins, lambda);
    if (z < best.z1 && bins * z <= 8 * n) {
      best.bins1 = bins;
      best.z1 = z;
    }
  }
  return best;
}

OhtParams ChooseOhtParams(uint64_t n, uint32_t lambda) {
  OhtParams best = ChooseSingleTierParams(n, lambda);
  if (n <= 16) {
    return best;  // Tiny batches: a single scanned bucket is already optimal.
  }
  for (const uint64_t mu1 : kMeanLoads) {
    const uint64_t bins1 = (n + mu1 - 1) / mu1;
    if (bins1 <= 1) {
      continue;
    }
    // Tier-1 capacity only slightly above the mean; the tail goes to tier 2.
    for (uint64_t z1 = mu1; z1 <= mu1 + 12; ++z1) {
      const uint64_t cap = OverflowBound(n, bins1, z1, lambda);
      if (cap == 0) {
        if (z1 < best.z1 + best.z2 && bins1 * z1 <= 8 * n) {
          best = OhtParams{n, bins1, z1, 0, 0, 0};
        }
        continue;
      }
      if (cap >= n) {
        continue;  // Bound vacuous; not a useful configuration.
      }
      for (const uint64_t mu2 : kMeanLoads) {
        const uint64_t bins2 = (cap + mu2 - 1) / mu2;
        if (bins2 == 0) {
          continue;
        }
        const uint64_t z2 = bins2 == 1 ? cap : BatchSize(cap, bins2, lambda);
        const uint64_t cost = z1 + z2;
        const uint64_t slots = bins1 * z1 + bins2 * z2;
        if (slots > 8 * n) {
          continue;
        }
        if (cost < best.z1 + best.z2 ||
            (cost == best.z1 + best.z2 && slots < best.TotalSlots())) {
          best = OhtParams{n, bins1, z1, cap, bins2, z2};
        }
      }
    }
  }
  return best;
}

// SNOOPY_OBLIVIOUS_BEGIN(oht_build)
// ct-public: n i bin total pad1 sort_threads sort_strategy sort_spec batch overflow
// ct-public: params_ bins1 z1 bins2 overflow_cap schema_ dummy_offset
// ct-public: tier1_ok r2 ok
// ct-calls: PaddedBinSort

bool TwoTierOht::Build(ByteSlab&& batch, Rng& rng, int sort_threads,
                       SortStrategy sort_strategy) {
  const uint64_t n = batch.size();
  params_ = ChooseOhtParams(n, lambda_);
  key1_ = rng.NextSipKey();
  key2_ = rng.NextSipKey();
  tier1_ = ByteSlab(0, batch.record_bytes());
  tier2_ = ByteSlab(0, batch.record_bytes());
  if (n == 0) {
    return true;
  }

  ByteSlab slab = std::move(batch);

  // Assign tier-1 bins and construction scratch fields with one linear scan. Keys are
  // secret, so the bucket assignment (a keyed hash of the key) is secret too and is
  // written back through the taint-typed store.
  for (size_t i = 0; i < n; ++i) {
    uint8_t* rec = slab.Record(i);
    const SecretU64 key = LoadSecretU64(rec, schema_.key_offset);
    StoreSecretU32(rec, schema_.bin_offset,
                   NarrowToU32(ModPublic(SipHash24(key1_, key), params_.bins1)));
    rec[schema_.dummy_offset] = 0;
    StoreU64(rec, schema_.order_offset, i);
    StoreSecretU64(rec, schema_.dedup_offset, key);
  }

  // Pad with z1 dummies per bin and sort by (bin, dummy, order): only the n reals go
  // through the sort, the padding is merged in (PaddedBinSort). Tier-1 bins are a
  // fresh keyed hash of distinct keys plus exactly z1 deterministic dummies per bin,
  // so the bin multiset is simulatable from (n, bins1, z1): the bucket strategy may
  // reveal it. A bin's dummies are identical, so any slot order of them is sorted.
  const uint64_t pad1 = params_.bins1 * params_.z1;
  SortBinSpec sort_spec;
  sort_spec.bin_offset = schema_.bin_offset;
  sort_spec.num_bins = params_.bins1;
  sort_spec.bins_simulatable = true;
  sort_spec.lambda = lambda_;
  PaddedBinSort(
      slab, sort_spec, params_.z1,
      [this](const uint8_t* a, const uint8_t* b) {
        const SecretU64 a1 = Widen(LoadSecretU8(a, schema_.dummy_offset)) & 1;
        const SecretU64 b1 = Widen(LoadSecretU8(b, schema_.dummy_offset)) & 1;
        const SecretU64 a2 = LoadSecretU64(a, schema_.order_offset);
        const SecretU64 b2 = LoadSecretU64(b, schema_.order_offset);
        return (a1 < b1) | ((a1 == b1) & (a2 < b2));
      },
      [this](uint8_t* rec, uint64_t bin, uint64_t) {
        StoreU64(rec, schema_.key_offset, ~uint64_t{0});
        StoreU32(rec, schema_.bin_offset, static_cast<uint32_t>(bin));
        rec[schema_.dummy_offset] = 1;
        StoreU64(rec, schema_.order_offset, ~uint64_t{0});
        StoreU64(rec, schema_.dedup_offset, ~uint64_t{0});
      },
      sort_strategy, sort_threads);

  // Mark tier-1 residents (first z1 per bin) and the overflow set; pad the overflow
  // set to the public cap with surplus padding dummies so the compacted size reveals
  // nothing about the true overflow count.
  const size_t total = slab.size();
  std::vector<uint8_t> keep1(total, 0);
  std::vector<uint8_t> to_tier2(total, 0);
  SecretU64 prev_bin = ~uint64_t{0};
  SecretU64 count = 0;
  SecretU64 overflow_count = 0;
  for (size_t i = 0; i < total; ++i) {
    TraceRecord(TraceOp::kRead, i);
    const uint8_t* rec = slab.Record(i);
    const SecretU64 bin = Widen(LoadSecretU32(rec, schema_.bin_offset));
    const SecretBool is_dummy = LoadSecretU8(rec, schema_.dummy_offset).NonZero();
    const SecretBool same_bin = bin == prev_bin;
    count = CtSelectU64(same_bin, count, 0);
    const SecretBool keep = count < SecretU64(params_.z1);
    count += CtSelectU64(keep, 1, 0);
    keep1[i] = keep.ToFlagByte();
    const SecretBool overflow_real = (!keep) & (!is_dummy);
    to_tier2[i] = overflow_real.ToFlagByte();
    overflow_count += CtSelectU64(overflow_real, 1, 0);
    prev_bin = bin;
  }
  // Whether tier 1 fit its public cap is itself public (negligible-probability abort).
  const bool tier1_ok =
      (overflow_count <= SecretU64(params_.overflow_cap)).Declassify("oht.tier1_ok");

  // Second scan: recruit dropped padding dummies as tier-2 filler until the overflow
  // set reaches the cap.
  const SecretU64 fill_needed = CtSelectU64(
      SecretBool::FromBool(tier1_ok), SecretU64(params_.overflow_cap) - overflow_count, 0);
  SecretU64 filled = 0;
  for (size_t i = 0; i < total; ++i) {
    TraceRecord(TraceOp::kRead, i);
    const uint8_t* rec = slab.Record(i);
    const SecretBool is_dummy = LoadSecretU8(rec, schema_.dummy_offset).NonZero();
    const SecretBool avail = is_dummy & !SecretBool::FromWord(keep1[i]);
    const SecretBool take = avail & (filled < fill_needed);
    filled += CtSelectU64(take, 1, 0);
    to_tier2[i] = static_cast<uint8_t>(to_tier2[i] | take.ToFlagByte());
  }

  // Split: tier-1 residents into tier1_, overflow set into tier2 input.
  ByteSlab overflow = slab;  // copy; each record goes to exactly one side
  (void)GoodrichCompact(slab, std::span<uint8_t>(keep1.data(), keep1.size()));
  slab.Truncate(pad1);
  tier1_ = std::move(slab);

  (void)GoodrichCompact(overflow, std::span<uint8_t>(to_tier2.data(), to_tier2.size()));
  overflow.Truncate(params_.overflow_cap);

  if (params_.overflow_cap == 0 || params_.bins2 == 0) {
    return tier1_ok;
  }

  // Tier 2: rehash reals under the fresh key2; filler dummies get uniformly random
  // bins so bin loads keep the balls-into-bins distribution that z2 was sized for.
  for (size_t i = 0; i < overflow.size(); ++i) {
    uint8_t* rec = overflow.Record(i);
    const SecretU64 key = LoadSecretU64(rec, schema_.key_offset);
    const SecretBool is_dummy = LoadSecretU8(rec, schema_.dummy_offset).NonZero();
    const SecretU64 h = ModPublic(SipHash24(key2_, key), params_.bins2);
    const SecretU64 r = rng.Uniform(params_.bins2);  // drawn for every record
    StoreSecretU32(rec, schema_.bin_offset, NarrowToU32(CtSelectU64(is_dummy, r, h)));
    StoreU64(rec, schema_.order_offset, i);
    StoreU64(rec, schema_.dedup_offset, ~uint64_t{0} - i);
  }
  BinSchema bin_schema{schema_.bin_offset, schema_.dummy_offset, schema_.order_offset,
                       schema_.dedup_offset};
  BinPlacementOptions options;
  options.num_bins = static_cast<uint32_t>(params_.bins2);
  options.bin_capacity = static_cast<uint32_t>(params_.z2);
  options.dedup = false;
  options.sort_threads = sort_threads;
  options.sort_strategy = sort_strategy;
  // Tier-2 bins: fresh keyed hash of distinct overflow keys, uniform random draws
  // for the filler dummies — the bin multiset is simulatable from public parameters.
  options.bins_simulatable = true;
  options.lambda = lambda_;
  const size_t key_off = schema_.key_offset;
  const BinPlacementResult r2 = ObliviousBinPlacement(
      overflow, bin_schema, options,
      [key_off](uint8_t* rec) { StoreU64(rec, key_off, ~uint64_t{0}); });
  tier2_ = std::move(overflow);
  return tier1_ok && r2.ok;
}

// SNOOPY_OBLIVIOUS_END(oht_build)

uint64_t TwoTierOht::Tier1BucketIndex(uint64_t key) const {
  return SipHash24(key1_, key) % params_.bins1;
}

uint64_t TwoTierOht::Tier2BucketIndex(uint64_t key) const {
  return params_.bins2 == 0 ? 0 : SipHash24(key2_, key) % params_.bins2;
}

std::span<uint8_t> TwoTierOht::Tier1BucketAt(uint64_t b) {
  TraceRecord(TraceOp::kBucketScan, b, 1);
  const size_t stride = tier1_.record_bytes();
  return {tier1_.data() + b * params_.z1 * stride, params_.z1 * stride};
}

std::span<uint8_t> TwoTierOht::Tier2BucketAt(uint64_t b) {
  if (params_.bins2 == 0) {
    return {};
  }
  TraceRecord(TraceOp::kBucketScan, b, 2);
  const size_t stride = tier2_.record_bytes();
  return {tier2_.data() + b * params_.z2 * stride, params_.z2 * stride};
}

// SNOOPY_OBLIVIOUS_BEGIN(oht_extract)
// ct-public: i tier1_ tier2_ all schema_ dummy_offset tier1_bytes tier2_bytes

ByteSlab TwoTierOht::ExtractAll() {
  // Both tiers are copied whole, at public offsets, into one allocation.
  const size_t tier1_bytes = tier1_.size() * tier1_.record_bytes();
  const size_t tier2_bytes = tier2_.size() * tier2_.record_bytes();
  ByteSlab all(tier1_.size() + tier2_.size(), tier1_.record_bytes());
  if (tier1_bytes > 0) {
    std::memcpy(all.data(), tier1_.data(), tier1_bytes);
  }
  if (tier2_bytes > 0) {
    std::memcpy(all.data() + tier1_bytes, tier2_.data(), tier2_bytes);
  }
  std::vector<uint8_t> flags(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    TraceRecord(TraceOp::kRead, i);
    flags[i] = (!LoadSecretU8(all.Record(i), schema_.dummy_offset).NonZero()).ToFlagByte();
  }
  (void)GoodrichCompact(all, std::span<uint8_t>(flags.data(), flags.size()));
  all.Truncate(params_.n);
  tier1_ = ByteSlab(0, all.record_bytes());
  tier2_ = ByteSlab(0, all.record_bytes());
  return all;
}

// SNOOPY_OBLIVIOUS_END(oht_extract)

}  // namespace snoopy
