#include "src/sim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/batch_bound.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/hash_table.h"

namespace snoopy {

double CostModel::ThreadScale(int threads) const {
  if (threads <= 1) {
    return 1.0;
  }
  return 1.0 / (1.0 + (threads - 1) * config_.parallel_efficiency);
}

double CostModel::BitonicSortSeconds(uint64_t n, size_t record_bytes, int threads) const {
  if (n <= 1) {
    return 0.0;
  }
  const double lg = std::log2(static_cast<double>(n));
  const double bytes = static_cast<double>(n) * static_cast<double>(record_bytes);
  // Of the L(L+1)/2 compare-exchange passes (L = log2 n), the lowest log2(B) merge
  // stages of every sort/merge phase touch only B-record tiles that fit in L1; the
  // depth-first recursion runs those tile-resident and they cost sort_blocked_discount
  // relative to a streaming pass. Tile-local pass count: LB(LB+1)/2 for the phases
  // at or below the tile plus (L - LB) * LB for the tails of the larger phases.
  const double lb =
      std::min(lg, std::log2(static_cast<double>(SortBlockRecordsFor(record_bytes))));
  const double total_passes = lg * (lg + 1.0) / 2.0;
  const double tile_passes = lb * (lb + 1.0) / 2.0 + (lg - lb) * lb;
  const double tile_fraction = total_passes > 0.0 ? tile_passes / total_passes : 0.0;
  const double blocked_factor =
      (1.0 - tile_fraction) + tile_fraction * config_.sort_blocked_discount;
  return config_.sort_ns_per_byte * bytes * lg * lg * blocked_factor * 1e-9 *
         ThreadScale(threads);
}

double CostModel::BucketSortSeconds(uint64_t n, size_t record_bytes, uint64_t num_bins,
                                    int threads) const {
  if (n <= 1) {
    return 0.0;
  }
  const BucketSortParams params = ChooseBucketParams(n, num_bins, config_.lambda);
  if (!params.ok) {
    return BitonicSortSeconds(n, record_bytes, threads);
  }
  // BucketSortPassesPerElement counts streaming-equivalent compare-exchange passes
  // (routing levels at their merge-split factor, fixed label/emission passes, and
  // tile-resident cleanup at its locality discount). Calibrate the per-pass unit
  // cost against the bitonic anchor: BitonicSortSeconds charges sort_ns_per_byte
  // per byte per lg^2, i.e. lg^2 / (L(L+1)/2) ~= 2 units per streaming pass.
  const double bytes = static_cast<double>(n) * static_cast<double>(record_bytes);
  const double passes = BucketSortPassesPerElement(n, record_bytes, params);
  return 2.0 * config_.sort_ns_per_byte * bytes * passes * 1e-9 * ThreadScale(threads);
}

double CostModel::CompactSeconds(uint64_t n, size_t record_bytes, int threads) const {
  if (n <= 1) {
    return 0.0;
  }
  const double lg = std::log2(static_cast<double>(n));
  const double bytes = static_cast<double>(n) * static_cast<double>(record_bytes);
  return config_.compact_ns_per_byte * bytes * lg * 1e-9 * ThreadScale(threads);
}

uint64_t CostModel::QuantizeBatch(uint64_t batch) const {
  if (batch <= 256) {
    return batch;
  }
  // Round to a 1/16-octave log grid: smooth enough for the model, few enough distinct
  // values that the geometry search amortizes away.
  const double lg = std::log2(static_cast<double>(batch));
  const double snapped = std::round(lg * 16.0) / 16.0;
  return static_cast<uint64_t>(std::llround(std::exp2(snapped)));
}

const OhtParamsCacheEntry& CostModel::CachedOhtParams(uint64_t batch) const {
  const uint64_t q = QuantizeBatch(batch);
  const auto it = oht_cache_.find(q);
  if (it != oht_cache_.end()) {
    return it->second;
  }
  const OhtParams params = ChooseOhtParams(q, config_.lambda);
  OhtParamsCacheEntry entry;
  entry.lookup_slots = params.LookupCost();
  entry.tier1_records = q + params.bins1 * params.z1;
  entry.tier2_records = params.overflow_cap + params.bins2 * params.z2;
  return oht_cache_.emplace(q, entry).first->second;
}

uint64_t CostModel::OhtLookupSlots(uint64_t batch) const {
  if (batch == 0) {
    return 0;
  }
  return CachedOhtParams(batch).lookup_slots;
}

double CostModel::OhtBuildSeconds(uint64_t batch, int threads) const {
  if (batch == 0) {
    return 0.0;
  }
  // Construction is dominated by the tier-1 sort over batch + bins1*z1 records plus
  // the tier-2 bin placement sort over the (smaller) overflow set.
  const OhtParamsCacheEntry& entry = CachedOhtParams(batch);
  return BitonicSortSeconds(entry.tier1_records, RecordBytes(), threads) +
         BitonicSortSeconds(entry.tier2_records, RecordBytes(), threads) +
         CompactSeconds(entry.tier1_records + entry.tier2_records, RecordBytes(), threads);
}

double CostModel::SubOramBatchSeconds(uint64_t batch, uint64_t n_objects, int threads) const {
  if (batch == 0) {
    return 0.0;
  }
  const uint64_t object_bytes = 8 + config_.value_size;
  const uint64_t working_set = n_objects * object_bytes;

  // Figure 7 step 1: build the per-batch hash table.
  const double build = OhtBuildSeconds(batch, threads);

  // Figure 7 step 2: stream every object once (host loader path when over EPC) and
  // scan its two buckets: z1 + z2 oblivious compare-and-sets per object, each moving
  // the slot header plus the value payload through AVX-512 masked operations.
  const double stream = epc_.ScanSeconds(working_set, working_set) +
                        config_.scan_ns_per_byte * 1e-9 * static_cast<double>(working_set);
  const uint64_t slots = OhtLookupSlots(batch);
  const double per_slot_ns =
      config_.cmp_ns_per_slot + config_.cmp_ns_per_value_byte * config_.value_size;
  const double compare =
      static_cast<double>(n_objects) * static_cast<double>(slots) * per_slot_ns * 1e-9;

  // Figure 7 step 3: extract responses.
  const double extract = CompactSeconds(batch * 2, RecordBytes(), threads);

  return config_.suboram_fixed_s + (stream + compare) * ThreadScale(threads) + build + extract;
}

double CostModel::LbPrepareSeconds(uint64_t r, uint64_t s, int threads) const {
  if (r == 0) {
    return 0.0;
  }
  const uint64_t batch = BatchSize(r, s, config_.lambda);
  const uint64_t total = r + batch * s;
  return BitonicSortSeconds(total, RecordBytes(), threads) +
         CompactSeconds(total, RecordBytes(), threads);
}

double CostModel::LbMatchSeconds(uint64_t r, uint64_t s, int threads) const {
  if (r == 0) {
    return 0.0;
  }
  const uint64_t batch = BatchSize(r, s, config_.lambda);
  const uint64_t total = r + batch * s;
  return BitonicSortSeconds(total, RecordBytes(), threads) +
         CompactSeconds(total, RecordBytes(), threads);
}

double CostModel::NetworkBatchSeconds(uint64_t batch) const {
  const double bytes = static_cast<double>(batch) * static_cast<double>(RecordBytes());
  return config_.net_rtt_s / 2.0 + bytes / config_.net_bytes_per_s;
}

uint32_t CostModel::OblixRecursionLevels(uint64_t n_objects) const {
  uint32_t levels = 1;
  uint64_t m = n_objects;
  while (m > config_.oblix_flat_threshold) {
    m /= config_.oblix_posmap_fanout;
    ++levels;
  }
  return levels;
}

double CostModel::OblixAccessSeconds(uint64_t n_objects) const {
  // Each recursion level costs one doubly-oblivious path access; path length grows
  // with log2 of that level's size.
  double total_ns = 0.0;
  uint64_t m = n_objects;
  for (uint32_t level = 0; level < OblixRecursionLevels(n_objects); ++level) {
    const double lg = std::max(1.0, std::log2(static_cast<double>(std::max<uint64_t>(2, m))));
    total_ns += config_.oblix_path_ns_per_level * lg / std::log2(2e6);
    m /= config_.oblix_posmap_fanout;
  }
  return total_ns * 1e-9 * std::log2(2e6);
}

}  // namespace snoopy
