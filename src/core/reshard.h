// Oblivious key-space redistribution (epoch-boundary resharding).
//
// Changing the number of subORAMs moves every object: the partition function is a
// secret keyed hash of the object key, so which objects move -- and where -- is
// secret. Redistribution therefore runs the same oblivious machinery as the paper's
// LoadBalancer.Initialize (Appendix B, Figure 23): tag each record with its (secret)
// target partition, obliviously sort by the tag, and split at the *public* partition
// boundaries (partition sizes are public: each subORAM receives its partition in the
// clear inside its enclave, exactly as at initial load).
//
// This is the shared helper behind both Snoopy::InitializeOblivious (initial load)
// and Snoopy::Reshard (live scale-up/scale-down); keeping the secret-handling loop in
// one lint-enforced file keeps bin placement over secret keys inside an audited
// oblivious region.

#ifndef SNOOPY_SRC_CORE_RESHARD_H_
#define SNOOPY_SRC_CORE_RESHARD_H_

#include <cstdint>
#include <vector>

#include "src/crypto/siphash.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/slab.h"

namespace snoopy {

// Redistribution record layout: bin(4) | pad(4) | key(8) | value(value_size).
inline constexpr size_t kReshardHeaderBytes = 16;
inline constexpr size_t kReshardKeyOffset = 8;

// Maps a keyed partition hash onto [0, num_bins) without division: Lemire's
// multiply-shift reduction ((hash * num_bins) >> 64). The hash is secret-derived, and
// x86 div/idiv latency depends on operand magnitude, so `hash % num_bins` would make
// partition assignment variable-time in the secret hash (binary taint rule B03 in
// tools/ct_dataflow.py); the 64x64->128 multiply is constant-time. Every consumer of
// the partition function (LoadBalancer::SubOramOf, resharding) must use this same
// reduction so routing and placement agree.
inline uint32_t PartitionBinOfHash(uint64_t hash, uint32_t num_bins) {
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(hash) * num_bins) >> 64);
}

// The secret-handling core of PartitionSlabByBin: tags every key(8) | value record
// with its (secret) target bin under the keyed partition hash and obliviously sorts
// by the tag. Returns the tagged slab (layout bin(4) | pad(4) | key(8) | value) in
// bin order. Standalone -- rather than folded into PartitionSlabByBin -- so the
// binary-level taint verifier (tools/ct_dataflow.py) can audit exactly the compiled
// form of the secret-dependent region, without the public boundary split that
// legitimately branches on the (declassified-by-contract) sorted tags.
// `sort_strategy` selects the oblivious sort implementation; the bucket strategy is
// eligible here because the tags are a fresh keyed hash of distinct store keys, so
// the bin multiset is simulatable from (n, num_bins). Ties within a bin break by the
// (secret) record key, making the output order total and strategy-independent.
ByteSlab TagAndSortByBin(const ByteSlab& records, const SipKey& partition_key,
                         uint32_t num_bins, size_t value_size,
                         SortStrategy sort_strategy = SortStrategy::kBitonic,
                         uint32_t lambda = 40);

// Obliviously partitions `records` -- a slab of key(8) | value(value_size) records --
// into `num_bins` partitions under the secret keyed partition hash. Returns one slab
// per bin in the store layout (key(8) | value), ready for SubOramBackend::Initialize.
// Cost O(n log^2 n) oblivious sort; the per-record tag assignment and the sort run
// inside an audited oblivious region, the boundary split is public by the partition-
// size argument above.
std::vector<ByteSlab> PartitionSlabByBin(const ByteSlab& records, const SipKey& partition_key,
                                         uint32_t num_bins, size_t value_size,
                                         SortStrategy sort_strategy = SortStrategy::kBitonic,
                                         uint32_t lambda = 40);

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_RESHARD_H_
