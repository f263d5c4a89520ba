// The throughput-optimized subORAM (paper section 5, Figure 7).
//
// A subORAM stores one partition of the object store and processes *batches* of
// distinct-key requests. Instead of a polylogarithmic per-request structure it:
//   1. builds a two-tier oblivious hash table over the incoming batch (re-keyed per
//      batch),
//   2. makes one linear scan over every stored object, scanning the object's two
//      candidate buckets in full and applying oblivious compare-and-sets in both
//      directions (so reads and writes are indistinguishable), and
//   3. obliviously compacts the hash table back into a batch of responses.
// Amortized over a large batch, the single scan is concretely cheaper in the enclave
// setting than polylog ORAM accesses -- that is the paper's core subORAM insight.
//
// Write-back semantics: a write stores its payload and its response carries the
// *previous* value, which is what makes the load balancer's response propagation give
// same-epoch readers the pre-state (reads serialize before writes inside a batch,
// paper Appendix C).

#ifndef SNOOPY_SRC_CORE_SUBORAM_H_
#define SNOOPY_SRC_CORE_SUBORAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/request.h"
#include "src/core/suboram_backend.h"
#include "src/crypto/rng.h"
#include "src/enclave/rollback.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/slab.h"

namespace snoopy {

struct SubOramConfig {
  uint32_t id = 0;
  size_t value_size = 160;
  uint32_t lambda = kDefaultLambda;
  // Strategy for the hash-table construction sorts (the batch-processing critical
  // path). Both OHT sorts are bucket-eligible: the batch carries distinct keys and
  // bins are fresh keyed hashes, so the bin multiset is simulatable.
  SortStrategy sort_strategy = SortStrategy::kBitonic;
  // Verify the batch-distinctness precondition (Definition 2) before processing. The
  // load balancer guarantees it; standalone users should leave the check on.
  bool check_distinct = true;
};

class SubOram : public SubOramBackend {
 public:
  SubOram(const SubOramConfig& config, uint64_t rng_seed);

  // Loads the partition. Keys must be distinct and < kDummyKeyBase.
  void Initialize(ByteSlab&& objects);
  // Convenience: build the slab from (key, value) pairs.
  void Initialize(
      const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) override;

  size_t num_objects() const override { return store_.size(); }
  size_t value_size() const { return config_.value_size; }

  // Executes one batch (Figure 7). Consumes the batch, returns exactly batch.size()
  // response records (the dummy requests' responses included -- the load balancer
  // compacts those away). Throws std::invalid_argument if the batch contains duplicate
  // keys and checking is enabled; throws std::runtime_error on the
  // negligible-probability hash-table construction abort.
  RequestBatch ProcessBatch(RequestBatch&& batch) override;

  // Direct (non-batched) read used by tests and the recursive access-control store to
  // inspect state between epochs. Not oblivious; never called on the request path.
  bool DebugRead(uint64_t key, std::vector<uint8_t>* value_out) const;

  // Rollback-protected persistence (paper section 9): seals the partition to a
  // counter-bound snapshot (one trusted-counter bump per call) and restores it only if
  // it is the freshest snapshot ever sealed.
  bool SupportsSealing() const override { return true; }
  void SealStateInto(SealedStore& store, uint64_t counter_id,
                     std::vector<uint8_t>& blob) const override;
  // The same snapshot in a fresh buffer.
  std::vector<uint8_t> SealState(SealedStore& store, uint64_t counter_id) const;
  UnsealStatus RestoreState(SealedStore& store, uint64_t counter_id,
                            std::span<const uint8_t> blob) override;

  // Partition export for resharding: a copy of the flat store (key(8) | value).
  bool SupportsExport() const override { return true; }
  ByteSlab ExportSlab() const override { return store_; }

 private:
  SubOramConfig config_;
  Rng rng_;
  // Flat object store: key(8) | value(value_size) per record.
  ByteSlab store_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_SUBORAM_H_
