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
#include "src/obl/hash_table.h"
#include "src/obl/kernels.h"
#include "src/obl/secret.h"
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

// SNOOPY_OBLIVIOUS_BEGIN(suboram_scan_columns)
// ct-public: r count stride slots columns
// The scan's match columns (Figure 7 step 2), the one place a request header becomes
// scan masks. For `count` OHT slots `stride` bytes apart, four columns of `count`
// words at `columns`: the slot's key, live = !dummy, wr = is_write & granted and
// gr = granted. Against a stored object's key (public: the scan visits every stored
// key), AccessColumns then gives the slot
//   match = (key == obj_key) & live, write = match & wr, keep = match & gr.
// Write path: object <- request payload if a granted write matches. Response path:
// slot <- the object's pre-state for reads and writes alike, except that a denied
// access returns null rather than data (Appendix D). Request contents (key, op, dummy
// flag, access decision) are secret; the pass reads every slot and writes every column
// word at public addresses, without a branch.
inline void BuildScanColumns(const uint8_t* slots, size_t count, size_t stride,
                             uint64_t* columns) {
  for (size_t r = 0; r < count; ++r) {
    const auto* req = reinterpret_cast<const RequestHeader*>(slots + r * stride);
    const SecretBool granted = SecretBool::FromWord(req->granted);
    const SecretBool is_write = SecretU64(req->op) == SecretU64(kOpWrite);
    columns[r] = req->key;
    columns[count + r] = (!SecretBool::FromWord(req->dummy)).mask();
    columns[2 * count + r] = (is_write & granted).mask();
    columns[3 * count + r] = granted.mask();
  }
}
// SNOOPY_OBLIVIOUS_END(suboram_scan_columns)

// The AccessColumns, against `obj_key`, of a run starting at slot `first` of a tier
// whose BuildScanColumns columns (of `slots` words each) are at `columns`.
inline AccessColumns ScanRunColumns(const uint64_t* columns, size_t slots, size_t first,
                                    uint64_t obj_key) {
  const uint64_t* key = columns + first;
  return AccessColumns{key, key + slots, key + 2 * slots, key + 3 * slots, obj_key};
}

// Figure 7 step 2 over a built request table: the match columns of both tiers, then
// one pass over every stored object (key(8) | value(value_size) records), in storage
// order, with one KernelAccessRun per candidate bucket. SubOram::ProcessBatch's scan,
// and what the scan micro-bench times.
void ScanStore(ByteSlab& store, size_t value_size, TwoTierOht& table);

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
