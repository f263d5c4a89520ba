// Pluggable subORAM backends.
//
// "Snoopy can be deployed using any oblivious storage scheme for hardware enclaves as
// a subORAM" (paper section 3.1); the evaluation demonstrates this by running Oblix
// under the Snoopy load balancer (Figure 10). This interface is that seam: the
// orchestrator only needs batch execution over a partition. Two implementations ship:
//   - SubOram (core/suboram.h): the paper's throughput-optimized linear-scan design;
//   - OblixSubOramBackend (below): a latency-optimized tree-ORAM backend that serves
//     the batch as sequential doubly-oblivious Path ORAM accesses.

#ifndef SNOOPY_SRC_CORE_SUBORAM_BACKEND_H_
#define SNOOPY_SRC_CORE_SUBORAM_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/request.h"
#include "src/enclave/rollback.h"
#include "src/obl/slab.h"

namespace snoopy {

class SubOramBackend {
 public:
  virtual ~SubOramBackend() = default;

  // Loads the partition (distinct keys < kDummyKeyBase).
  virtual void Initialize(
      const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) = 0;

  // Executes one distinct-key batch; returns exactly batch.size() response records
  // with resp = 1. Must satisfy the Definition 2 contract (reads return the pre-batch
  // value; the last write per key applies).
  virtual RequestBatch ProcessBatch(RequestBatch&& batch) = 0;

  virtual size_t num_objects() const = 0;

  // --- Rollback-protected persistence (paper section 9) ---------------------------
  // Optional: backends that can seal their partition to a counter-bound snapshot and
  // restore it after a crash override these three. The orchestrator snapshots every
  // sealing backend at each epoch boundary and uses RestoreState to recover a crashed
  // subORAM; backends without sealing support simply cannot be crash-recovered.
  //
  // SealStateInto overwrites `blob` with the sealed snapshot, reusing its capacity
  // (the orchestrator passes the partition's previous snapshot, stale once the
  // counter is bumped). The orchestrator seals distinct partitions concurrently, one
  // pool task each, so the hook may only read this backend's own state.
  virtual bool SupportsSealing() const { return false; }
  virtual void SealStateInto(SealedStore& store, uint64_t counter_id,
                             std::vector<uint8_t>& blob) const {
    (void)store;
    (void)counter_id;
    blob.clear();
  }
  virtual UnsealStatus RestoreState(SealedStore& store, uint64_t counter_id,
                                    std::span<const uint8_t> blob) {
    (void)store;
    (void)counter_id;
    (void)blob;
    return UnsealStatus::kCorrupt;
  }

  // --- Partition export (elastic resharding) --------------------------------------
  // Optional: backends that can hand their partition back as a flat
  // key(8) | value(value_size) slab override these two. Resharding gathers every
  // partition through this hook before obliviously redistributing the key space;
  // backends without export support cannot be resharded.
  virtual bool SupportsExport() const { return false; }
  virtual ByteSlab ExportSlab() const {
    throw std::logic_error("subORAM backend does not support partition export");
  }
};

// Factory signature the orchestrator consumes: (partition id, seed) -> backend.
struct SubOramBackendFactory {
  virtual ~SubOramBackendFactory() = default;
  virtual std::unique_ptr<SubOramBackend> Create(uint32_t id, uint64_t seed) const = 0;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_SUBORAM_BACKEND_H_
