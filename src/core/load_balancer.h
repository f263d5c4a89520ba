// The oblivious load balancer (paper section 4).
//
// Per epoch a load balancer takes the client requests it received, obliviously builds
// one equal-sized batch per subORAM (Figure 5), ships the batches, and -- when the
// subORAM responses come back -- obliviously matches them to the original requests
// (Figure 6). Batch size is the public bound f(R, S) of Theorem 3, so the batch
// structure leaks nothing about request contents; duplicate requests are aggregated
// with last-write-wins so skewed workloads cannot overflow a batch.
//
// Load balancers are stateless across epochs and share only the static partitioning
// key, which is what lets Snoopy add load balancers without coordination (section 4.3).

#ifndef SNOOPY_SRC_CORE_LOAD_BALANCER_H_
#define SNOOPY_SRC_CORE_LOAD_BALANCER_H_

#include <cstdint>
#include <vector>

#include "src/core/request.h"
#include "src/crypto/rng.h"
#include "src/crypto/siphash.h"
#include "src/obl/bucket_sort.h"

namespace snoopy {

struct LoadBalancerConfig {
  uint32_t id = 0;
  uint32_t num_suborams = 1;
  size_t value_size = 160;
  uint32_t lambda = kDefaultLambda;
  // Strategy for the load balancer's oblivious sorts. Both load-balancer sorts are
  // bucket-INELIGIBLE -- PrepareBatches sorts pre-dedup requests whose bin tags
  // repeat per duplicate key (revealing them leaks key multiplicity), MatchResponses
  // sorts by secret object id with no bin structure at all -- so both resolve to the
  // bitonic fallback regardless of this setting. The field exists so the config
  // plumbs uniformly and future simulatable sites can opt in.
  SortStrategy sort_strategy = SortStrategy::kBitonic;
};

class LoadBalancer {
 public:
  // `partition_key` is the keyed-hash key mapping objects to subORAMs; it is shared by
  // all load balancers and unknown to the adversary.
  LoadBalancer(const LoadBalancerConfig& config, const SipKey& partition_key,
               uint64_t rng_seed);

  // Which subORAM stores `key`. Also used at initialization time to partition data.
  uint32_t SubOramOf(uint64_t key) const;

  // Everything the load balancer must remember between sending batches and receiving
  // responses: the original request list (for matching) and the epoch's batch size.
  struct PreparedEpoch {
    std::vector<RequestBatch> suboram_batches;  // one per subORAM, each of size B
    RequestBatch originals;                     // the R client requests, bins computed
    uint64_t batch_size = 0;                    // B = f(R, S)
  };

  // Figure 5. Consumes the epoch's client requests (any number, any distribution) and
  // produces S batches of exactly f(R, S) distinct-key requests each. Aborts (throws)
  // only on the negligible-probability bound overflow.
  PreparedEpoch PrepareBatches(RequestBatch&& client_requests);

  // Same, but with the epoch's dummy-key randomness fixed by `epoch_seed`: preparing
  // the same requests under the same seed yields byte-identical batches. This is what
  // makes load balancers rebuildable after a crash (paper section 4.3 -- they are
  // stateless across epochs): the orchestrator derives epoch_seed from (load balancer
  // id, epoch number), so a replacement re-prepares its epoch deterministically.
  PreparedEpoch PrepareBatches(RequestBatch&& client_requests, uint64_t epoch_seed);

  // Figure 6. Consumes the prepared state plus the S response batches and returns one
  // response record per original client request (header carries client_id/client_seq;
  // value carries the response payload).
  RequestBatch MatchResponses(PreparedEpoch&& epoch, std::vector<RequestBatch>&& responses);

  const LoadBalancerConfig& config() const { return config_; }

 private:
  LoadBalancerConfig config_;
  SipKey partition_key_;
  Rng rng_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_LOAD_BALANCER_H_
