// The Snoopy oblivious object store (paper sections 3-5): L load balancers, S
// subORAMs, epoch-batched execution, linearizable semantics.
//
// This is the functional, single-process deployment: every component runs the real
// oblivious algorithms and real encrypted channels; only machine boundaries are
// simulated (see DESIGN.md). The discrete-event cluster model in src/sim reuses this
// class's cost structure for the multi-machine throughput figures.
//
// RunEpoch runs the epoch protocol of src/core/epoch.h over the sealed, retried
// subORAM exchange; around it this class keeps construction, client sessions,
// recovery, loss and repair, resharding, delivery and the epoch-boundary seal.

#ifndef SNOOPY_SRC_CORE_SNOOPY_H_
#define SNOOPY_SRC_CORE_SNOOPY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/epoch.h"
#include "src/core/load_balancer.h"
#include "src/core/request.h"
#include "src/core/striping.h"
#include "src/core/suboram.h"
#include "src/core/suboram_backend.h"
#include "src/crypto/rng.h"
#include "src/enclave/enclave.h"
#include "src/enclave/rollback.h"
#include "src/net/channel.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/retry.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

struct SnoopyConfig {
  uint32_t num_load_balancers = 1;
  uint32_t num_suborams = 1;
  size_t value_size = 160;
  uint32_t lambda = kDefaultLambda;
  // Worker threads for the epoch pipeline (Figure 9a): load balancers prepare and
  // match concurrently, and one task per subORAM applies its batches in load-balancer
  // order (Appendix C). 1 (default) is sequential; every setting gives identical
  // responses and byte-identical enclave traces (DESIGN.md "Threading model"). The
  // deployment's only parallelism setting: nested sorts run single-threaded.
  int epoch_threads = 1;
  // Partition the initial data with an oblivious sort, as in the paper's
  // LoadBalancer.Initialize (Appendix B, Figure 23). Costs O(n log^2 n); the default
  // plain partition is appropriate when the data owner loads their own data.
  bool oblivious_init = false;
  // Governs every load-balancer-to-subORAM call: transient faults (drops, lost or
  // corrupted replies) are retried with backoff until the deadline; a crashed subORAM
  // is recovered (sealed-snapshot restore + epoch replay) between attempts.
  RetryPolicy retry;
  // Redundant sealed-state striping + background repair (src/core/striping.h).
  // Requires num_suborams > replicas (+1 in parity mode): peers hold the stripes.
  StripingConfig striping;
};

// Thrown by Reshard when a participant fails at the reshard boundary. The old
// configuration is left fully intact (build-then-swap), so the caller recovers the
// crashed component as usual and may retry at a later epoch boundary.
class ReshardAbortedError : public std::runtime_error {
 public:
  explicit ReshardAbortedError(const std::string& what) : std::runtime_error(what) {}
};

struct ClientResponse {
  uint64_t client_id = 0;
  uint64_t client_seq = 0;
  uint64_t key = 0;
  uint8_t op = kOpRead;
  std::vector<uint8_t> value;
};

class Snoopy {
 public:
  Snoopy(const SnoopyConfig& config, uint64_t seed);
  // Deploys with a custom subORAM backend (paper section 3.1 / Figure 10, e.g. the
  // Oblix backend in src/baseline/oblix_backend.h). The default constructor uses the
  // throughput-optimized SubOram.
  Snoopy(const SnoopyConfig& config, uint64_t seed, const SubOramBackendFactory& factory);

  // The network handlers capture `this`; the instance must stay put.
  Snoopy(const Snoopy&) = delete;
  Snoopy& operator=(const Snoopy&) = delete;

  // Loads the object store, partitioning objects across subORAMs with the secret
  // keyed hash. Keys must be distinct and < kDummyKeyBase.
  void Initialize(const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects);

  // Enqueues a request into the current epoch at a uniformly random load balancer
  // (the paper's client behaviour, section 4.3); the *WithLb variants pin the load
  // balancer, which tests use to exercise cross-balancer interleavings.
  void SubmitRead(uint64_t client_id, uint64_t client_seq, uint64_t key);
  void SubmitWrite(uint64_t client_id, uint64_t client_seq, uint64_t key,
                   std::span<const uint8_t> value);
  void SubmitReadWithLb(uint32_t lb, uint64_t client_id, uint64_t client_seq, uint64_t key);
  void SubmitWriteWithLb(uint32_t lb, uint64_t client_id, uint64_t client_seq, uint64_t key,
                         std::span<const uint8_t> value);
  // Fully-specified submission (used by the access-control layer to attach verdicts).
  void SubmitRequest(const RequestHeader& header, std::span<const uint8_t> value);

  // Executes one epoch over everything enqueued and returns all responses. Reads in an
  // epoch observe the state before that epoch's writes at the same load balancer;
  // across load balancers, batches apply in load-balancer-id order.
  std::vector<ClientResponse> RunEpoch();

  uint64_t epoch() const { return epoch_; }
  size_t pending_requests() const;
  const SnoopyConfig& config() const { return config_; }
  const Network& network() const { return network_; }
  Network& network_mutable() { return network_; }

  // --- Fault injection and crash recovery (paper sections 4.3 and 9) -------------
  // Attaches a chaos source (non-owning; nullptr detaches). While attached, RunEpoch
  // tolerates injected drops/duplicates/corruption via retransmit-with-dedup and
  // recovers crashed components: a load balancer is rebuilt statelessly (it
  // re-prepares deterministically from the per-(lb, epoch) seed), a subORAM restores
  // its freshest sealed snapshot and replays the epoch so far. A snapshot that fails
  // rollback protection surfaces as RollbackDetectedError: stale state is never served.
  void set_fault_injector(FaultInjector* injector);
  VirtualClock& clock() { return clock_; }

  // --- Telemetry (leakage-safe; see src/telemetry/metrics.h) ----------------------
  // Epoch and phase durations (snoopy_epoch_seconds, snoopy_epoch_phase_seconds) and
  // public facts: requests, epochs, the padded batch size f(R, S), dedup hits,
  // retries, recoveries and per-pair wire traffic. Spans read the VirtualClock while
  // a fault injector is attached, steady_clock otherwise. Defaults to the process-wide
  // registry; nullptr disables recording.
  void set_metrics_registry(MetricsRegistry* registry);
  MetricsRegistry* metrics_registry() const { return metrics_; }

  // Span tracer for the epoch pipeline (src/telemetry/tracing.h): epoch -> phase ->
  // task spans plus per-worker pool summaries, all derived from the public epoch
  // schedule. Defaults to the process-global tracer (a no-op unless enabled via
  // SNOOPY_TRACE or Tracer::Enable); pass nullptr to opt this instance out.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Host-side sealed snapshot storage (untrusted in the threat model). The test
  // harness uses the replace hook to play a malicious host replaying stale state;
  // recovery must then refuse with UnsealStatus::kRollback.
  const std::vector<uint8_t>& suboram_snapshot(uint32_t so) const {
    return partitions_[so].snapshot;
  }
  void host_replace_snapshot(uint32_t so, std::vector<uint8_t> blob) {
    partitions_[so].snapshot = std::move(blob);
  }

  // --- Encrypted client sessions (used by SnoopyClient; paper section 3.1) --------
  // Registers an attested client: verifies the quote and establishes one encrypted
  // link per load balancer. Registered clients' responses are sealed into a per-client
  // mailbox instead of being returned from RunEpoch.
  void RegisterClient(uint64_t client_id, const AttestationQuote& client_quote);
  const AttestationQuote& lb_quote(uint32_t lb) const { return lb_enclaves_[lb]->quote(); }
  // The shared in-process link objects (client and balancer ends share counters).
  SecureLink& client_link(uint64_t client_id, uint32_t lb);
  // Drains the client's mailbox: [lb id (4 bytes) | sealed response] blobs.
  std::vector<std::vector<uint8_t>> TakeMailbox(uint64_t client_id);
  // The mailbox is host storage (untrusted); the test harness uses this hook to play a
  // malicious host writing its own blobs there.
  void host_append_mailbox(uint64_t client_id, std::vector<uint8_t> blob) {
    clients_.at(client_id).mailbox.push_back(std::move(blob));
  }

  // --- Permanent loss, striped redundancy, and background repair ------------------
  // A partition is kRepairing after its machine was permanently lost (NodeLost fault
  // or LoseSubOram): its requests defer to the epoch queue (resp = 0 failover) while
  // one fixed-size stripe slice is fetched per epoch, and after
  // striping.repair_epochs epochs it is rebuilt on a spare node and serves again.
  enum class PartitionHealth : uint8_t { kHealthy = 0, kRepairing = 1 };
  PartitionHealth partition_health(uint32_t so) const {
    return partitions_[so].repair ? PartitionHealth::kRepairing : PartitionHealth::kHealthy;
  }
  uint32_t repair_epochs_remaining(uint32_t so) const {
    return partitions_[so].repair ? partitions_[so].repair->epochs_remaining() : 0;
  }

  // Permanently loses subORAM `so` now and schedules its repair (RunEpoch calls it on
  // a node_loss fault; others only at an epoch boundary): backend contents, host
  // snapshot, per-epoch caches and the stripes it held for peers are wiped. A no-op
  // while `so` repairs; throws std::runtime_error when striping is disabled.
  void LoseSubOram(uint32_t so);

  // Epoch-boundary elastic resharding: gathers every partition (ExportSlab),
  // obliviously redistributes the key space over `new_num_suborams` bins
  // (src/core/reshard.h), and rebuilds subORAMs, load balancers, links and counters.
  // Any failure (an injected crash surfaces as ReshardAbortedError) leaves the old
  // configuration intact. Needs every partition healthy and export support; pending
  // requests and registered clients carry over.
  void Reshard(uint32_t new_num_suborams);

  // Host-side stripe storage (untrusted): the stripe peer `peer` holds for partition
  // `owner`. Tests use the replace hook to play a malicious host serving stale
  // stripes; repair must then refuse with RollbackDetectedError.
  using HostStripe = snoopy::HostStripe;
  const HostStripe* host_stripe(uint32_t peer, uint32_t owner) const {
    const auto it = partitions_[peer].stripes.find(owner);
    return it == partitions_[peer].stripes.end() ? nullptr : &it->second;
  }
  void host_replace_stripe(uint32_t peer, uint32_t owner, HostStripe stripe) {
    partitions_[peer].stripes[owner] = std::move(stripe);
  }

  // Test/inspection access.
  SubOramBackend& suboram(size_t i) { return *partitions_[i].backend; }
  uint32_t SubOramOf(uint64_t key) const { return lbs_[0]->SubOramOf(key); }

 private:
  // One subORAM as the paper deploys it (sections 3-4, 9): an enclave holding one
  // partition, reached over attested links from every load balancer, resealed under
  // its own trusted counter at every epoch boundary, plus what its (untrusted) host
  // keeps for it and for its peers. DESIGN.md "Partition record" lists which path
  // (crash restore, loss, repair completion, reshard) resets which field.
  struct Partition {
    std::unique_ptr<Enclave> enclave;
    std::unique_ptr<SubOramBackend> backend;
    uint64_t counter_id = 0;
    std::vector<uint8_t> snapshot;  // freshest sealed snapshot, in host storage
    // Its size at the last seal: public (the host stores exactly that many bytes), and
    // kept through a loss so repair can drop manifests promising a larger snapshot.
    uint64_t sealed_bytes = 0;
    // Per-epoch host bookkeeping. The response cache re-serves a retransmitted batch's
    // sealed response instead of re-executing it (Appendix C linearizability, no new
    // memory trace); the executed set is exactly what crash recovery must replay.
    std::map<uint32_t, std::vector<uint8_t>> response_cache;
    std::set<uint32_t> executed_lbs;
    // links[lb]: the encrypted link from load balancer lb. Bumping its generation
    // invalidates sealed-but-unsent bytes after a rekey.
    std::vector<std::unique_ptr<SecureLink>> links;
    std::vector<uint64_t> link_generation;
    // The repair since a loss (absent while healthy, so it is the health) with its plan,
    // countdown and fetched bytes: orchestrator thread only; phase-2 tasks report losses
    // instead of applying them. The stripes this host holds for its peers: written by the
    // stripe endpoint handler, inline on the caller's thread at epoch boundaries -- the
    // orchestrator, or the one push task per round that targets this peer.
    std::optional<StripeRepair> repair;
    StripeStore stripes;
  };

  // Creates subORAM id's backend from a seed: the paper's throughput-optimized SubOram
  // by default, or through a borrowed custom factory (which must outlive this instance
  // -- Reshard creates backends long after construction). Both public constructors
  // delegate to the one taking it.
  using BackendMaker = std::function<std::unique_ptr<SubOramBackend>(uint32_t, uint64_t)>;
  Snoopy(const SnoopyConfig& config, uint64_t seed, BackendMaker make_backend);
  // Builds subORAM so of a deployment `num_suborams` wide: a fresh enclave, a backend
  // seeded from rng_, and attested links to every load balancer. Its counter is
  // created by the caller, after the deployment's sealing key is drawn.
  Partition MakePartition(uint32_t so, uint32_t num_suborams);
  // Builds load balancer lb's state machine for a deployment `num_suborams` wide, from
  // the partition key and its base seed (construction, crash rebuild and reshard).
  std::unique_ptr<LoadBalancer> MakeLoadBalancer(uint32_t lb, uint32_t num_suborams) const;
  std::vector<uint8_t> SubOramEndpointHandler(uint32_t lb, uint32_t so,
                                              std::span<const uint8_t> payload);
  // Registers both network endpoints of subORAM so (batch execution + stripes).
  void RegisterSubOramEndpoints(uint32_t so);

  // The subORAM exchange the epoch protocol runs on: seals load balancer lb's prepared
  // batch for subORAM so into an epoch-tagged envelope (lazily, re-sealing only when
  // the link generation changes), runs it under the retry policy with crash recovery
  // and returns the opened response. Shared by the epoch loop and recovery replay.
  RequestBatch CallSubOram(uint32_t lb, uint32_t so,
                           const std::vector<LoadBalancer::PreparedEpoch>& prepared);
  // Runs `call` under the retry policy, counting every retry against (caller,
  // endpoint); a crash observed mid-call runs `recover` before the next attempt.
  std::vector<uint8_t> RetriedCall(const std::string& caller, const std::string& endpoint,
                                   uint64_t jitter_seed,
                                   const std::function<std::vector<uint8_t>()>& call,
                                   const std::function<void()>& recover);

  // Crash recovery. `prepared`/`lb_limit` drive the epoch replay: batches from load
  // balancers < lb_limit that the subORAM had already executed this epoch are re-sent
  // (its restored snapshot predates them). Pass nullptr/0 at an epoch boundary.
  void RecoverSubOram(uint32_t so, const std::vector<LoadBalancer::PreparedEpoch>* prepared,
                      uint32_t lb_limit);
  // The restore both crash recovery and repair completion run on a restarted (or
  // spare) enclave: restores partition so from `blob`, refusing stale or tampered
  // state with RollbackDetectedError, then starts fresh sessions with every load
  // balancer and drops the response cache.
  void RestorePartition(uint32_t so, std::span<const uint8_t> blob);
  // After a failed epoch, which seals nothing: every healthy partition whose backend
  // seals restores its boundary snapshot, so the failed epoch leaves no state behind,
  // its links are rekeyed (an undelivered batch desynchronized their counters) and no
  // cached reply of the failed epoch is re-served under the same epoch id. Clears the
  // per-epoch caches. Returns whether every partition that executed a batch this
  // epoch was restored, i.e. whether the epoch's requests may run again.
  bool RestoreFailedEpoch();
  void RecoverLoadBalancer(uint32_t lb);
  // Fresh session on link (lb, so) after an end restarted: draws the key under
  // rng_mu_ (concurrent subORAM recoveries share rng_) and bumps the link
  // generation so stale sealed bytes are re-sealed.
  void RekeyLink(uint32_t lb, uint32_t so);
  // The epoch-boundary sequence, also run by Initialize and Reshard: seal every
  // healthy partition (one pooled "seal" phase), clear every per-epoch dedup cache,
  // then push every healthy partition's stripes (rationale at the definition).
  void SealEpochBoundary();

  // --- Striping + repair transport (format and repair state machine: striping.h) ---
  // One stripe exchange under the retry policy with peer crash recovery. The request
  // is head ++ body (a store's header and payload, sent as one gathered call).
  std::vector<uint8_t> RetriedStripeCall(uint32_t so, uint32_t peer,
                                         std::span<const uint8_t> head,
                                         std::span<const uint8_t> body = {});
  // The stripe pushes of one boundary (SealEpochBoundary): pooled rounds, one per peer
  // rank.
  void PushStripes(const std::vector<StripeEncoding>& stripes);
  // Runs at the start of RunEpoch for every repairing partition: steps its StripeRepair
  // over retried stripe calls to its healthy peers (planning first, replanning when a
  // source vanishes) and restores the snapshot of the final step on the spare node.
  void RepairStep(uint32_t so);

  // The current epoch's telemetry: its number, the tracer, the metric handles (null
  // when telemetry is disabled) and the span clock.
  EpochTelemetry Telemetry() const;
  // Adds `n` to counter `name` (public events, or bytes of a public size); a no-op
  // when telemetry is disabled.
  void CountEvent(const std::string& name, const MetricLabels& labels = {},
                  uint64_t n = 1) const;

  BackendMaker make_backend_;

  SnoopyConfig config_;
  Rng rng_;
  // Guards rng_ during parallel phase 2: concurrent subORAM recoveries draw rekeying
  // material from the shared stream. Key *values* then depend on scheduling, but keys
  // only ever change ciphertext bytes, never message sizes, responses, or traces.
  std::mutex rng_mu_;
  SipKey partition_key_;
  uint64_t epoch_ = 0;

  std::vector<std::unique_ptr<Enclave>> lb_enclaves_;
  std::vector<std::unique_ptr<LoadBalancer>> lbs_;
  std::vector<uint64_t> lb_base_seeds_;  // per-LB seed underlying EpochSeed
  std::vector<Partition> partitions_;    // one per subORAM
  Network network_;

  std::vector<RequestBatch> pending_;  // one accumulation buffer per load balancer

  // --- Robustness state -----------------------------------------------------------
  FaultInjector* fault_injector_ = nullptr;
  VirtualClock clock_;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  Tracer* tracer_ = &Tracer::Global();
  // Resolved against metrics_ whenever it is set, so every phase reads filled handles.
  EpochMetrics metrics_cache_;

  // Rollback-protected persistence: one trusted counter per subORAM, snapshots kept
  // in (untrusted) host storage, resealed in place at every epoch boundary.
  MonotonicCounterService counters_;
  std::unique_ptr<SealedStore> sealed_store_;

  struct ClientSession {
    std::vector<std::unique_ptr<SecureLink>> links;  // one per load balancer
    std::vector<std::vector<uint8_t>> mailbox;       // sealed responses
  };
  std::map<uint64_t, ClientSession> clients_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_SNOOPY_H_
