// The Snoopy oblivious object store (paper sections 3-5): L load balancers, S
// subORAMs, epoch-batched execution, linearizable semantics.
//
// This is the functional, single-process deployment: every component runs the real
// oblivious algorithms and real encrypted channels; only machine boundaries are
// simulated (see DESIGN.md). The discrete-event cluster model in src/sim reuses this
// class's cost structure for the multi-machine throughput figures.
//
// Epoch flow (one call to RunEpoch):
//   1. each load balancer independently turns its pending client requests into S
//      equal-sized batches (Figure 5),
//   2. every subORAM executes the load balancers' batches in a fixed order
//      (load-balancer id), which with reads-before-writes inside a batch yields the
//      linearization of Appendix C,
//   3. each load balancer matches responses back to its clients (Figure 6).

#ifndef SNOOPY_SRC_CORE_SNOOPY_H_
#define SNOOPY_SRC_CORE_SNOOPY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/load_balancer.h"
#include "src/core/request.h"
#include "src/core/suboram.h"
#include "src/core/suboram_backend.h"
#include "src/crypto/rng.h"
#include "src/crypto/sha256.h"
#include "src/enclave/enclave.h"
#include "src/enclave/rollback.h"
#include "src/net/channel.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/retry.h"
#include "src/obl/parallel.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

// Redundant sealed-state striping (durable repair after permanent machine loss).
// At every epoch seal each subORAM's counter-bound sealed snapshot is striped to peer
// subORAMs over the message network; when a machine is permanently lost, the repair
// coordinator reconstructs its partition on a spare node from the surviving stripes
// over a fixed, public number of epochs (the repair rate is a function of snapshot
// geometry only, never of the request pattern -- the Cloak-style fixed temporal
// distribution argument).
struct StripingConfig {
  // Peer count holding redundant state per partition. 0 disables striping: a
  // permanently lost partition is then unrecoverable and RunEpoch throws.
  // Replication mode (xor_parity = false): each of the `replicas` successor peers
  // holds a full copy of the sealed snapshot (storage overhead = replicas).
  // Parity mode (xor_parity = true): the snapshot splits into `replicas` data chunks
  // on `replicas` peers plus one XOR parity chunk on a further peer (storage
  // overhead = 1/replicas; survives any single peer loss).
  uint32_t replicas = 0;
  bool xor_parity = false;
  // Public repair schedule: a lost partition is reconstructed over exactly this many
  // epochs, one fixed-size slice per epoch (slice size = total stripe bytes /
  // repair_epochs, a public function of the snapshot size).
  uint32_t repair_epochs = 4;
};

struct SnoopyConfig {
  uint32_t num_load_balancers = 1;
  uint32_t num_suborams = 1;
  size_t value_size = 160;
  uint32_t lambda = kDefaultLambda;
  // Oblivious sort strategy for the hot sorts (subORAM hash-table construction,
  // reshard partitioning). kAuto picks bitonic vs bucket per call site from the cost
  // model's crossover; SNOOPY_SORT_STRATEGY overrides at runtime. Sites whose bin
  // tags are not simulatable (the load balancer's pre-dedup and match sorts) always
  // run bitonic regardless. Both strategies yield identical responses and traces
  // that are thread-count-invariant per strategy; see DESIGN.md "Oblivious sorting".
  SortStrategy sort_strategy = SortStrategy::kAuto;
  // Worker threads for the epoch pipeline (Figure 9a's scaling claim needs the
  // orchestrator off the critical path): phase 1 prepares load-balancer batches
  // concurrently, phase 2 runs one worker per subORAM (each applying its batches in
  // load-balancer order, preserving the Appendix C linearization per subORAM), and
  // phase 3 matches responses concurrently per load balancer. 1 (default) is fully
  // sequential. Any setting produces identical client responses and, with per-thread
  // trace buffers merged in public-id order, byte-identical enclave traces; see
  // DESIGN.md "Threading model". This is the deployment's only parallelism setting:
  // the sorts nested inside each component run single-threaded.
  int epoch_threads = 1;
  bool check_distinct = true;
  // Partition the initial data with an oblivious sort, as in the paper's
  // LoadBalancer.Initialize (Appendix B, Figure 23). Costs O(n log^2 n); the default
  // plain partition is appropriate when the data owner loads their own data.
  bool oblivious_init = false;
  // Governs every load-balancer-to-subORAM call: transient faults (drops, lost or
  // corrupted replies) are retried with backoff until the deadline; a crashed subORAM
  // is recovered (sealed-snapshot restore + epoch replay) between attempts.
  RetryPolicy retry;
  // Redundant sealed-state striping + background repair (see StripingConfig above).
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
  // tolerates injected drops/duplicates/corruption via retransmit-with-dedup, polls
  // for epoch-boundary component crashes, and recovers crashed components: a load
  // balancer is rebuilt statelessly (it re-prepares its epoch deterministically from
  // the per-(lb, epoch) seed), a subORAM is restored from its freshest sealed
  // snapshot and replayed to its pre-crash position in the epoch. A snapshot that
  // fails rollback protection surfaces as RollbackDetectedError: stale state is never
  // served.
  void set_fault_injector(FaultInjector* injector);
  VirtualClock& clock() { return clock_; }

  // --- Telemetry (leakage-safe; see src/telemetry/metrics.h) ----------------------
  // Epoch phases are timed as spans (snoopy_epoch_seconds root, per-phase
  // snoopy_epoch_phase_seconds{phase=...} children) and public facts are counted:
  // requests, epochs, the public batch size f(R, S), retransmit-dedup hits, retries
  // and recoveries per endpoint/component, and the network's per-pair wire traffic.
  // Spans run off steady_clock normally and off the deterministic VirtualClock while
  // a fault injector is attached. Defaults to the process-wide registry; pass nullptr
  // to disable recording entirely (the disabled path is a handful of null checks).
  void set_metrics_registry(MetricsRegistry* registry) { metrics_ = registry; }
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

  // --- Permanent loss, striped redundancy, and background repair ------------------
  // A partition is kHealthy, or kRepairing after its machine was permanently lost
  // (NodeLost fault or LoseSubOram below). While repairing, its requests are deferred
  // back to the epoch queue (resp = 0 failover) and the repair coordinator fetches a
  // fixed-size stripe slice per epoch; after striping.repair_epochs epochs the
  // partition is reconstructed on a spare node and serves again.
  enum class PartitionHealth : uint8_t { kHealthy = 0, kRepairing = 1 };
  PartitionHealth partition_health(uint32_t so) const;
  uint32_t repair_epochs_remaining(uint32_t so) const;

  // Permanently loses subORAM `so` right now and schedules its repair (a test/bench
  // hook; RunEpoch calls it too when a FaultProfile::node_loss* fault fires): backend
  // contents, host snapshot, per-epoch caches and the stripes it held for peers are
  // all wiped. A no-op while `so` already repairs. Throws std::runtime_error when
  // striping is disabled -- the partition would be unrecoverable. Callers outside
  // RunEpoch call it only at an epoch boundary.
  void LoseSubOram(uint32_t so);

  // Epoch-boundary elastic resharding: gathers every partition (ExportSlab),
  // obliviously redistributes the key space over `new_num_suborams` bins through the
  // bin-placement sort machinery (src/core/reshard.h), and rebuilds subORAMs, load
  // balancers, links and rollback counters for the new width. Build-then-swap: any
  // failure (including an injected participant crash, surfaced as
  // ReshardAbortedError) leaves the old configuration fully intact. Requires every
  // partition healthy and a backend with export support. Call only at an epoch
  // boundary; pending requests and registered clients carry over.
  void Reshard(uint32_t new_num_suborams);

  // Host-side stripe storage (untrusted): the stripe peer `peer` holds for partition
  // `owner`. Tests use the replace hook to play a malicious host serving stale
  // stripes; repair must then refuse with RollbackDetectedError.
  struct HostStripe {
    uint64_t seal_counter = 0;  // counter value bound into the striped snapshot
    uint32_t chunk_index = 0;   // parity mode: data chunk index, or chunk_count = parity
    uint32_t chunk_count = 0;   // data chunks per snapshot (1 in replication mode)
    uint64_t blob_len = 0;      // sealed snapshot length before chunking
    std::vector<uint8_t> payload;
  };
  const HostStripe* host_stripe(uint32_t peer, uint32_t owner) const;
  void host_replace_stripe(uint32_t peer, uint32_t owner, HostStripe stripe);

  // Test/inspection access.
  SubOramBackend& suboram(size_t i) { return *partitions_[i].backend; }
  uint32_t SubOramOf(uint64_t key) const { return lbs_[0]->SubOramOf(key); }

 private:
  // Repair progress of one lost partition (RepairStep).
  struct RepairState {
    uint32_t epochs_remaining = 0;
    bool planned = false;
    // Fetch plan (from peer manifests): `needed[i]` = (peer, chunk_index) sources,
    // all chunks `chunk_len` bytes, reassembling a `blob_len`-byte snapshot sealed at
    // counter value `seal_counter`. `parity_substituted` is the data chunk index the
    // parity chunk stands in for (-1 if none).
    uint64_t seal_counter = 0;
    uint32_t chunk_count = 0;
    uint64_t blob_len = 0;
    uint64_t chunk_len = 0;
    int parity_substituted = -1;
    std::vector<std::pair<uint32_t, uint32_t>> needed;
    std::vector<std::vector<uint8_t>> buffers;  // fetched bytes, one per needed chunk
    uint64_t cursor = 0;                        // bytes fetched so far across chunks
  };

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
    // Per-epoch host bookkeeping. The response cache deduplicates retransmitted
    // batches per load balancer (a retransmission re-serves the cached sealed response
    // instead of re-executing, preserving Appendix C linearizability and leaking no
    // new memory trace); the executed set records which load balancers' batches have
    // been applied this epoch, which is exactly what crash recovery must replay.
    std::map<uint32_t, std::vector<uint8_t>> response_cache;
    std::set<uint32_t> executed_lbs;
    // links[lb]: the encrypted link from load balancer lb. Bumping its generation
    // invalidates sealed-but-unsent bytes after a rekey.
    std::vector<std::unique_ptr<SecureLink>> links;
    std::vector<uint64_t> link_generation;
    PartitionHealth health = PartitionHealth::kHealthy;  // guarded by health_mu_
    RepairState repair;                                  // guarded by health_mu_
    // stripes[owner]: the stripe this host holds for peer `owner`. Only touched on
    // the orchestrator thread (seal/distribute/repair at epoch boundaries; the stripe
    // endpoint handler runs inline on the caller's thread).
    std::map<uint32_t, HostStripe> stripes;
  };

  // The epoch phases with a duration histogram (snoopy_epoch_phase_seconds{phase});
  // the first kNumPooledPhases run as one RunPhase each and carry pool metrics.
  enum Phase : uint8_t { kLbPrepare, kSubOramExecute, kResponseMatch, kSeal, kRepair };
  static constexpr size_t kNumPhases = 5;
  static constexpr size_t kNumPooledPhases = 4;

  // Shared constructor body; factory_ must be set before calling.
  void Construct();
  // Builds subORAM so of a deployment `num_suborams` wide: a fresh enclave, a backend
  // seeded from rng_, and attested links to every load balancer. Its counter is
  // created by the caller, after the deployment's sealing key is drawn.
  Partition MakePartition(uint32_t so, uint32_t num_suborams);
  void InitializeOblivious(
      const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects);
  std::vector<uint8_t> SubOramEndpointHandler(uint32_t lb, uint32_t so,
                                              std::span<const uint8_t> payload);
  // Host-level stripe traffic (store / manifest / fetch) at peer `so`.
  std::vector<uint8_t> StripeEndpointHandler(uint32_t so, std::span<const uint8_t> payload);
  // Registers both network endpoints of subORAM so (batch execution + stripes).
  void RegisterSubOramEndpoints(uint32_t so);

  // Seeds load balancer lb's epoch preparation; equal (lb, epoch) means equal batches,
  // which is what lets a rebuilt load balancer re-prepare deterministically.
  uint64_t EpochSeed(uint32_t lb, uint64_t epoch) const;

  // Calls subORAM so with load balancer lb's prepared batch under the retry policy,
  // recovering the subORAM if it crashes mid-call. Returns the opened response batch.
  RequestBatch CallSubOram(uint32_t lb, uint32_t so,
                           const std::vector<LoadBalancer::PreparedEpoch>& prepared);
  // The underlying retried exchange: seals `serialized` into an epoch-tagged envelope
  // (lazily, re-sealing only when the link generation changes) and runs it under the
  // retry policy with crash recovery. Shared by the epoch loop and recovery replay.
  std::vector<uint8_t> RetriedSubOramCall(
      uint32_t lb, uint32_t so, const std::vector<uint8_t>& serialized,
      const std::vector<LoadBalancer::PreparedEpoch>* prepared);
  // Runs `call` under the retry policy, counting every retry against (caller,
  // endpoint); a crash observed mid-call recovers subORAM so (RecoverSubOram with
  // `prepared`/`lb_limit`) before the next attempt.
  std::vector<uint8_t> RetriedCall(const std::string& caller, const std::string& endpoint,
                                   uint64_t jitter_seed,
                                   const std::function<std::vector<uint8_t>()>& call,
                                   uint32_t so,
                                   const std::vector<LoadBalancer::PreparedEpoch>* prepared,
                                   uint32_t lb_limit);

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
  void RecoverLoadBalancer(uint32_t lb);
  // Fresh session on link (lb, so) after an end restarted: draws the key under
  // rng_mu_ (concurrent subORAM recoveries share rng_) and bumps the link
  // generation so stale sealed bytes are re-sealed.
  void RekeyLink(uint32_t lb, uint32_t so);
  // The epoch-boundary sequence, also run by Initialize and Reshard: seal every
  // healthy partition (one pooled "seal" phase), then clear every per-epoch dedup
  // cache, then distribute every healthy partition's stripes (ordering rationale at
  // the definition).
  void SealEpochBoundary();

  // --- Striping + repair internals --------------------------------------------------
  // The successor peers holding partition so's stripes: replicas of them in
  // replication mode, replicas + 1 (the last holds the XOR parity chunk) in parity
  // mode.
  uint32_t StripePeerCount() const;
  std::vector<uint32_t> StripePeers(uint32_t so) const;
  // What partition so pushes for its current sealed snapshot, computed once per seal
  // inside the pooled seal task: the digest of every distinct chunk (one in
  // replication mode, shared by every replica peer; one per data chunk plus the
  // parity chunk in parity mode) and, in parity mode, the parity chunk itself. Data
  // chunks are not copied: they are slices of the snapshot, zero-padded on the wire.
  // Empty `digests` means there is nothing to push.
  struct StripeEncoding {
    uint64_t seal_counter = 0;
    uint64_t chunk_len = 0;               // parity mode only
    std::vector<Sha256::Digest> digests;  // indexed by chunk index
    std::vector<uint8_t> parity;
  };
  // Reads only partition so's snapshot and counter, so distinct partitions may
  // encode concurrently.
  StripeEncoding EncodeStripes(uint32_t so) const;
  // Pushes partition so's current sealed snapshot to its stripe peers. Peers that are
  // themselves lost/repairing or unreachable are skipped (counted); redundancy
  // re-converges at their next healthy seal. Must run only after *every* partition
  // sealed this boundary, so a peer crash-recovery triggered by the push restores
  // post-epoch state with nothing to replay.
  void DistributeStripes(uint32_t so, const StripeEncoding& encoding);
  // One stripe exchange under the retry policy with peer crash recovery.
  std::vector<uint8_t> RetriedStripeCall(uint32_t so, uint32_t peer,
                                         const std::vector<uint8_t>& request);
  // Runs at the start of RunEpoch for every repairing partition: fetches this epoch's
  // fixed-size slice (planning sources from peer manifests on the first step) and, on
  // the final step, reassembles + restores the snapshot and reincarnates the node.
  void RepairStep(uint32_t so);
  void PlanRepair(uint32_t so);
  void CompleteRepair(uint32_t so);
  // A batch of `batch_size` placeholder response records (resp = 1, reserved keys
  // matching no client request) standing in for an unavailable partition: response
  // matching compacts them away and the partition's real requests come back with
  // resp = 0, the requeue flag.
  RequestBatch PlaceholderBatch(uint64_t batch_size) const;

  // Span time source: the deterministic VirtualClock under fault injection (chaos
  // runs stay replayable), steady_clock otherwise.
  double NowSeconds() const;
  // Handles for every metric RunEpoch and the seal touch each epoch: the epoch
  // timer, epoch/request counters, one duration histogram per phase, pool metrics
  // per pooled phase, and per-LB batch-size histograms. Resolved lazily against the
  // current registry (registry references are stable for its lifetime) and again
  // whenever set_metrics_registry swaps registries, so the per-epoch hot path never
  // repeats the name-keyed lookups. Null when telemetry is disabled. Resolution runs
  // on the orchestrator thread (Initialize's seal, or the top of RunEpoch), so pool
  // workers that read batch-size handles mid-phase only ever see a filled cache.
  struct MetricsCache {
    Histogram* epoch_seconds = nullptr;
    Counter* epochs_total = nullptr;
    Counter* requests_total = nullptr;
    Counter* degraded_epochs_total = nullptr;
    Counter* deferred_requests_total = nullptr;
    Histogram* phase_seconds[kNumPhases] = {};
    PoolPhaseMetrics pool[kNumPooledPhases];
    std::vector<Histogram*> batch_size;  // per load balancer at resolve time
  };
  const MetricsCache* Metrics() const;
  // The phase's duration histogram; null when telemetry is disabled.
  Histogram* PhaseHistogram(Phase phase) const;
  // RunPhase's context for one of the pooled phases.
  PhasePoolContext PoolContext(Phase phase) const;

  // Backend factory: owned for the default deployment, borrowed (must outlive this
  // instance -- Reshard creates backends long after construction) for custom ones.
  std::unique_ptr<SubOramBackendFactory> owned_factory_;
  const SubOramBackendFactory* factory_ = nullptr;

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
  mutable MetricsCache metrics_cache_;
  mutable MetricsRegistry* metrics_cache_registry_ = nullptr;  // null = unresolved

  // Rollback-protected persistence: one trusted counter per subORAM, snapshots kept
  // in (untrusted) host storage, resealed in place at every epoch boundary.
  MonotonicCounterService counters_;
  std::unique_ptr<SealedStore> sealed_store_;

  // Guards every partition's health and repair state: phase-2 workers read health
  // and may mark a loss mid-epoch; everything else runs on the orchestrator thread
  // at epoch boundaries.
  mutable std::mutex health_mu_;

  struct ClientSession {
    std::vector<std::unique_ptr<SecureLink>> links;  // one per load balancer
    std::vector<std::vector<uint8_t>> mailbox;       // sealed responses
  };
  std::map<uint64_t, ClientSession> clients_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_SNOOPY_H_
