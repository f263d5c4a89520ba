#include "src/core/snoopy.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/reshard.h"
#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/parallel.h"
#include "src/obl/primitives.h"

namespace snoopy {

namespace {

// splitmix64 finalizer; mixes (base seed, epoch) into per-epoch preparation seeds.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string SubOramEndpointName(uint32_t so, uint32_t lb) {
  return "suboram/" + std::to_string(so) + "/from/" + std::to_string(lb);
}

std::string StripeEndpointName(uint32_t so) {
  return "suboram/" + std::to_string(so) + "/stripe";
}

std::vector<std::pair<uint64_t, std::vector<uint8_t>>> SlabToObjects(const ByteSlab& slab,
                                                                     size_t value_size) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  out.reserve(slab.size());
  for (size_t i = 0; i < slab.size(); ++i) {
    uint64_t key;
    std::memcpy(&key, slab.Record(i), 8);
    out.emplace_back(key, std::vector<uint8_t>(slab.Record(i) + 8,
                                               slab.Record(i) + 8 + value_size));
  }
  return out;
}

// Attested channel establishment between a load balancer and a subORAM enclave
// (paper section 3.1): each end verifies the other's quote and derives the channel
// key, and the two derivations must agree.
std::unique_ptr<SecureLink> AttestLink(const Enclave& lb, const Enclave& so,
                                       uint32_t link_id) {
  const Aead::Key key = lb.EstablishChannel(so.quote());
  const Aead::Key check = so.EstablishChannel(lb.quote());
  if (key != check) {
    throw std::runtime_error("channel key mismatch after attestation");
  }
  return std::make_unique<SecureLink>(key, link_id);
}

// Default factory: the paper's throughput-optimized subORAM.
class DefaultSubOramFactory final : public SubOramBackendFactory {
 public:
  explicit DefaultSubOramFactory(const SnoopyConfig& config) : config_(config) {}
  std::unique_ptr<SubOramBackend> Create(uint32_t id, uint64_t seed) const override {
    SubOramConfig soc;
    soc.id = id;
    soc.value_size = config_.value_size;
    soc.lambda = config_.lambda;
    soc.sort_strategy = config_.sort_strategy;
    soc.check_distinct = config_.check_distinct;
    return std::make_unique<SubOram>(soc, seed);
  }

 private:
  SnoopyConfig config_;
};

}  // namespace

Snoopy::Snoopy(const SnoopyConfig& config, uint64_t seed)
    : owned_factory_(std::make_unique<DefaultSubOramFactory>(config)),
      factory_(owned_factory_.get()),
      config_(config),
      rng_(seed) {
  Construct();
}

Snoopy::Snoopy(const SnoopyConfig& config, uint64_t seed,
               const SubOramBackendFactory& factory)
    : factory_(&factory), config_(config), rng_(seed) {
  Construct();
}

void Snoopy::Construct() {
  if (config_.num_load_balancers == 0 || config_.num_suborams == 0) {
    throw std::invalid_argument("Snoopy needs at least one load balancer and one subORAM");
  }
  ValidateStriping(config_.striping, config_.num_suborams);
  partition_key_ = rng_.NextSipKey();

  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    lb_enclaves_.push_back(std::make_unique<Enclave>("snoopy-load-balancer", lb));
    LoadBalancerConfig lbc;
    lbc.id = lb;
    lbc.num_suborams = config_.num_suborams;
    lbc.value_size = config_.value_size;
    lbc.lambda = config_.lambda;
    lbc.sort_strategy = config_.sort_strategy;
    const uint64_t lb_seed = rng_.Next64();
    lb_base_seeds_.push_back(lb_seed);
    lbs_.push_back(std::make_unique<LoadBalancer>(lbc, partition_key_, lb_seed));
    pending_.emplace_back(config_.value_size);
  }
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    partitions_.push_back(MakePartition(so, config_.num_suborams));
    RegisterSubOramEndpoints(so);
  }

  // Rollback-protected persistence (paper section 9): a sealing key for the subORAM
  // snapshots plus one trusted monotonic counter per subORAM. Drawn after all other
  // construction-time randomness so existing seeded deployments are unchanged.
  sealed_store_ = std::make_unique<SealedStore>(rng_.NextKey32(), &counters_);
  for (Partition& p : partitions_) {
    p.counter_id = counters_.Create();
  }
  network_.set_clock(&clock_);
}

Snoopy::Partition Snoopy::MakePartition(uint32_t so, uint32_t num_suborams) {
  Partition p;
  p.enclave = std::make_unique<Enclave>("snoopy-suboram", so);
  p.backend = factory_->Create(so, rng_.Next64());
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    p.links.push_back(AttestLink(*lb_enclaves_[lb], *p.enclave, lb * num_suborams + so));
  }
  p.link_generation.assign(config_.num_load_balancers, 0);
  return p;
}

void Snoopy::RegisterSubOramEndpoints(uint32_t so) {
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    network_.Register(SubOramEndpointName(so, lb),
                      [this, lb, so](std::span<const uint8_t> payload) {
                        return SubOramEndpointHandler(lb, so, payload);
                      });
  }
  // Host-level stripe traffic runs inline on the caller's thread; all of it happens on
  // the orchestrator thread at epoch boundaries, so the store needs no locking.
  network_.Register(StripeEndpointName(so), [this, so](std::span<const uint8_t> payload) {
    return ServeStripeRequest(partitions_[so].stripes, payload, StripeEndpointName(so));
  });
}

void Snoopy::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  network_.set_fault_injector(injector);
}

double Snoopy::NowSeconds() const {
  // Under fault injection the epoch pipeline advances the VirtualClock (retry
  // backoffs, injected delays); spans read the same clock so chaos runs are
  // deterministic. Outside fault injection, wall time.
  return fault_injector_ != nullptr ? clock_.now_s() : SpanTimer::SteadyNowSeconds();
}

// Label values of snoopy_epoch_phase_seconds{phase}, indexed by Phase; the pooled
// phases' pool metrics carry the same labels.
constexpr const char* kPhaseNames[] = {"lb_prepare", "suboram_execute", "response_match",
                                       "seal", "repair"};

const Snoopy::MetricsCache* Snoopy::Metrics() const {
  static_assert(std::size(kPhaseNames) == kNumPhases);
  if (metrics_ == nullptr) {
    return nullptr;
  }
  if (metrics_cache_registry_ != metrics_) {
    MetricsCache cache;
    cache.epoch_seconds = &metrics_->GetHistogram("snoopy_epoch_seconds");
    cache.epochs_total = &metrics_->GetCounter("snoopy_epochs_total");
    cache.requests_total = &metrics_->GetCounter("snoopy_requests_total");
    cache.degraded_epochs_total = &metrics_->GetCounter("snoopy_degraded_epochs_total");
    cache.deferred_requests_total = &metrics_->GetCounter("snoopy_deferred_requests_total");
    for (size_t i = 0; i < kNumPhases; ++i) {
      cache.phase_seconds[i] =
          &metrics_->GetHistogram("snoopy_epoch_phase_seconds", {{"phase", kPhaseNames[i]}});
    }
    for (size_t i = 0; i < kNumPooledPhases; ++i) {
      cache.pool[i] = PoolPhaseMetrics::Resolve(metrics_, kPhaseNames[i]);
    }
    for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
      cache.batch_size.push_back(
          &metrics_->GetHistogram("snoopy_batch_size", {{"lb", std::to_string(lb)}}));
    }
    metrics_cache_ = std::move(cache);
    metrics_cache_registry_ = metrics_;
  }
  return &metrics_cache_;
}

void Snoopy::CountEvent(const std::string& name, const MetricLabels& labels) const {
  if (metrics_ != nullptr) {
    metrics_->GetCounter(name, labels).Increment();
  }
}

Histogram* Snoopy::PhaseHistogram(Phase phase) const {
  const MetricsCache* cache = Metrics();
  return cache != nullptr ? cache->phase_seconds[phase] : nullptr;
}

PhasePoolContext Snoopy::PoolContext(Phase phase) const {
  const MetricsCache* cache = Metrics();
  return {kPhaseNames[phase], tracer_, cache != nullptr ? &cache->pool[phase] : nullptr,
          [this] { return NowSeconds(); }};
}

uint64_t Snoopy::EpochSeed(uint32_t lb, uint64_t epoch) const {
  return Mix64(lb_base_seeds_[lb] ^ Mix64(epoch));
}

void Snoopy::Initialize(
    const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) {
  for (const auto& obj : objects) {
    if (obj.first >= kDummyKeyBase) {
      throw std::invalid_argument("object keys must be below 2^63");
    }
  }
  if (config_.oblivious_init) {
    InitializeOblivious(objects);
  } else {
    std::vector<std::vector<std::pair<uint64_t, std::vector<uint8_t>>>> parts(
        config_.num_suborams);
    for (const auto& obj : objects) {
      parts[lbs_[0]->SubOramOf(obj.first)].push_back(obj);
    }
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      partitions_[so].backend->Initialize(parts[so]);
    }
  }
  // First rollback-protected snapshot: a subORAM that crashes before its first epoch
  // completes recovers to its freshly loaded partition.
  SealEpochBoundary();
}

// Epoch boundary: seal every healthy subORAM's state FIRST (one trusted-counter bump
// each, paper section 9), then retire the per-epoch dedup state, then push stripes.
// A push can trigger a peer's crash recovery, which must restore the *post*-epoch
// snapshot with an empty executed set; sealing or clearing later could lose writes.
//
// The seal is one pooled phase, a task per subORAM that seals in place into its
// previous snapshot's buffer and encodes its stripes. Tasks touch only their own
// backend, snapshot and counter (SealedStore is safe on distinct counters). The pushes
// stay serial on the orchestrator, so the stripe store needs no lock. A repairing peer
// has no machine to store on, and one unreachable past the retry budget misses this
// snapshot; both are counted, and redundancy re-converges at a later boundary.
void Snoopy::SealEpochBoundary() {
  std::vector<StripeEncoding> stripes(config_.num_suborams);
  RunPhase(config_.num_suborams, config_.epoch_threads, PoolContext(kSeal), [&](size_t so) {
    Partition& p = partitions_[so];
    if (partition_health(static_cast<uint32_t>(so)) == PartitionHealth::kHealthy &&
        p.backend->SupportsSealing()) {
      p.backend->SealStateInto(*sealed_store_, p.counter_id, p.snapshot);
      stripes[so] = EncodeStripes(config_.striping, static_cast<uint32_t>(so),
                                  counters_.Read(p.counter_id), p.snapshot);
    }
  });
  for (Partition& p : partitions_) {
    p.response_cache.clear();
    p.executed_lbs.clear();
  }
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    if (partition_health(so) != PartitionHealth::kHealthy || stripes[so].digests.empty()) {
      continue;
    }
    const std::vector<uint32_t> peers = StripePeers(config_.striping, config_.num_suborams, so);
    for (size_t rank = 0; rank < peers.size(); ++rank) {
      if (partition_health(peers[rank]) != PartitionHealth::kHealthy) {
        CountEvent("snoopy_stripe_skips_total");
        continue;
      }
      try {
        RetriedStripeCall(so, peers[rank],
                          EncodeStripeStore(config_.striping, so, partitions_[so].snapshot,
                                            stripes[so], rank));
      } catch (const NetworkError&) {
        CountEvent("snoopy_stripe_failures_total");
      }
    }
  }
}

void Snoopy::InitializeOblivious(
    const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) {
  // Paper Figure 23 via the shared oblivious redistribution kernel (src/core/reshard.h),
  // the same machinery elastic resharding runs at epoch boundaries.
  const size_t value_size = config_.value_size;
  ByteSlab slab(0, 8 + value_size);
  for (const auto& [key, value] : objects) {
    uint8_t* rec = slab.AppendZero();
    std::memcpy(rec, &key, 8);
    const size_t n = value.size() < value_size ? value.size() : value_size;
    std::memcpy(rec + 8, value.data(), n);
  }
  const std::vector<ByteSlab> parts =
      PartitionSlabByBin(slab, partition_key_, config_.num_suborams, value_size,
                         config_.sort_strategy, config_.lambda);
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    partitions_[so].backend->Initialize(SlabToObjects(parts[so], value_size));
  }
}

void Snoopy::SubmitRead(uint64_t client_id, uint64_t client_seq, uint64_t key) {
  SubmitReadWithLb(static_cast<uint32_t>(rng_.Uniform(config_.num_load_balancers)), client_id,
                   client_seq, key);
}

void Snoopy::SubmitWrite(uint64_t client_id, uint64_t client_seq, uint64_t key,
                         std::span<const uint8_t> value) {
  SubmitWriteWithLb(static_cast<uint32_t>(rng_.Uniform(config_.num_load_balancers)), client_id,
                    client_seq, key, value);
}

void Snoopy::SubmitReadWithLb(uint32_t lb, uint64_t client_id, uint64_t client_seq,
                              uint64_t key) {
  RequestHeader h;
  h.key = key;
  h.op = kOpRead;
  h.client_id = client_id;
  h.client_seq = client_seq;
  pending_[lb].Append(h, {});
}

void Snoopy::SubmitWriteWithLb(uint32_t lb, uint64_t client_id, uint64_t client_seq,
                               uint64_t key, std::span<const uint8_t> value) {
  RequestHeader h;
  h.key = key;
  h.op = kOpWrite;
  h.client_id = client_id;
  h.client_seq = client_seq;
  pending_[lb].Append(h, value);
}

void Snoopy::SubmitRequest(const RequestHeader& header, std::span<const uint8_t> value) {
  const auto lb = static_cast<uint32_t>(rng_.Uniform(config_.num_load_balancers));
  pending_[lb].Append(header, value);
}

size_t Snoopy::pending_requests() const {
  size_t n = 0;
  for (const RequestBatch& b : pending_) {
    n += b.size();
  }
  return n;
}

// Batches travel as [epoch id (8 bytes, plaintext) | sealed batch]. The epoch id lets
// the host re-serve a retransmission's cached sealed response, so retried and
// duplicated deliveries change neither the store state (Appendix C) nor the enclave's
// memory trace: the batch is processed exactly once.
std::vector<uint8_t> Snoopy::SubOramEndpointHandler(uint32_t lb, uint32_t so,
                                                    std::span<const uint8_t> payload) {
  const std::string endpoint = SubOramEndpointName(so, lb);
  if (payload.size() < 8) {
    throw IntegrityError(endpoint);
  }
  uint64_t batch_epoch = 0;
  std::memcpy(&batch_epoch, payload.data(), 8);
  if (batch_epoch != epoch_) {
    // A stale or bit-flipped epoch tag; either way the sender must retransmit.
    throw IntegrityError(endpoint);
  }
  Partition& p = partitions_[so];
  if (const auto it = p.response_cache.find(lb); it != p.response_cache.end()) {
    // Retransmit: serve the cached epoch response. Safe to count -- a dedup hit is
    // caused by a network event (duplicate delivery or lost reply) the adversary
    // already observes.
    CountEvent("snoopy_dedup_hits_total");
    return it->second;
  }
  std::vector<uint8_t> plain;
  if (!p.links[lb]->a_to_b().Open(payload.subspan(8), plain)) {
    throw IntegrityError(endpoint);
  }
  RequestBatch response = p.backend->ProcessBatch(RequestBatch::Deserialize(plain));
  p.executed_lbs.insert(lb);
  std::vector<uint8_t> sealed_resp = p.links[lb]->b_to_a().Seal(response.Serialize());
  p.response_cache[lb] = sealed_resp;
  return sealed_resp;
}

// Seals once per link generation: a resend must be byte-identical (the dedup cache and
// channel counters depend on it), but after a recovery rekeys the link the old bytes
// belong to a dead session. A crash mid-call recovers with this lb as replay limit.
std::vector<uint8_t> Snoopy::RetriedSubOramCall(
    uint32_t lb, uint32_t so, const std::vector<uint8_t>& serialized,
    const std::vector<LoadBalancer::PreparedEpoch>* prepared) {
  const std::string caller = "lb/" + std::to_string(lb);
  const std::string endpoint = SubOramEndpointName(so, lb);
  const Partition& p = partitions_[so];
  std::vector<uint8_t> envelope;
  uint64_t sealed_generation = ~uint64_t{0};
  auto call = [&]() -> std::vector<uint8_t> {
    if (sealed_generation != p.link_generation[lb]) {
      const std::vector<uint8_t> sealed = p.links[lb]->a_to_b().Seal(serialized);
      envelope.assign(8, 0);
      std::memcpy(envelope.data(), &epoch_, 8);
      envelope.insert(envelope.end(), sealed.begin(), sealed.end());
      sealed_generation = p.link_generation[lb];
    }
    std::vector<uint8_t> sealed_resp = network_.Call(caller, endpoint, envelope);
    std::vector<uint8_t> plain;
    if (!p.links[lb]->b_to_a().Open(sealed_resp, plain)) {
      throw IntegrityError(endpoint);
    }
    return plain;
  };
  return RetriedCall(caller, endpoint, /*jitter_seed=*/EpochSeed(lb, epoch_) ^ so, call, so,
                     prepared, lb);
}

std::vector<uint8_t> Snoopy::RetriedCall(
    const std::string& caller, const std::string& endpoint, uint64_t jitter_seed,
    const std::function<std::vector<uint8_t>()>& call, uint32_t so,
    const std::vector<LoadBalancer::PreparedEpoch>* prepared, uint32_t lb_limit) {
  RetryExecutor executor(config_.retry, jitter_seed, &clock_);
  executor.set_on_retry([&] {
    network_.RecordRetry(caller, endpoint);
    CountEvent("snoopy_retries_total", {{"endpoint", endpoint}});
  });
  return executor.Execute(
      call, [&](const EndpointCrashedError&) { RecoverSubOram(so, prepared, lb_limit); });
}

RequestBatch Snoopy::CallSubOram(uint32_t lb, uint32_t so,
                                 const std::vector<LoadBalancer::PreparedEpoch>& prepared) {
  {
    // Typed failover instead of spinning retries against a dead machine: the epoch
    // loop catches this, synthesizes a placeholder batch and requeues the partition's
    // requests into the next epoch.
    std::lock_guard<std::mutex> g(health_mu_);
    const Partition& p = partitions_[so];
    if (p.health != PartitionHealth::kHealthy) {
      throw PartitionUnavailableError(SubOramEndpointName(so, lb), so,
                                      p.repair_epochs_remaining);
    }
  }
  return RequestBatch::Deserialize(RetriedSubOramCall(
      lb, so, prepared[lb].suboram_batches[so].Serialize(), &prepared));
}

void Snoopy::RecoverSubOram(uint32_t so,
                            const std::vector<LoadBalancer::PreparedEpoch>* prepared,
                            uint32_t lb_limit) {
  const std::string component = "suboram/" + std::to_string(so);
  Partition& p = partitions_[so];
  if (!p.backend->SupportsSealing()) {
    throw std::runtime_error(component +
                             " crashed and its backend does not support sealed snapshots");
  }
  // Restore the freshest sealed snapshot. The executed set survives: it is what the
  // replay below re-sends.
  RestorePartition(so, p.snapshot);
  if (fault_injector_ != nullptr) {
    fault_injector_->Restart(component);
  }
  CountEvent("snoopy_recoveries_total", {{"component", component}});

  // The snapshot predates this epoch's batches: replay the ones the subORAM had
  // already executed, in load-balancer order (Appendix C), except the caller's own
  // (lb_limit), which its pending retry delivers. Replays take the normal endpoint
  // path, so they repopulate the response cache, tolerate transient faults and
  // recover recursively from a second crash (the executed set survives recoveries and
  // restore is idempotent). Their responses equal the already-delivered answers.
  if (prepared == nullptr) {
    return;
  }
  for (const uint32_t lb : p.executed_lbs) {
    if (lb >= lb_limit) {
      continue;
    }
    RetriedSubOramCall(lb, so, (*prepared)[lb].suboram_batches[so].Serialize(), prepared);
  }
}

void Snoopy::RestorePartition(uint32_t so, std::span<const uint8_t> blob) {
  Partition& p = partitions_[so];
  // A stale or tampered blob means the host is replaying superseded state (or, for
  // repair, a superseded stripe set); refusing to start is the only safe answer.
  const UnsealStatus status = p.backend->RestoreState(*sealed_store_, p.counter_id, blob);
  if (status != UnsealStatus::kOk) {
    throw RollbackDetectedError("suboram/" + std::to_string(so), status);
  }
  // The restarted enclave has no channel state: every load balancer re-attests and
  // both ends start fresh sessions. Each recovery touches only its own partition's
  // links/cache, so the key draw inside RekeyLink is the lone shared mutation.
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    RekeyLink(lb, so);
  }
  p.response_cache.clear();
  network_.RecordRecovery();
}

void Snoopy::RecoverLoadBalancer(uint32_t lb) {
  // Load balancers are stateless across epochs (section 4.3): the rebuild is a fresh
  // enclave with the same partition key and config, and EpochSeed makes it prepare
  // the batches the crashed instance would have sent. Pending requests live with the
  // clients in this model; they resubmit into the rebuilt instance.
  lb_enclaves_[lb] = std::make_unique<Enclave>("snoopy-load-balancer", lb);
  const LoadBalancerConfig lbc = lbs_[lb]->config();
  lbs_[lb] = std::make_unique<LoadBalancer>(lbc, partition_key_, lb_base_seeds_[lb]);
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    RekeyLink(lb, so);
  }
  if (fault_injector_ != nullptr) {
    fault_injector_->Restart("lb/" + std::to_string(lb));
  }
  network_.RecordRecovery();
  CountEvent("snoopy_recoveries_total", {{"component", "lb/" + std::to_string(lb)}});
}

void Snoopy::RekeyLink(uint32_t lb, uint32_t so) {
  std::array<uint8_t, 32> key;
  {
    std::lock_guard<std::mutex> g(rng_mu_);
    key = rng_.NextKey32();
  }
  Partition& p = partitions_[so];
  p.links[lb]->Rekey(key);
  ++p.link_generation[lb];
}

// --- Striped redundancy, permanent loss, and background repair ----------------------

Snoopy::PartitionHealth Snoopy::partition_health(uint32_t so) const {
  std::lock_guard<std::mutex> g(health_mu_);
  return partitions_[so].health;
}

uint32_t Snoopy::repair_epochs_remaining(uint32_t so) const {
  std::lock_guard<std::mutex> g(health_mu_);
  return partitions_[so].repair_epochs_remaining;
}

std::vector<uint8_t> Snoopy::RetriedStripeCall(uint32_t so, uint32_t peer,
                                               const std::vector<uint8_t>& request) {
  const std::string caller = "suboram/" + std::to_string(so);
  const std::string endpoint = StripeEndpointName(peer);
  auto call = [&]() -> std::vector<uint8_t> {
    std::vector<uint8_t> resp = network_.Call(caller, endpoint, request);
    CheckStripeReply(request, resp, endpoint);
    return resp;
  };
  // Stripe traffic only flows at epoch boundaries (post-seal), so a peer crash
  // observed here recovers from its already-sealed post-epoch snapshot with nothing
  // to replay.
  return RetriedCall(caller, endpoint,
                     /*jitter_seed=*/Mix64(epoch_ ^ (uint64_t{so} << 32) ^ peer), call, peer,
                     nullptr, 0);
}

void Snoopy::LoseSubOram(uint32_t so) {
  const std::string component = "suboram/" + std::to_string(so);
  Partition& p = partitions_[so];
  {
    std::lock_guard<std::mutex> g(health_mu_);
    if (p.health == PartitionHealth::kRepairing) {
      return;  // already detected
    }
    p.health = PartitionHealth::kRepairing;
  }
  if (fault_injector_ != nullptr) {
    fault_injector_->MarkLost(component);
  }
  if (config_.striping.replicas == 0) {
    throw std::runtime_error(component +
                             " permanently lost with striping disabled: partition "
                             "state is unrecoverable");
  }
  // The machine took its state with it: the spare node under the dead identity starts
  // empty. The host-side per-epoch caches and the stripes this host held for *other*
  // owners died too; those owners re-converge redundancy at their next seal.
  p.backend->Initialize({});
  p.snapshot.clear();
  p.response_cache.clear();
  p.executed_lbs.clear();
  p.stripes.clear();
  {
    std::lock_guard<std::mutex> g(health_mu_);
    p.repair_epochs_remaining = config_.striping.repair_epochs;
  }
  p.repair.reset();
  CountEvent("snoopy_partition_losses_total", {{"component", component}});
}

void Snoopy::PlanRepair(uint32_t so) {
  std::vector<StripeManifest> manifests;
  for (const uint32_t peer : StripePeers(config_.striping, config_.num_suborams, so)) {
    if (partition_health(peer) != PartitionHealth::kHealthy) {
      continue;
    }
    try {
      const std::vector<uint8_t> resp = RetriedStripeCall(so, peer, EncodeStripeManifestQuery(so));
      if (const auto m = DecodeStripeManifest(config_.striping, peer, resp)) {
        manifests.push_back(*m);
      }
    } catch (const NetworkError&) {
      // Unreachable peer: plan around it.
    }
  }
  partitions_[so].repair = PlanStripeRepair(manifests);
  if (!partitions_[so].repair) {
    throw std::runtime_error("suboram/" + std::to_string(so) +
                             " unrecoverable: no complete stripe set survives");
  }
}

void Snoopy::RepairStep(uint32_t so) {
  Partition& p = partitions_[so];
  if (!p.repair) {
    PlanRepair(so);
  }
  RepairPlan& plan = *p.repair;
  // The per-epoch slice is a fixed public fraction of the (public) stripe geometry:
  // the repair rate is load-independent by construction, so the repair schedule leaks
  // nothing about the request pattern.
  const uint64_t chunk_len = plan.chunk_len();
  const uint64_t total = plan.total_bytes();
  const uint64_t slice =
      (total + config_.striping.repair_epochs - 1) / config_.striping.repair_epochs;
  uint64_t fetched = 0;
  while (fetched < slice && plan.cursor < total) {
    const size_t idx = static_cast<size_t>(plan.cursor / chunk_len);
    const uint64_t off = plan.cursor % chunk_len;
    const uint64_t len = std::min<uint64_t>(slice - fetched, chunk_len - off);
    const StripeManifest& src = plan.sources[idx];
    std::vector<uint8_t> resp;
    try {
      resp = RetriedStripeCall(
          so, src.peer, EncodeStripeFetch(so, src.seal_counter, src.chunk_index, off, len));
    } catch (const NetworkError&) {
      // A source vanished mid-repair. Replan from the surviving peers and restart the
      // window (a public event driven by the public failure process); PlanRepair
      // throws when nothing reconstructs any more.
      {
        std::lock_guard<std::mutex> g(health_mu_);
        p.repair_epochs_remaining = config_.striping.repair_epochs;
      }
      PlanRepair(so);
      return;
    }
    std::memcpy(plan.buffers[idx].data() + off, StripeFetchPayload(resp).data(),
                static_cast<size_t>(len));
    plan.cursor += len;
    fetched += len;
  }
  {
    std::lock_guard<std::mutex> g(health_mu_);
    if (p.repair_epochs_remaining > 0) {
      --p.repair_epochs_remaining;
    }
  }
  if (p.repair_epochs_remaining == 0) {
    CompleteRepair(so);
  }
}

void Snoopy::CompleteRepair(uint32_t so) {
  Partition& p = partitions_[so];
  const std::string component = "suboram/" + std::to_string(so);
  std::vector<uint8_t> blob = ReassembleSnapshot(*p.repair);

  // Restore on the spare node under the dead identity. The counter check extends
  // rollback refusal to repair: a stale stripe set (host replaying a superseded seal
  // generation) is never served.
  RestorePartition(so, blob);
  p.snapshot = std::move(blob);  // freshest host snapshot for crash recovery
  p.executed_lbs.clear();
  if (fault_injector_ != nullptr) {
    fault_injector_->Reincarnate(component);
  }
  CountEvent("snoopy_repairs_completed_total", {{"component", component}});
  {
    std::lock_guard<std::mutex> g(health_mu_);
    p.health = PartitionHealth::kHealthy;
    p.repair_epochs_remaining = 0;
  }
  p.repair.reset();
}

RequestBatch Snoopy::PlaceholderBatch(uint64_t batch_size) const {
  RequestBatch batch(config_.value_size);
  for (uint64_t i = 0; i < batch_size; ++i) {
    RequestHeader h;
    // Reserved keys at the top of the dummy range: they match no original during
    // response propagation, so the unavailable partition's requests keep resp = 0
    // (the requeue flag) and these records compact away with the dummy responses.
    h.key = kDummyKeyBase | (uint64_t{0x7fffffff} << 31) | i;
    h.op = kOpRead;
    h.dummy = 1;
    h.resp = 1;
    h.granted = 1;
    batch.Append(h, {});
  }
  return batch;
}

void Snoopy::RegisterClient(uint64_t client_id, const AttestationQuote& client_quote) {
  if (clients_.count(client_id) != 0) {
    throw std::invalid_argument("client already registered");
  }
  ClientSession session;
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    const Aead::Key key = lb_enclaves_[lb]->EstablishChannel(client_quote);
    // Link ids for client channels live above the LB-subORAM range.
    const uint32_t link_id = 0x40000000u + static_cast<uint32_t>(client_id % 0x3fffffff) *
                                               config_.num_load_balancers +
                             lb;
    session.links.push_back(std::make_unique<SecureLink>(key, link_id));
    network_.Register(
        "lb/" + std::to_string(lb) + "/client/" + std::to_string(client_id),
        [this, client_id, lb](std::span<const uint8_t> sealed) -> std::vector<uint8_t> {
          std::vector<uint8_t> plain;
          if (!clients_.at(client_id).links[lb]->a_to_b().Open(sealed, plain)) {
            throw std::runtime_error("load balancer rejected client request");
          }
          // The plaintext is client-controlled: a malformed batch or a foreign value
          // size is refused whole, and every record is answered to this session.
          RequestBatch batch = RequestBatch::Deserialize(plain);
          if (batch.value_size() != config_.value_size) {
            throw MalformedBatchError("client request has the wrong value size");
          }
          for (size_t i = 0; i < batch.size(); ++i) {
            RequestHeader h = batch.Header(i);
            h.client_id = client_id;
            pending_[lb].Append(h, std::span<const uint8_t>(batch.Value(i), batch.value_size()));
          }
          return {1};  // ack
        });
  }
  clients_.emplace(client_id, std::move(session));
}

SecureLink& Snoopy::client_link(uint64_t client_id, uint32_t lb) {
  return *clients_.at(client_id).links[lb];
}

std::vector<std::vector<uint8_t>> Snoopy::TakeMailbox(uint64_t client_id) {
  return std::exchange(clients_.at(client_id).mailbox, {});
}

std::vector<ClientResponse> Snoopy::RunEpoch() {
  TraceRecord(TraceOp::kEpoch, epoch_, 0);
  std::vector<ClientResponse> all;

  // Root spans plus public epoch facts; the tracer span closes after every phase span,
  // so tools/trace_report.py can split the epoch into phases and orchestrator gaps.
  // Per-balancer request counts are public (the network adversary sees who talks to
  // which balancer); contents and key distribution never reach telemetry.
  const auto now_fn = [this] { return NowSeconds(); };
  SpanTimer epoch_span(metrics_ != nullptr ? Metrics()->epoch_seconds : nullptr, now_fn);
  TraceSpan epoch_trace(tracer_, "epoch", "epoch", epoch_);
  epoch_trace.SetArg("pending", pending_requests());
  epoch_trace.SetArg("load_balancers", config_.num_load_balancers);
  epoch_trace.SetArg("suborams", config_.num_suborams);
  if (const MetricsCache* cache = Metrics()) {
    cache->epochs_total->Increment();
    cache->requests_total->Increment(pending_requests());
  }

  // Epoch-boundary failure polling (mid-epoch failures are per-call crash_before_reply
  // and node_loss faults). A crashed load balancer is rebuilt statelessly; a crashed
  // subORAM restores its sealed snapshot, exactly the pre-epoch state, with nothing to
  // replay; a lost one enters the repair protocol below and is not polled for crashes,
  // having no machine left to reboot.
  if (fault_injector_ != nullptr) {
    for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
      if (fault_injector_->PollEpochCrash("lb/" + std::to_string(lb))) {
        RecoverLoadBalancer(lb);
      }
    }
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      const std::string component = "suboram/" + std::to_string(so);
      if (partition_health(so) == PartitionHealth::kHealthy &&
          fault_injector_->PollEpochCrash(component)) {
        RecoverSubOram(so, nullptr, 0);
      }
      if (partition_health(so) == PartitionHealth::kHealthy &&
          fault_injector_->PollNodeLoss(component)) {
        LoseSubOram(so);
      }
    }
  }
  // Repair coordinator: one fixed-size reconstruction slice per repairing partition
  // per epoch; the final slice restores the partition, which then serves this epoch.
  {
    bool any_repairing = false;
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      any_repairing = any_repairing || partition_health(so) == PartitionHealth::kRepairing;
    }
    TraceSpan repair_trace(any_repairing ? tracer_ : nullptr, "phase", "repair", epoch_);
    SpanTimer repair_span(any_repairing ? PhaseHistogram(kRepair) : nullptr, now_fn);
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      if (partition_health(so) == PartitionHealth::kRepairing) {
        RepairStep(so);
      }
    }
  }
  if (const MetricsCache* cache = Metrics()) {
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      if (partition_health(so) != PartitionHealth::kHealthy) {
        cache->degraded_epochs_total->Increment();
        break;
      }
    }
  }

  // Three phases, each a barrier and one RunPhase over public task ids (section 4):
  // every load balancer prepares, every subORAM executes, every load balancer matches.
  // Thread count changes neither the enclave trace nor the responses.
  //
  // Phase 1: one task per load balancer (section 4.3). The per-(lb, epoch) seed fixes
  // the dummy-key randomness, so preparation is a pure function of (pending requests,
  // seed), and a load balancer rebuilt after a crash prepares byte-identical batches.
  std::vector<LoadBalancer::PreparedEpoch> prepared(config_.num_load_balancers);
  {
    SpanTimer prepare_span(PhaseHistogram(kLbPrepare), now_fn);
    TraceSpan prepare_trace(tracer_, "phase", "lb_prepare", epoch_);
    RunPhase(config_.num_load_balancers, config_.epoch_threads, PoolContext(kLbPrepare),
             [&](size_t lb) {
      RequestBatch requests = std::move(pending_[lb]);
      pending_[lb] = RequestBatch(config_.value_size);
      prepared[lb] = lbs_[lb]->PrepareBatches(
          std::move(requests), EpochSeed(static_cast<uint32_t>(lb), epoch_));
      if (metrics_ != nullptr) {
        // The padded per-subORAM batch size f(R, S): public by Theorem 3. The cache
        // was filled at the top of this epoch on the orchestrator thread; this task
        // may run on a pool worker, so it must only read resolved handles.
        Metrics()->batch_size[lb]->Observe(
            static_cast<double>(prepared[lb].batch_size));
      }
    });
  }

  // Phase 2: one task per subORAM, applying its batches in load-balancer order, the
  // Appendix C linearization (per subORAM, so subORAMs run concurrently: Figure 9a's
  // scaling axis). Each batch is really sealed at the load balancer and opened in the
  // subORAM endpoint, under the retry policy; per-endpoint fault streams keep each
  // (lb, so) exchange's faults independent of how the tasks interleave.
  std::vector<std::vector<RequestBatch>> responses(config_.num_load_balancers);
  for (auto& per_lb : responses) {
    per_lb.resize(config_.num_suborams);
  }
  {
    SpanTimer execute_span(PhaseHistogram(kSubOramExecute), now_fn);
    TraceSpan execute_trace(tracer_, "phase", "suboram_execute", epoch_);
    RunPhase(config_.num_suborams, config_.epoch_threads, PoolContext(kSubOramExecute),
             [&](size_t so) {
      try {
        for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
          responses[lb][so] = CallSubOram(lb, static_cast<uint32_t>(so), prepared);
        }
      } catch (const NodeLostError&) {
        // The machine vanished mid-epoch. Any responses it already produced this
        // epoch are discarded below: the state behind them died with the machine,
        // so delivering them would acknowledge writes the repaired partition will
        // not have. The whole partition's requests defer to the epoch queue instead.
        LoseSubOram(static_cast<uint32_t>(so));
      } catch (const PartitionUnavailableError&) {
        // Already under repair when its turn came; placeholders below.
      }
    });
  }
  // Degraded mode: placeholder batches stand in for unavailable partitions, so
  // response matching still sees one batch per (lb, subORAM). The placeholders
  // compact away and the partition's own requests surface unanswered (resp = 0),
  // which the delivery loop requeues into the next epoch.
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    if (partition_health(so) == PartitionHealth::kHealthy) {
      continue;
    }
    for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
      responses[lb][so] = PlaceholderBatch(prepared[lb].batch_size);
    }
  }

  // Phase 3: match responses to clients. The oblivious matching (Figure 6) is one
  // task per load balancer; delivery stays on the orchestrator thread because sealing
  // into client mailboxes advances per-client channel counters in submission order.
  SpanTimer match_span(PhaseHistogram(kResponseMatch), now_fn);
  std::vector<RequestBatch> matched_by_lb(config_.num_load_balancers);
  {
    TraceSpan match_trace(tracer_, "phase", "response_match", epoch_);
    RunPhase(config_.num_load_balancers, config_.epoch_threads, PoolContext(kResponseMatch),
             [&](size_t lb) {
      matched_by_lb[lb] =
          lbs_[lb]->MatchResponses(std::move(prepared[lb]), std::move(responses[lb]));
    });
  }
  // Delivery is deliberately serial (per-client channel counters advance in
  // submission order); its own span makes that serial fraction visible.
  TraceSpan deliver_trace(tracer_, "phase", "deliver", epoch_);
  uint64_t deferred = 0;
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    RequestBatch& matched = matched_by_lb[lb];
    for (size_t i = 0; i < matched.size(); ++i) {
      const RequestHeader& h = matched.Header(i);
      if (h.resp == 0) {
        // Unanswered: the target partition was unavailable this epoch. Defer back to
        // the epoch queue (bounded, once-per-epoch backoff) -- PrepareBatches
        // recomputes every scratch field, and the linearization point moves to the
        // epoch that finally answers, which is sound because no response was
        // delivered for this request yet.
        pending_[lb].Append(h,
                            std::span<const uint8_t>(matched.Value(i), config_.value_size));
        ++deferred;
        continue;
      }
      const auto session = clients_.find(h.client_id);
      if (session != clients_.end()) {
        // Sealed delivery for registered clients: [lb id | AEAD(response record)].
        RequestBatch one(config_.value_size);
        one.Append(h, std::span<const uint8_t>(matched.Value(i), config_.value_size));
        const std::vector<uint8_t> sealed =
            session->second.links[lb]->b_to_a().Seal(one.Serialize());
        std::vector<uint8_t> blob(4 + sealed.size());
        std::memcpy(blob.data(), &lb, 4);
        std::memcpy(blob.data() + 4, sealed.data(), sealed.size());
        session->second.mailbox.push_back(std::move(blob));
        continue;
      }
      ClientResponse resp;
      resp.client_id = h.client_id;
      resp.client_seq = h.client_seq;
      resp.key = h.key;
      resp.op = h.op;
      resp.value.assign(matched.Value(i), matched.Value(i) + config_.value_size);
      all.push_back(std::move(resp));
    }
  }

  deliver_trace.End();
  match_span.Stop();
  if (deferred > 0 && metrics_ != nullptr) {
    Metrics()->deferred_requests_total->Increment(deferred);
  }

  {
    TraceSpan seal_trace(tracer_, "phase", "seal", epoch_);
    SpanTimer seal_span(PhaseHistogram(kSeal), now_fn);
    SealEpochBoundary();
  }
  ++epoch_;
  epoch_span.Stop();
  if (metrics_ != nullptr) {
    network_.ExportTo(*metrics_);
  }
  return all;
}

// Build-then-swap: the new width is built off to the side (the exports are copies),
// so any failure before the commit, including ReshardAbortedError, leaves the running
// deployment untouched. The commit swaps in the new partitions and load balancers,
// creates their counters and re-registers endpoints.
void Snoopy::Reshard(uint32_t new_num_suborams) {
  const uint32_t old_s = config_.num_suborams;
  const uint32_t num_lbs = config_.num_load_balancers;
  if (new_num_suborams == 0) {
    throw std::invalid_argument("Reshard needs at least one subORAM");
  }
  ValidateStriping(config_.striping, new_num_suborams);
  for (uint32_t so = 0; so < old_s; ++so) {
    if (partition_health(so) != PartitionHealth::kHealthy) {
      // A reshard moves every partition; a repairing one has nothing to export yet.
      throw PartitionUnavailableError(StripeEndpointName(so), so,
                                      repair_epochs_remaining(so));
    }
    if (!partitions_[so].backend->SupportsExport()) {
      throw std::runtime_error(
          "subORAM backend without partition export cannot reshard");
    }
  }
  if (new_num_suborams == old_s) {
    return;
  }

  // A participant found (or polled) crashed at the boundary aborts the attempt before
  // any state moves; the caller recovers it as usual and retries at a later boundary.
  const auto check_abort = [&] {
    if (fault_injector_ == nullptr) {
      return;
    }
    for (uint32_t so = 0; so < old_s; ++so) {
      const std::string c = "suboram/" + std::to_string(so);
      if (fault_injector_->IsCrashed(c) || fault_injector_->IsLost(c) ||
          fault_injector_->PollEpochCrash(c)) {
        throw ReshardAbortedError("reshard aborted: participant " + c +
                                  " failed at the boundary");
      }
    }
  };
  check_abort();

  // Gather every partition and obliviously redistribute the key space over the new
  // width (the Figure 23 bin-placement sort in src/core/reshard.h). Per-partition
  // sizes under the secret keyed hash are public, exactly as at initialization.
  ByteSlab all(0, 8 + config_.value_size);
  for (uint32_t so = 0; so < old_s; ++so) {
    const ByteSlab part = partitions_[so].backend->ExportSlab();
    if (part.record_bytes() != 8 + config_.value_size) {
      throw std::runtime_error("exported partition has an unexpected record layout");
    }
    for (size_t i = 0; i < part.size(); ++i) {
      std::memcpy(all.AppendZero(), part.Record(i), part.record_bytes());
    }
  }
  const std::vector<ByteSlab> parts =
      PartitionSlabByBin(all, partition_key_, new_num_suborams, config_.value_size,
                         config_.sort_strategy, config_.lambda);
  check_abort();

  // Build the new deployment off to the side. Load balancer *enclaves* survive (their
  // client sessions must keep working); the balancer state machines are rebuilt for
  // the new width with their original base seeds, so EpochSeed determinism carries
  // over the reshard.
  std::vector<Partition> fresh;
  for (uint32_t so = 0; so < new_num_suborams; ++so) {
    fresh.push_back(MakePartition(so, new_num_suborams));
    fresh.back().backend->Initialize(SlabToObjects(parts[so], config_.value_size));
  }
  std::vector<std::unique_ptr<LoadBalancer>> new_lbs;
  for (uint32_t lb = 0; lb < num_lbs; ++lb) {
    LoadBalancerConfig lbc = lbs_[lb]->config();
    lbc.num_suborams = new_num_suborams;
    new_lbs.push_back(std::make_unique<LoadBalancer>(lbc, partition_key_, lb_base_seeds_[lb]));
  }
  check_abort();

  // Commit.
  for (uint32_t so = 0; so < old_s; ++so) {
    for (uint32_t lb = 0; lb < num_lbs; ++lb) {
      network_.Unregister(SubOramEndpointName(so, lb));
    }
    network_.Unregister(StripeEndpointName(so));
  }
  {
    std::lock_guard<std::mutex> g(health_mu_);
    partitions_ = std::move(fresh);
  }
  lbs_ = std::move(new_lbs);
  config_.num_suborams = new_num_suborams;
  for (uint32_t so = 0; so < new_num_suborams; ++so) {
    partitions_[so].counter_id = counters_.Create();
    RegisterSubOramEndpoints(so);
  }
  // Fresh rollback-protected snapshots + redundancy for the new partitions.
  SealEpochBoundary();
  CountEvent("snoopy_reshards_total");
}

}  // namespace snoopy
