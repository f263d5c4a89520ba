#include "src/core/snoopy.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/reshard.h"
#include "src/enclave/trace.h"
#include "src/obl/parallel.h"

namespace snoopy {

namespace {

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

}  // namespace

Snoopy::Snoopy(const SnoopyConfig& config, uint64_t seed)
    : Snoopy(config, seed, [config](uint32_t id, uint64_t backend_seed) {
        return std::make_unique<SubOram>(
            SubOramConfig{.id = id, .value_size = config.value_size, .lambda = config.lambda,
                          .sort_strategy = SortStrategy::kAuto},
            backend_seed);
      }) {}

Snoopy::Snoopy(const SnoopyConfig& config, uint64_t seed, const SubOramBackendFactory& factory)
    : Snoopy(config, seed, [&factory](uint32_t id, uint64_t backend_seed) {
        return factory.Create(id, backend_seed);
      }) {}

Snoopy::Snoopy(const SnoopyConfig& config, uint64_t seed, BackendMaker make_backend)
    : make_backend_(std::move(make_backend)), config_(config), rng_(seed) {
  if (config_.num_load_balancers == 0 || config_.num_suborams == 0) {
    throw std::invalid_argument("Snoopy needs at least one load balancer and one subORAM");
  }
  ValidateStriping(config_.striping, config_.num_suborams);
  partition_key_ = rng_.NextSipKey();

  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    lb_enclaves_.push_back(std::make_unique<Enclave>("snoopy-load-balancer", lb));
    lb_base_seeds_.push_back(rng_.Next64());
    lbs_.push_back(MakeLoadBalancer(lb, config_.num_suborams));
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
  set_metrics_registry(metrics_);
}

Snoopy::Partition Snoopy::MakePartition(uint32_t so, uint32_t num_suborams) {
  Partition p;
  p.enclave = std::make_unique<Enclave>("snoopy-suboram", so);
  p.backend = make_backend_(so, rng_.Next64());
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    p.links.push_back(AttestLink(*lb_enclaves_[lb], *p.enclave, lb * num_suborams + so));
  }
  p.link_generation.assign(config_.num_load_balancers, 0);
  return p;
}

std::unique_ptr<LoadBalancer> Snoopy::MakeLoadBalancer(uint32_t lb, uint32_t num_suborams) const {
  return std::make_unique<LoadBalancer>(
      LoadBalancerConfig{.id = lb, .num_suborams = num_suborams,
                         .value_size = config_.value_size, .lambda = config_.lambda,
                         .sort_strategy = SortStrategy::kAuto},
      partition_key_, lb_base_seeds_[lb]);
}

void Snoopy::RegisterSubOramEndpoints(uint32_t so) {
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    network_.Register(SubOramEndpointName(so, lb),
                      [this, lb, so](std::span<const uint8_t> payload) {
                        return SubOramEndpointHandler(lb, so, payload);
                      });
  }
  // Host-level stripe traffic runs inline on the caller's thread, at epoch boundaries
  // only: repair's manifests and fetches on the orchestrator, the seal's pushes in
  // rounds where each peer's store has one writer (SealEpochBoundary), so the store
  // needs no locking. A push arrives as header + sealed snapshot, never joined.
  network_.Register(StripeEndpointName(so),
                    [this, so](std::span<const uint8_t> head, std::span<const uint8_t> body) {
                      return ServeStripeRequest(partitions_[so].stripes, head, body,
                                                StripeEndpointName(so));
                    });
}

void Snoopy::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  network_.set_fault_injector(injector);
}

void Snoopy::set_metrics_registry(MetricsRegistry* registry) {
  metrics_ = registry;
  metrics_cache_ = registry != nullptr
                       ? EpochMetrics::Resolve(*registry, config_.num_load_balancers)
                       : EpochMetrics{};
}

EpochTelemetry Snoopy::Telemetry() const {
  // Under fault injection the epoch pipeline advances the VirtualClock (retry
  // backoffs, injected delays); spans read the same clock so chaos runs are
  // deterministic. Outside fault injection, wall time.
  return {epoch_, tracer_, metrics_ != nullptr ? &metrics_cache_ : nullptr, [this] {
            return fault_injector_ != nullptr ? clock_.now_s() : SpanTimer::SteadyNowSeconds();
          }};
}

void Snoopy::CountEvent(const std::string& name, const MetricLabels& labels,
                        uint64_t n) const {
  if (metrics_ != nullptr) {
    metrics_->GetCounter(name, labels).Increment(n);
  }
}

void Snoopy::Initialize(
    const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) {
  for (const auto& obj : objects) {
    if (obj.first >= kDummyKeyBase) {
      throw std::invalid_argument("object keys must be below 2^63");
    }
  }
  std::vector<std::vector<std::pair<uint64_t, std::vector<uint8_t>>>> parts(config_.num_suborams);
  if (config_.oblivious_init) {
    // Paper Figure 23 via the shared oblivious redistribution kernel
    // (src/core/reshard.h), the same machinery elastic resharding runs at epoch
    // boundaries.
    ByteSlab slab(0, 8 + config_.value_size);
    for (const auto& [key, value] : objects) {
      uint8_t* rec = slab.AppendZero();
      std::memcpy(rec, &key, 8);
      std::memcpy(rec + 8, value.data(), std::min(value.size(), config_.value_size));
    }
    const std::vector<ByteSlab> slabs =
        PartitionSlabByBin(slab, partition_key_, config_.num_suborams, config_.value_size,
                           SortStrategy::kAuto, config_.lambda);
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      parts[so] = SlabToObjects(slabs[so], config_.value_size);
    }
  } else {
    for (const auto& obj : objects) {
      parts[lbs_[0]->SubOramOf(obj.first)].push_back(obj);
    }
  }
  // The lists are freed together after the last load (freeing each in turn slows set-up).
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    partitions_[so].backend->Initialize(parts[so]);
  }
  parts = {};
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
// run pooled too, in rounds with one task per peer (PushStripes). A repairing peer has
// no machine to store on, and one unreachable past the retry budget misses this
// snapshot; both are counted, and redundancy re-converges at a later boundary.
void Snoopy::SealEpochBoundary() {
  std::vector<StripeEncoding> stripes(config_.num_suborams);
  RunPhase(config_.num_suborams, config_.epoch_threads, Telemetry().Pool(kSeal), [&](size_t so) {
    Partition& p = partitions_[so];
    if (!p.repair && p.backend->SupportsSealing()) {
      p.backend->SealStateInto(*sealed_store_, p.counter_id, p.snapshot);
      p.sealed_bytes = p.snapshot.size();
      stripes[so] = EncodeStripes(config_.striping, static_cast<uint32_t>(so),
                                  counters_.Read(p.counter_id), p.snapshot);
    }
  });
  for (Partition& p : partitions_) {
    p.response_cache.clear();
    p.executed_lbs.clear();
  }
  PushStripes(stripes);
}

// Round r runs every owner's push to its rank-r peer as one pooled RunPhase. Peers are
// successors at a fixed offset per rank, so within a round no two pushes share a peer:
// each peer's stripe store and its endpoint's fault stream have one writer, and
// neither needs a lock. A push's retry loop recovers a crashed peer inline, as a
// phase-2 task recovers its subORAM: the recovery touches only that peer's backend,
// links and cache, which no other task of the round writes (its key draws are
// serialized under rng_mu_). Tasks are owners in order, so the merged enclave trace
// has a fixed public order (with one rank, the owner-order sequence of a serial loop).
void Snoopy::PushStripes(const std::vector<StripeEncoding>& stripes) {
  struct Push {
    uint32_t owner = 0;
    uint32_t peer = 0;
    StripeStoreFrame frame;  // header + a view of the owner's snapshot or encoding
  };
  std::vector<std::vector<Push>> rounds;  // by peer rank, owners in order
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    if (partition_health(so) != PartitionHealth::kHealthy || stripes[so].digests.empty()) {
      continue;
    }
    const std::vector<uint32_t> peers = StripePeers(config_.striping, config_.num_suborams, so);
    rounds.resize(peers.size());
    for (size_t rank = 0; rank < peers.size(); ++rank) {
      if (partition_health(peers[rank]) != PartitionHealth::kHealthy) {
        CountEvent("snoopy_stripe_skips_total");
        continue;
      }
      rounds[rank].push_back({so, peers[rank],
                              EncodeStripeStore(config_.striping, so, partitions_[so].snapshot,
                                                stripes[so], rank)});
    }
  }
  PhasePoolContext pool = Telemetry().Pool(kSeal);
  pool.phase = "stripe_push";
  pool.metrics = nullptr;
  for (const std::vector<Push>& round : rounds) {
    RunPhase(round.size(), config_.epoch_threads, pool, [&](size_t i) {
      const Push& push = round[i];
      TraceSpan span(tracer_, "step", "stripe_push", push.owner);
      span.SetArg("owner", push.owner);
      span.SetArg("peer", push.peer);
      span.SetArg("bytes", push.frame.size());
      try {
        RetriedStripeCall(push.owner, push.peer, push.frame.header, push.frame.payload);
        CountEvent("snoopy_stripe_push_bytes_total", {}, push.frame.size());
      } catch (const NetworkError&) {
        CountEvent("snoopy_stripe_failures_total");
      }
    });
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
RequestBatch Snoopy::CallSubOram(uint32_t lb, uint32_t so,
                                 const std::vector<LoadBalancer::PreparedEpoch>& prepared) {
  const std::string caller = "lb/" + std::to_string(lb);
  const std::string endpoint = SubOramEndpointName(so, lb);
  const Partition& p = partitions_[so];
  const std::vector<uint8_t> serialized = prepared[lb].suboram_batches[so].Serialize();
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
  return RequestBatch::Deserialize(RetriedCall(
      caller, endpoint, /*jitter_seed=*/EpochSeed(lb_base_seeds_[lb], epoch_) ^ so, call,
      [&] { RecoverSubOram(so, &prepared, lb); }));
}

std::vector<uint8_t> Snoopy::RetriedCall(const std::string& caller, const std::string& endpoint,
                                         uint64_t jitter_seed,
                                         const std::function<std::vector<uint8_t>()>& call,
                                         const std::function<void()>& recover) {
  RetryExecutor executor(config_.retry, jitter_seed, &clock_);
  executor.set_on_retry([&] {
    network_.RecordRetry(caller, endpoint);
    CountEvent("snoopy_retries_total", {{"endpoint", endpoint}});
  });
  return executor.Execute(call, [&](const EndpointCrashedError&) { recover(); });
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
  for (const uint32_t lb : p.executed_lbs) {
    if (lb < lb_limit) {
      CallSubOram(lb, so, *prepared);
    }
  }
}

bool Snoopy::RestoreFailedEpoch() {
  bool all_restored = true;
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    Partition& p = partitions_[so];
    bool restored = false;
    if (!p.repair && p.backend->SupportsSealing()) {
      try {
        RestorePartition(so, p.snapshot);
        restored = true;
      } catch (const RollbackDetectedError&) {
        // The host's snapshot is stale or tampered: the partition keeps its state,
        // and its next restore refuses the same bytes again.
      }
    }
    all_restored = all_restored && (restored || p.executed_lbs.empty());
    p.response_cache.clear();
    p.executed_lbs.clear();
  }
  return all_restored;
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
  lbs_[lb] = MakeLoadBalancer(lb, config_.num_suborams);
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

std::vector<uint8_t> Snoopy::RetriedStripeCall(uint32_t so, uint32_t peer,
                                               std::span<const uint8_t> head,
                                               std::span<const uint8_t> body) {
  const std::string caller = "suboram/" + std::to_string(so);
  const std::string endpoint = StripeEndpointName(peer);
  auto call = [&]() -> std::vector<uint8_t> {
    std::vector<uint8_t> resp = network_.Call(caller, endpoint, head, body);
    CheckStripeReply(head, resp, endpoint);
    return resp;
  };
  // Stripe traffic only flows at epoch boundaries (post-seal), so a peer crash
  // observed here recovers from its already-sealed post-epoch snapshot with nothing
  // to replay.
  return RetriedCall(caller, endpoint,
                     /*jitter_seed=*/Mix64(epoch_ ^ (uint64_t{so} << 32) ^ peer), call,
                     [&] { RecoverSubOram(peer, nullptr, 0); });
}

void Snoopy::LoseSubOram(uint32_t so) {
  const std::string component = "suboram/" + std::to_string(so);
  Partition& p = partitions_[so];
  if (p.repair) {
    return;  // already detected
  }
  p.repair.emplace(config_.striping, so, p.sealed_bytes);
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
  CountEvent("snoopy_partition_losses_total", {{"component", component}});
}

void Snoopy::RepairStep(uint32_t so) {
  Partition& p = partitions_[so];
  StripeRepair& repair = *p.repair;
  std::vector<uint32_t> peers;
  for (const uint32_t peer : StripePeers(config_.striping, config_.num_suborams, so)) {
    if (partition_health(peer) == PartitionHealth::kHealthy) {
      peers.push_back(peer);
    }
  }
  const StripeRepair::Call call = [&](uint32_t peer, std::span<const uint8_t> request) {
    return RetriedStripeCall(so, peer, request);
  };
  if (!repair.plan()) {
    repair.Plan(peers, call);
  }
  std::optional<std::vector<uint8_t>> blob;
  try {
    blob = repair.Step(call);
  } catch (const NetworkError&) {
    // A source vanished mid-repair. Replan from the surviving peers and restart the
    // window (a public event driven by the public failure process); Plan throws when
    // nothing reconstructs any more.
    repair.Plan(peers, call);
    return;
  }
  if (!blob) {
    return;
  }
  // Restore on the spare node under the dead identity. The counter check extends
  // rollback refusal to repair: a stale stripe set (host replaying a superseded seal
  // generation) is never served, and the refused repair retries the same bytes.
  const std::string component = "suboram/" + std::to_string(so);
  RestorePartition(so, *blob);
  p.snapshot = std::move(*blob);  // freshest host snapshot for crash recovery
  p.executed_lbs.clear();
  if (fault_injector_ != nullptr) {
    fault_injector_->Reincarnate(component);
  }
  CountEvent("snoopy_repairs_completed_total", {{"component", component}});
  p.repair.reset();
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
  const EpochTelemetry telemetry = Telemetry();

  // Root spans plus public epoch facts; the tracer span closes after every phase span,
  // so tools/trace_report.py can split the epoch into phases and orchestrator gaps.
  // Per-balancer request counts are public (the network adversary sees who talks to
  // which balancer); contents and key distribution never reach telemetry.
  SpanTimer epoch_span(telemetry.metrics != nullptr ? telemetry.metrics->epoch_seconds : nullptr,
                       telemetry.now);
  TraceSpan epoch_trace(tracer_, "epoch", "epoch", epoch_);
  epoch_trace.SetArg("pending", pending_requests());
  epoch_trace.SetArg("load_balancers", config_.num_load_balancers);
  epoch_trace.SetArg("suborams", config_.num_suborams);
  if (telemetry.metrics != nullptr) {
    telemetry.metrics->epochs_total->Increment();
    telemetry.metrics->requests_total->Increment(pending_requests());
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
    const bool any_repairing = std::any_of(partitions_.begin(), partitions_.end(),
                                           [](const Partition& p) { return p.repair.has_value(); });
    TraceSpan repair_trace(any_repairing ? tracer_ : nullptr, "phase", "repair", epoch_);
    SpanTimer repair_span(any_repairing ? telemetry.PhaseHistogram(kRepair) : nullptr,
                          telemetry.now);
    for (uint32_t so = 0; so < config_.num_suborams; ++so) {
      if (partition_health(so) == PartitionHealth::kRepairing) {
        RepairStep(so);
      }
    }
  }
  std::vector<bool> available;
  for (const Partition& p : partitions_) {
    available.push_back(!p.repair);
  }
  if (telemetry.metrics != nullptr && std::count(available.begin(), available.end(), false) > 0) {
    telemetry.metrics->degraded_epochs_total->Increment();
  }

  // The protocol (src/core/epoch.h). Each batch is really sealed at the load balancer
  // and opened in the subORAM endpoint, under the retry policy; per-endpoint fault
  // streams keep each (lb, so) exchange's faults independent of how tasks interleave.
  std::vector<uint64_t> seeds(config_.num_load_balancers);
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    seeds[lb] = EpochSeed(lb_base_seeds_[lb], epoch_);
  }
  EpochResult result = RunEpochProtocol(lbs_, pending_, seeds, available, config_.epoch_threads,
                                        telemetry, std::bind_front(&Snoopy::CallSubOram, this));
  // An exchange failure skipped the match: every request came back unanswered.
  const bool match_skipped = std::any_of(result.failures.begin(), result.failures.end(),
                                         [](const std::exception_ptr& f) { return f != nullptr; });
  // Mid-epoch losses apply here, on the orchestrator thread and in partition order;
  // a loss with striping disabled is a failure too.
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    try {
      if (result.lost[so] != 0) {
        LoseSubOram(so);
      }
    } catch (...) {
      result.failures[so] = std::current_exception();
    }
  }
  // A failed epoch delivers and seals nothing. Its requests requeue through the
  // deferral loop below only when the match was skipped and the partitions could
  // return to the boundary; otherwise they are dropped and the lowest-index failure
  // surfaces here.
  const auto failure = std::find_if(result.failures.begin(), result.failures.end(),
                                    [](const std::exception_ptr& f) { return f != nullptr; });
  if (failure != result.failures.end() && (!RestoreFailedEpoch() || !match_skipped)) {
    std::rethrow_exception(*failure);
  }

  // Delivery stays on the orchestrator thread because sealing into client mailboxes
  // advances per-client channel counters in submission order; its own span makes
  // that serial fraction visible. The response_match timer still runs: it covers
  // delivery too.
  TraceSpan deliver_trace(tracer_, "phase", "deliver", epoch_);
  uint64_t deferred = 0;
  for (uint32_t lb = 0; lb < config_.num_load_balancers; ++lb) {
    RequestBatch& matched = result.matched[lb];
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
  result.match_timer.reset();
  if (deferred > 0 && telemetry.metrics != nullptr) {
    telemetry.metrics->deferred_requests_total->Increment(deferred);
  }
  if (failure != result.failures.end()) {
    std::rethrow_exception(*failure);  // requeued above
  }

  {
    TraceSpan seal_trace(tracer_, "phase", "seal", epoch_);
    SpanTimer seal_span(telemetry.PhaseHistogram(kSeal), telemetry.now);
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
                         SortStrategy::kAuto, config_.lambda);
  check_abort();

  // Build the new partitions off to the side. Load balancer *enclaves* survive (their
  // client sessions must keep working); the balancer state machines are rebuilt for
  // the new width at the commit (a rebuild cannot fail) with their original base
  // seeds, so EpochSeed determinism carries over the reshard.
  std::vector<Partition> fresh;
  for (uint32_t so = 0; so < new_num_suborams; ++so) {
    fresh.push_back(MakePartition(so, new_num_suborams));
    fresh.back().backend->Initialize(SlabToObjects(parts[so], config_.value_size));
  }
  check_abort();

  // Commit.
  for (uint32_t so = 0; so < old_s; ++so) {
    for (uint32_t lb = 0; lb < num_lbs; ++lb) {
      network_.Unregister(SubOramEndpointName(so, lb));
    }
    network_.Unregister(StripeEndpointName(so));
  }
  partitions_ = std::move(fresh);
  for (uint32_t lb = 0; lb < num_lbs; ++lb) {
    lbs_[lb] = MakeLoadBalancer(lb, new_num_suborams);
  }
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
