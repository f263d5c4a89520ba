#include "src/core/snoopy.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/core/reshard.h"
#include "src/crypto/sha256.h"
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

// --- Stripe wire format -------------------------------------------------------------
// Host-level plaintext messages between subORAM hosts; the payloads are already
// AEAD-sealed counter-bound snapshots (or chunks of them), so confidentiality and
// rollback protection come from the sealing layer. A SHA-256 digest over the
// addressing fields and the payload catches in-flight corruption: a mismatch surfaces
// as IntegrityError inside the retry loop, like any transient fault.
constexpr uint8_t kStripeStore = 0;
constexpr uint8_t kStripeManifest = 1;
constexpr uint8_t kStripeFetch = 2;
// op(1) owner(4) seal_counter(8) chunk_index(4) chunk_count(4) blob_len(8) offset(8)
// len(8) digest(32).
constexpr size_t kStripeHeaderBytes = 77;
constexpr size_t kStripeManifestRespBytes = 33;

// `payload` is a view: into the sender's snapshot when encoding, into the received
// wire bytes when decoding.
struct StripeMsg {
  uint8_t op = 0;
  uint32_t owner = 0;
  uint64_t seal_counter = 0;
  uint32_t chunk_index = 0;
  uint32_t chunk_count = 0;
  uint64_t blob_len = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
  Sha256::Digest digest{};
  std::span<const uint8_t> payload;
};

// Header, then the payload, then `zero_pad` zero bytes (a parity-mode data chunk
// padded to the common chunk length), each written once.
std::vector<uint8_t> EncodeStripeMsg(const StripeMsg& m, size_t zero_pad = 0) {
  std::vector<uint8_t> out;
  out.reserve(kStripeHeaderBytes + m.payload.size() + zero_pad);
  out.resize(kStripeHeaderBytes);
  uint8_t* p = out.data();
  *p = m.op;
  std::memcpy(p + 1, &m.owner, 4);
  std::memcpy(p + 5, &m.seal_counter, 8);
  std::memcpy(p + 13, &m.chunk_index, 4);
  std::memcpy(p + 17, &m.chunk_count, 4);
  std::memcpy(p + 21, &m.blob_len, 8);
  std::memcpy(p + 29, &m.offset, 8);
  std::memcpy(p + 37, &m.len, 8);
  std::memcpy(p + 45, m.digest.data(), 32);
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  out.resize(out.size() + zero_pad);
  return out;
}

StripeMsg DecodeStripeMsg(std::span<const uint8_t> bytes, const std::string& endpoint) {
  if (bytes.size() < kStripeHeaderBytes) {
    throw IntegrityError(endpoint);
  }
  StripeMsg m;
  const uint8_t* p = bytes.data();
  m.op = *p;
  std::memcpy(&m.owner, p + 1, 4);
  std::memcpy(&m.seal_counter, p + 5, 8);
  std::memcpy(&m.chunk_index, p + 13, 4);
  std::memcpy(&m.chunk_count, p + 17, 4);
  std::memcpy(&m.blob_len, p + 21, 8);
  std::memcpy(&m.offset, p + 29, 8);
  std::memcpy(&m.len, p + 37, 8);
  std::memcpy(m.digest.data(), p + 45, 32);
  m.payload = bytes.subspan(kStripeHeaderBytes);
  return m;
}

// Digest over the addressing fields and `payload` followed by `zero_pad` zero bytes.
Sha256::Digest StripeDigest(uint32_t owner, uint64_t seal_counter, uint32_t chunk_index,
                            uint64_t offset, std::span<const uint8_t> payload,
                            size_t zero_pad = 0) {
  Sha256 h;
  uint8_t fields[24];
  std::memcpy(fields, &owner, 4);
  std::memcpy(fields + 4, &seal_counter, 8);
  std::memcpy(fields + 12, &chunk_index, 4);
  std::memcpy(fields + 16, &offset, 8);
  h.Update(fields, sizeof(fields));
  h.Update(payload);
  static constexpr uint8_t kZeros[Sha256::kBlockBytes] = {};
  while (zero_pad > 0) {
    const size_t n = std::min(zero_pad, sizeof(kZeros));
    h.Update(kZeros, n);
    zero_pad -= n;
  }
  return h.Finalize();
}

// Chunk c of a snapshot split into `chunk_len`-byte chunks; the last data chunk may
// be short (its zero padding exists only on the wire and in the digest).
std::span<const uint8_t> StripeChunk(std::span<const uint8_t> blob, uint32_t c,
                                     uint64_t chunk_len) {
  const uint64_t off = uint64_t{c} * chunk_len;
  if (off >= blob.size()) {
    return {};
  }
  return blob.subspan(static_cast<size_t>(off),
                      static_cast<size_t>(std::min<uint64_t>(chunk_len, blob.size() - off)));
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
  if (config_.striping.replicas > 0) {
    if (config_.num_suborams <= StripePeerCount()) {
      throw std::invalid_argument(
          "striping needs num_suborams > replicas (+1 in parity mode): the stripes "
          "live on peer subORAMs");
    }
    if (config_.striping.repair_epochs == 0) {
      throw std::invalid_argument("striping.repair_epochs must be positive");
    }
  }
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
  network_.Register(StripeEndpointName(so), [this, so](std::span<const uint8_t> payload) {
    return StripeEndpointHandler(so, payload);
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
// each, paper section 9), then retire the per-epoch dedup state, then distribute
// redundancy stripes. The ordering matters: a stripe push can trigger a peer's crash
// recovery, which must restore the *post*-epoch snapshot with an empty executed set --
// sealing or clearing after distribution could lose the epoch's writes at that peer.
//
// The seal is one pooled phase, a task per subORAM: each task seals its partition in
// place into the buffer of its previous snapshot and encodes its stripes (digests,
// parity). Tasks touch only their own backend, snapshot and counter (SealedStore is
// safe on distinct counters), so every counter still advances once per boundary. The
// stripe pushes stay serial on the orchestrator, which is what lets the stripe store
// go without locking.
void Snoopy::SealEpochBoundary() {
  std::vector<StripeEncoding> stripes(config_.num_suborams);
  RunPhase(config_.num_suborams, config_.epoch_threads, PoolContext(kSeal), [&](size_t so) {
    Partition& p = partitions_[so];
    if (partition_health(static_cast<uint32_t>(so)) == PartitionHealth::kHealthy &&
        p.backend->SupportsSealing()) {
      p.backend->SealStateInto(*sealed_store_, p.counter_id, p.snapshot);
      stripes[so] = EncodeStripes(static_cast<uint32_t>(so));
    }
  });
  for (Partition& p : partitions_) {
    p.response_cache.clear();
    p.executed_lbs.clear();
  }
  for (uint32_t so = 0; so < config_.num_suborams; ++so) {
    if (partition_health(so) == PartitionHealth::kHealthy) {
      DistributeStripes(so, stripes[so]);
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
// the subORAM's host side recognize a retransmission and re-serve the cached sealed
// response instead of re-executing -- retried and duplicated deliveries therefore
// change neither the store state (Appendix C linearizability) nor the enclave's
// memory trace (the batch is processed exactly once).
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
    if (metrics_ != nullptr) {
      metrics_->GetCounter("snoopy_dedup_hits_total").Increment();
    }
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

// One load-balancer-to-subORAM exchange under the retry policy. Seals lazily and only
// once per link generation: a resend must be byte-identical (the dedup cache and the
// channel counters both depend on it), but after a crash recovery rekeys the link, the
// old bytes are for a dead session and the batch must be resealed. A crash observed
// mid-call triggers RecoverSubOram with this call's lb as the replay limit.
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
    if (metrics_ != nullptr) {
      metrics_->GetCounter("snoopy_retries_total", {{"endpoint", endpoint}}).Increment();
    }
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
                                      p.repair.epochs_remaining);
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
  if (metrics_ != nullptr) {
    metrics_->GetCounter("snoopy_recoveries_total", {{"component", component}}).Increment();
  }

  // The snapshot predates this epoch's batches; replay the ones the subORAM had
  // already executed (in load-balancer order, the Appendix C linearization) so the
  // restored state catches up to the crash point. The caller's own batch (lb_limit)
  // is excluded -- its pending retry delivers it. Replays run through the normal
  // endpoint path: they repopulate the response cache, tolerate further transient
  // faults, and -- via RetriedSubOramCall's own crash handling -- recover recursively
  // if the component is crashed again mid-replay (safe because the executed set is
  // durable across recoveries and restore is idempotent from the same snapshot).
  // Responses are discarded: re-execution from the same pre-epoch state reproduces
  // the already-delivered answers.
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
  // Load balancers are stateless across epochs (section 4.3): rebuild is a fresh
  // enclave with the same static partition key and config. Its epoch preparation is
  // already deterministic via EpochSeed, so the replacement produces byte-identical
  // batches to the ones the crashed instance would have sent. Pending requests live
  // with the clients in this model; they resubmit into the rebuilt instance.
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
  if (metrics_ != nullptr) {
    metrics_->GetCounter("snoopy_recoveries_total", {{"component", "lb/" + std::to_string(lb)}})
        .Increment();
  }
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
  return partitions_[so].repair.epochs_remaining;
}

const Snoopy::HostStripe* Snoopy::host_stripe(uint32_t peer, uint32_t owner) const {
  const std::map<uint32_t, HostStripe>& held = partitions_[peer].stripes;
  const auto it = held.find(owner);
  return it == held.end() ? nullptr : &it->second;
}

void Snoopy::host_replace_stripe(uint32_t peer, uint32_t owner, HostStripe stripe) {
  partitions_[peer].stripes[owner] = std::move(stripe);
}

uint32_t Snoopy::StripePeerCount() const {
  return config_.striping.replicas + (config_.striping.xor_parity ? 1 : 0);
}

std::vector<uint32_t> Snoopy::StripePeers(uint32_t so) const {
  const uint32_t count = StripePeerCount();
  std::vector<uint32_t> peers;
  peers.reserve(count);
  for (uint32_t i = 1; peers.size() < count; ++i) {
    peers.push_back((so + i) % config_.num_suborams);
  }
  return peers;
}

std::vector<uint8_t> Snoopy::RetriedStripeCall(uint32_t so, uint32_t peer,
                                               const std::vector<uint8_t>& request) {
  const std::string caller = "suboram/" + std::to_string(so);
  const std::string endpoint = StripeEndpointName(peer);
  const uint8_t op = request.empty() ? 0xff : request[0];
  auto call = [&]() -> std::vector<uint8_t> {
    std::vector<uint8_t> resp = network_.Call(caller, endpoint, request);
    if (op == kStripeFetch) {
      // Verify the fetched slice inside the retried call so a corrupted reply is
      // retried like any other transient fault.
      const StripeMsg req = DecodeStripeMsg(request, endpoint);
      if (resp.size() != 32 + req.len) {
        throw IntegrityError(endpoint);
      }
      const Sha256::Digest d =
          StripeDigest(req.owner, req.seal_counter, req.chunk_index, req.offset,
                       std::span<const uint8_t>(resp.data() + 32, req.len));
      if (!std::equal(d.begin(), d.end(), resp.begin())) {
        throw IntegrityError(endpoint);
      }
    }
    return resp;
  };
  // Stripe traffic only flows at epoch boundaries (post-seal), so a peer crash
  // observed here recovers from its already-sealed post-epoch snapshot with nothing
  // to replay.
  return RetriedCall(caller, endpoint,
                     /*jitter_seed=*/Mix64(epoch_ ^ (uint64_t{so} << 32) ^ peer), call, peer,
                     nullptr, 0);
}

// Host-level stripe traffic at peer `so`. Runs inline on the caller's thread; all
// stripe traffic happens on the orchestrator thread at epoch boundaries, so the store
// needs no locking.
std::vector<uint8_t> Snoopy::StripeEndpointHandler(uint32_t so,
                                                   std::span<const uint8_t> payload) {
  const std::string endpoint = StripeEndpointName(so);
  const StripeMsg m = DecodeStripeMsg(payload, endpoint);
  auto& store = partitions_[so].stripes;
  switch (m.op) {
    case kStripeStore: {
      if (m.digest != StripeDigest(m.owner, m.seal_counter, m.chunk_index, 0, m.payload)) {
        throw IntegrityError(endpoint);  // corrupted in flight; the owner retries
      }
      HostStripe s;
      s.seal_counter = m.seal_counter;
      s.chunk_index = m.chunk_index;
      s.chunk_count = m.chunk_count;
      s.blob_len = m.blob_len;
      s.payload.assign(m.payload.begin(), m.payload.end());
      store[m.owner] = std::move(s);  // latest seal wins; a re-store is idempotent
      return {1};
    }
    case kStripeManifest: {
      std::vector<uint8_t> out(kStripeManifestRespBytes, 0);
      const auto it = store.find(m.owner);
      if (it != store.end()) {
        const HostStripe& s = it->second;
        const uint64_t chunk_len = s.payload.size();
        out[0] = 1;
        std::memcpy(out.data() + 1, &s.seal_counter, 8);
        std::memcpy(out.data() + 9, &s.chunk_index, 4);
        std::memcpy(out.data() + 13, &s.chunk_count, 4);
        std::memcpy(out.data() + 17, &s.blob_len, 8);
        std::memcpy(out.data() + 25, &chunk_len, 8);
      }
      return out;
    }
    case kStripeFetch: {
      const auto it = store.find(m.owner);
      // Range check in a form that cannot wrap: offset and len are 64-bit wire
      // fields, and `offset + len > size` passes for offset near 2^64.
      if (it == store.end() || it->second.seal_counter != m.seal_counter ||
          it->second.chunk_index != m.chunk_index ||
          m.offset > it->second.payload.size() ||
          m.len > it->second.payload.size() - m.offset) {
        // Addressing mismatch (stale manifest or corrupted request): retried, and the
        // repair coordinator replans from fresh manifests if it keeps failing.
        throw IntegrityError(endpoint);
      }
      const std::span<const uint8_t> slice(it->second.payload.data() + m.offset,
                                           static_cast<size_t>(m.len));
      const Sha256::Digest d =
          StripeDigest(m.owner, m.seal_counter, m.chunk_index, m.offset, slice);
      std::vector<uint8_t> out(32 + slice.size());
      std::memcpy(out.data(), d.data(), 32);
      if (!slice.empty()) {
        std::memcpy(out.data() + 32, slice.data(), slice.size());
      }
      return out;
    }
    default:
      throw IntegrityError(endpoint);
  }
}

Snoopy::StripeEncoding Snoopy::EncodeStripes(uint32_t so) const {
  const StripingConfig& sc = config_.striping;
  const Partition& p = partitions_[so];
  const std::span<const uint8_t> blob = p.snapshot;
  StripeEncoding enc;
  if (sc.replicas == 0 || blob.empty()) {
    return enc;
  }
  enc.seal_counter = counters_.Read(p.counter_id);
  if (!sc.xor_parity) {
    enc.digests.push_back(StripeDigest(so, enc.seal_counter, 0, 0, blob));
    return enc;
  }
  // Parity mode: `replicas` zero-padded equal-size data chunks plus their XOR, which
  // goes to the extra peer as chunk index `replicas`.
  const uint32_t chunk_count = sc.replicas;
  enc.chunk_len = (blob.size() + chunk_count - 1) / chunk_count;
  enc.parity.assign(static_cast<size_t>(enc.chunk_len), 0);
  for (uint32_t c = 0; c < chunk_count; ++c) {
    const std::span<const uint8_t> chunk = StripeChunk(blob, c, enc.chunk_len);
    enc.digests.push_back(StripeDigest(so, enc.seal_counter, c, 0, chunk,
                                       static_cast<size_t>(enc.chunk_len) - chunk.size()));
    for (size_t j = 0; j < chunk.size(); ++j) {
      enc.parity[j] ^= chunk[j];
    }
  }
  enc.digests.push_back(StripeDigest(so, enc.seal_counter, chunk_count, 0, enc.parity));
  return enc;
}

void Snoopy::DistributeStripes(uint32_t so, const StripeEncoding& enc) {
  const StripingConfig& sc = config_.striping;
  if (enc.digests.empty()) {
    return;
  }
  const std::span<const uint8_t> blob = partitions_[so].snapshot;
  const std::vector<uint32_t> peers = StripePeers(so);
  for (size_t i = 0; i < peers.size(); ++i) {
    const uint32_t peer = peers[i];
    if (partition_health(peer) != PartitionHealth::kHealthy) {
      // A repairing peer has no machine to store on; redundancy for this snapshot
      // re-converges at the next boundary after its repair.
      if (metrics_ != nullptr) {
        metrics_->GetCounter("snoopy_stripe_skips_total").Increment();
      }
      continue;
    }
    StripeMsg m;
    m.op = kStripeStore;
    m.owner = so;
    m.seal_counter = enc.seal_counter;
    m.chunk_index = sc.xor_parity ? static_cast<uint32_t>(i) : 0;
    m.chunk_count = sc.xor_parity ? sc.replicas : 1;
    m.blob_len = blob.size();
    m.digest = enc.digests[m.chunk_index];
    size_t zero_pad = 0;
    if (!sc.xor_parity) {
      m.payload = blob;
    } else if (m.chunk_index == sc.replicas) {
      m.payload = enc.parity;
    } else {
      m.payload = StripeChunk(blob, m.chunk_index, enc.chunk_len);
      zero_pad = static_cast<size_t>(enc.chunk_len) - m.payload.size();
    }
    try {
      RetriedStripeCall(so, peer, EncodeStripeMsg(m, zero_pad));
    } catch (const NetworkError&) {
      // Peer unreachable past the retry budget (or permanently lost mid-push): skip
      // its copy of this snapshot; the next boundary re-stripes.
      if (metrics_ != nullptr) {
        metrics_->GetCounter("snoopy_stripe_failures_total").Increment();
      }
    }
  }
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
    p.repair = RepairState{};
    p.repair.epochs_remaining = config_.striping.repair_epochs;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("snoopy_partition_losses_total", {{"component", component}})
        .Increment();
  }
}

void Snoopy::PlanRepair(uint32_t so) {
  const StripingConfig& sc = config_.striping;
  RepairState& rs = partitions_[so].repair;
  struct Manifest {
    uint32_t peer = 0;
    uint64_t seal_counter = 0;
    uint32_t chunk_index = 0;
    uint32_t chunk_count = 0;
    uint64_t blob_len = 0;
    uint64_t chunk_len = 0;
  };
  std::vector<Manifest> manifests;
  for (const uint32_t peer : StripePeers(so)) {
    if (partition_health(peer) != PartitionHealth::kHealthy) {
      continue;
    }
    StripeMsg q;
    q.op = kStripeManifest;
    q.owner = so;
    std::vector<uint8_t> resp;
    try {
      resp = RetriedStripeCall(so, peer, EncodeStripeMsg(q));
    } catch (const NetworkError&) {
      continue;  // unreachable peer: plan around it
    }
    if (resp.size() != kStripeManifestRespBytes || resp[0] == 0) {
      continue;
    }
    Manifest man;
    man.peer = peer;
    std::memcpy(&man.seal_counter, resp.data() + 1, 8);
    std::memcpy(&man.chunk_index, resp.data() + 9, 4);
    std::memcpy(&man.chunk_count, resp.data() + 13, 4);
    std::memcpy(&man.blob_len, resp.data() + 17, 8);
    std::memcpy(&man.chunk_len, resp.data() + 25, 8);
    // The manifest is host-supplied: geometry the public striping config could not
    // have produced is dropped before it sizes any table or buffer below.
    const uint32_t chunk_count = sc.xor_parity ? sc.replicas : 1;
    const uint64_t chunk_len =
        man.blob_len / chunk_count + (man.blob_len % chunk_count != 0 ? 1 : 0);
    if (man.chunk_count != chunk_count || man.chunk_index > chunk_count ||
        man.chunk_len != chunk_len) {
      continue;
    }
    manifests.push_back(man);
  }

  // Choose the freshest seal for which a complete reconstruction set survives:
  // replication needs any one full copy; parity needs chunk_count of the
  // chunk_count + 1 chunks (the parity chunk substitutes for at most one missing data
  // chunk). Inconsistent geometry within a seal generation means host tampering;
  // such generations are skipped, and if nothing reconstructs the partition is gone.
  std::vector<uint64_t> counters_seen;
  for (const Manifest& m : manifests) {
    counters_seen.push_back(m.seal_counter);
  }
  std::sort(counters_seen.begin(), counters_seen.end(), std::greater<uint64_t>());
  counters_seen.erase(std::unique(counters_seen.begin(), counters_seen.end()),
                      counters_seen.end());
  for (const uint64_t counter : counters_seen) {
    std::vector<Manifest> gen;
    for (const Manifest& m : manifests) {
      if (m.seal_counter == counter) {
        gen.push_back(m);
      }
    }
    const uint32_t chunk_count = gen.front().chunk_count;
    const uint64_t blob_len = gen.front().blob_len;
    const uint64_t chunk_len = gen.front().chunk_len;
    bool consistent = chunk_count > 0 && chunk_len > 0;
    for (const Manifest& m : gen) {
      consistent = consistent && m.chunk_count == chunk_count && m.blob_len == blob_len &&
                   m.chunk_len == chunk_len && m.chunk_index <= chunk_count;
    }
    if (!consistent) {
      continue;
    }
    // Map data chunk index -> source (peer, stored chunk index). -1 entries are
    // missing; at most one may be covered by the parity chunk.
    std::vector<int> source_of(chunk_count, -1);
    int parity_at = -1;
    for (size_t i = 0; i < gen.size(); ++i) {
      if (gen[i].chunk_index == chunk_count) {
        parity_at = static_cast<int>(i);
      } else if (source_of[gen[i].chunk_index] < 0) {
        source_of[gen[i].chunk_index] = static_cast<int>(i);
      }
    }
    int missing = -1;
    bool viable = true;
    for (uint32_t c = 0; c < chunk_count; ++c) {
      if (source_of[c] >= 0) {
        continue;
      }
      if (missing >= 0 || parity_at < 0) {
        viable = false;  // two holes, or one hole and no parity
        break;
      }
      missing = static_cast<int>(c);
    }
    if (!viable) {
      continue;
    }
    rs.seal_counter = counter;
    rs.chunk_count = chunk_count;
    rs.blob_len = blob_len;
    rs.chunk_len = chunk_len;
    rs.parity_substituted = missing;
    rs.needed.clear();
    for (uint32_t c = 0; c < chunk_count; ++c) {
      const Manifest& src = gen[static_cast<size_t>(
          static_cast<int>(c) == missing ? parity_at : source_of[c])];
      rs.needed.emplace_back(src.peer, src.chunk_index);
    }
    rs.buffers.assign(rs.needed.size(), std::vector<uint8_t>(rs.chunk_len, 0));
    rs.cursor = 0;
    rs.planned = true;
    return;
  }
  throw std::runtime_error("suboram/" + std::to_string(so) +
                           " unrecoverable: no complete stripe set survives");
}

void Snoopy::RepairStep(uint32_t so) {
  RepairState& rs = partitions_[so].repair;
  if (!rs.planned) {
    PlanRepair(so);
  }
  // The per-epoch slice is a fixed public fraction of the (public) stripe geometry:
  // the repair rate is load-independent by construction, so the repair schedule leaks
  // nothing about the request pattern.
  const uint64_t total = rs.chunk_len * rs.needed.size();
  const uint64_t slice =
      (total + config_.striping.repair_epochs - 1) / config_.striping.repair_epochs;
  uint64_t fetched = 0;
  while (fetched < slice && rs.cursor < total) {
    const size_t idx = static_cast<size_t>(rs.cursor / rs.chunk_len);
    const uint64_t off = rs.cursor % rs.chunk_len;
    const uint64_t len = std::min<uint64_t>(slice - fetched, rs.chunk_len - off);
    StripeMsg q;
    q.op = kStripeFetch;
    q.owner = so;
    q.seal_counter = rs.seal_counter;
    q.chunk_index = rs.needed[idx].second;
    q.offset = off;
    q.len = len;
    std::vector<uint8_t> resp;
    try {
      resp = RetriedStripeCall(so, rs.needed[idx].first, EncodeStripeMsg(q));
    } catch (const NetworkError&) {
      // A source vanished mid-repair. Replan from the surviving peers and restart the
      // window (a public event driven by the public failure process); PlanRepair
      // throws when nothing reconstructs any more.
      {
        std::lock_guard<std::mutex> g(health_mu_);
        rs = RepairState{};
        rs.epochs_remaining = config_.striping.repair_epochs;
      }
      PlanRepair(so);
      return;
    }
    std::memcpy(rs.buffers[idx].data() + off, resp.data() + 32, static_cast<size_t>(len));
    rs.cursor += len;
    fetched += len;
  }
  {
    std::lock_guard<std::mutex> g(health_mu_);
    if (rs.epochs_remaining > 0) {
      --rs.epochs_remaining;
    }
  }
  if (rs.epochs_remaining == 0) {
    CompleteRepair(so);
  }
}

void Snoopy::CompleteRepair(uint32_t so) {
  Partition& p = partitions_[so];
  RepairState& rs = p.repair;
  const std::string component = "suboram/" + std::to_string(so);
  // Reassemble the sealed snapshot, XOR-reconstructing the parity-substituted data
  // chunk if one source was missing (parity ^ all other data chunks = missing chunk).
  if (rs.parity_substituted >= 0) {
    std::vector<uint8_t>& out = rs.buffers[static_cast<size_t>(rs.parity_substituted)];
    for (size_t i = 0; i < rs.buffers.size(); ++i) {
      if (static_cast<int>(i) == rs.parity_substituted) {
        continue;
      }
      for (size_t j = 0; j < out.size(); ++j) {
        out[j] ^= rs.buffers[i][j];
      }
    }
  }
  std::vector<uint8_t> blob;
  blob.reserve(static_cast<size_t>(rs.blob_len));
  for (const std::vector<uint8_t>& chunk : rs.buffers) {
    blob.insert(blob.end(), chunk.begin(), chunk.end());
  }
  blob.resize(static_cast<size_t>(rs.blob_len));  // strip chunk padding

  // Restore on the spare node under the dead identity. The counter check extends
  // rollback refusal to repair: a stale stripe set (host replaying a superseded seal
  // generation) is never served.
  RestorePartition(so, blob);
  p.snapshot = std::move(blob);  // freshest host snapshot for crash recovery
  p.executed_lbs.clear();
  if (fault_injector_ != nullptr) {
    fault_injector_->Reincarnate(component);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("snoopy_repairs_completed_total", {{"component", component}})
        .Increment();
  }
  {
    std::lock_guard<std::mutex> g(health_mu_);
    p.health = PartitionHealth::kHealthy;
    p.repair = RepairState{};
  }
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
          RequestBatch one = RequestBatch::Deserialize(plain);
          for (size_t i = 0; i < one.size(); ++i) {
            pending_[lb].Append(one.Header(i),
                                std::span<const uint8_t>(one.Value(i), one.value_size()));
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
  std::vector<std::vector<uint8_t>> out = std::move(clients_.at(client_id).mailbox);
  clients_.at(client_id).mailbox.clear();
  return out;
}

std::vector<ClientResponse> Snoopy::RunEpoch() {
  TraceRecord(TraceOp::kEpoch, epoch_, 0);
  std::vector<ClientResponse> all;

  // Root epoch span plus public epoch facts. Request counts per load balancer are
  // public in Snoopy's model: the network adversary observes which clients talk to
  // which balancer; what stays hidden is the *content* and the key distribution,
  // which never reaches telemetry (the batch size below is the padded f(R, S) of
  // Theorem 3, not the true demand per subORAM).
  const auto now_fn = [this] { return NowSeconds(); };
  SpanTimer epoch_span(metrics_ != nullptr ? Metrics()->epoch_seconds : nullptr, now_fn);
  // Root tracer span for the whole epoch; closes on scope exit, after every phase
  // span, so tools/trace_report.py can attribute the epoch's wall-clock to phases
  // and orchestrator gaps. All arguments are public facts (request counts per
  // balancer are visible to the network adversary; the per-subORAM batch size is
  // the padded f(R, S) of Theorem 3).
  TraceSpan epoch_trace(tracer_, "epoch", "epoch", epoch_);
  epoch_trace.SetArg("pending", pending_requests());
  epoch_trace.SetArg("load_balancers", config_.num_load_balancers);
  epoch_trace.SetArg("suborams", config_.num_suborams);
  if (const MetricsCache* cache = Metrics()) {
    cache->epochs_total->Increment();
    cache->requests_total->Increment(pending_requests());
  }

  // Epoch-boundary failure polling: the failure process fires between epochs (crashes
  // mid-epoch are modelled by crash_before_reply faults on individual calls, permanent
  // mid-epoch losses by node_loss faults). A crashed load balancer is rebuilt
  // statelessly; a crashed subORAM is restored from its sealed snapshot (no replay
  // needed -- the snapshot is exactly the pre-epoch state); a permanently lost subORAM
  // enters the repair protocol below. The crash poll is skipped for a lost component:
  // there is no machine left to reboot.
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

  // Three phases, each a barrier: every load balancer prepares, every subORAM
  // executes, every load balancer matches (section 4). Each phase is one RunPhase
  // over public task ids, so thread count changes neither the enclave trace nor the
  // responses.
  //
  // Phase 1: every load balancer prepares its batches independently (section 4.3) --
  // one parallel task per load balancer. The per-(lb, epoch) seed fixes the epoch's
  // dummy-key randomness, so preparation is a pure function of (pending requests,
  // seed) and thread count changes nothing; a load balancer rebuilt after a crash
  // prepares byte-identical batches for the same reason.
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

  // Phase 2: subORAMs execute the batches -- one task per subORAM, each applying its
  // batches in fixed load-balancer order, which is the linearization order of
  // Appendix C (the order is *per subORAM*, so distinct subORAMs may run
  // concurrently; this is the paper's Figure 9a scaling axis). The per-hop encryption
  // is real: each batch is sealed at the load balancer and opened inside the subORAM
  // endpoint. Every call runs under the retry policy and tolerates injected faults
  // and crashes; per-endpoint fault streams keep every (lb, so) exchange's fault
  // sequence independent of how the subORAM tasks interleave.
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

// Epoch-boundary elastic resharding. Build-then-swap: everything for the new width is
// constructed off to the side (the exports are copies), so any failure up to the
// commit point -- including an injected participant crash, surfaced as
// ReshardAbortedError -- leaves the running deployment untouched. The commit itself
// only swaps in the new partitions and load balancers, creates their counters and
// re-registers endpoints.
void Snoopy::Reshard(uint32_t new_num_suborams) {
  const uint32_t old_s = config_.num_suborams;
  const uint32_t num_lbs = config_.num_load_balancers;
  if (new_num_suborams == 0) {
    throw std::invalid_argument("Reshard needs at least one subORAM");
  }
  if (config_.striping.replicas > 0) {
    if (new_num_suborams <= StripePeerCount()) {
      throw std::invalid_argument(
          "Reshard target too small for the striping configuration");
    }
  }
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
  if (metrics_ != nullptr) {
    metrics_->GetCounter("snoopy_reshards_total").Increment();
  }
}

}  // namespace snoopy
