#include "perfbench/src/lane.h"

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "perfbench/src/measure.h"
#include "src/core/request.h"
#include "src/net/channel.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/hash_table.h"
#include "src/obl/secret.h"

namespace perfbench {

namespace {

snoopy::LoadBalancerConfig LaneLbConfig(const WorkloadSpec& spec) {
  snoopy::LoadBalancerConfig c;
  c.num_suborams = spec.num_suborams;
  c.value_size = spec.value_size;
  c.sort_strategy = snoopy::SortStrategy::kAuto;  // as the deployment configures it
  return c;
}

snoopy::SubOramConfig LaneSubOramConfig(const WorkloadSpec& spec) {
  snoopy::SubOramConfig c;
  c.value_size = spec.value_size;
  c.sort_strategy = snoopy::SortStrategy::kAuto;
  return c;
}

snoopy::SipKey LaneKey(uint64_t seed) {
  snoopy::Rng rng(seed ^ 0x1a4eULL);
  return rng.NextSipKey();
}

double Ms(double begin_s) { return (NowSeconds() - begin_s) * 1e3; }

}  // namespace

Lane::Lane(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      lb_(LaneLbConfig(spec), LaneKey(seed), seed + 1),
      suboram_(LaneSubOramConfig(spec), seed + 2),
      rng_(seed + 3) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> partition;
  for (uint64_t key = 0; key < spec.num_objects; ++key) {
    if (lb_.SubOramOf(key) == 0) {
      partition.emplace_back(key, ValueOf(InitialTag(key), spec.value_size));
    }
  }
  suboram_.Initialize(partition);
  sealed_store_ = std::make_unique<snoopy::SealedStore>(rng_.NextKey32(), &counters_);
  counter_id_ = counters_.Create();
}

std::map<std::string, double> Lane::Replay(const std::vector<Op>& ops) {
  using snoopy::RequestBatch;
  using snoopy::RequestHeader;
  std::map<std::string, double> m;
  const size_t vs = spec_.value_size;
  const uint32_t s = spec_.num_suborams;

  RequestBatch requests(vs);
  std::vector<uint8_t> value(vs);
  for (size_t i = 0; i < ops.size(); ++i) {
    RequestHeader h;
    h.key = ops[i].key;
    h.op = ops[i].write ? snoopy::kOpWrite : snoopy::kOpRead;
    h.client_id = i;
    h.client_seq = replays_;
    FillValue(ops[i].tag, value.data(), vs);
    requests.Append(h, value);
  }

  double t = NowSeconds();
  snoopy::LoadBalancer::PreparedEpoch prepared = lb_.PrepareBatches(std::move(requests));
  m["lb.prepare_ms"] = Ms(t);
  const uint64_t b = prepared.batch_size;
  m["lb.batch_size"] = static_cast<double>(b);
  m["lb.real_fraction"] = static_cast<double>(ops.size()) / static_cast<double>(s * b);

  // Channel cost: every request batch out, every response batch back, as the
  // deployment's load-balancer <-> subORAM links carry them.
  const snoopy::Aead::Key key = rng_.NextKey32();
  snoopy::SecureChannel sender(key, 0);
  snoopy::SecureChannel receiver(key, 0);
  double seal_ms = 0;
  double open_ms = 0;
  std::vector<uint8_t> opened;
  for (int direction = 0; direction < 2; ++direction) {
    for (const RequestBatch& batch : prepared.suboram_batches) {
      const std::vector<uint8_t> wire = batch.Serialize();
      t = NowSeconds();
      const std::vector<uint8_t> sealed = sender.Seal(wire);
      seal_ms += Ms(t);
      t = NowSeconds();
      if (!receiver.Open(sealed, opened)) {
        throw std::runtime_error("lane channel failed to open its own batch");
      }
      open_ms += Ms(t);
    }
  }
  m["net.batch_seal_ms"] = seal_ms;
  m["net.batch_open_ms"] = open_ms;

  // The oblivious primitives at the lane's batch size, on copies of batch 0.
  {
    snoopy::ByteSlab copy(prepared.suboram_batches[0].slab());
    snoopy::TwoTierOht table(snoopy::kRequestOhtSchema, snoopy::kDefaultLambda);
    t = NowSeconds();
    if (!table.Build(std::move(copy), rng_, 1, snoopy::SortStrategy::kAuto)) {
      throw std::runtime_error("lane hash table construction overflowed");
    }
    m["obl.oht_build_ms"] = Ms(t);
    const snoopy::OhtParams& p = table.params();
    m["obl.oht_slots_per_request"] =
        static_cast<double>(p.TotalSlots()) / static_cast<double>(p.n);
    m["obl.lookup_slots"] = static_cast<double>(p.LookupCost());
    t = NowSeconds();
    snoopy::ByteSlab extracted = table.ExtractAll();
    m["obl.oht_extract_ms"] = Ms(t);

    // A bucket-eligible sort of B records by a fresh uniform bin, the shape of the
    // OHT build's tier-1 sort.
    snoopy::ByteSlab sort_slab(prepared.suboram_batches[0].slab());
    const uint64_t bins = p.bins1;
    for (size_t i = 0; i < sort_slab.size(); ++i) {
      auto* h = reinterpret_cast<RequestHeader*>(sort_slab.Record(i));
      h->bin = static_cast<uint32_t>(rng_.Uniform(bins));
      h->order = i;
    }
    const snoopy::SortBinSpec spec{offsetof(RequestHeader, bin), bins, true,
                                   snoopy::kDefaultLambda};
    t = NowSeconds();
    snoopy::ObliviousSortSlab(
        sort_slab, spec,
        [](const uint8_t* a, const uint8_t* b) {
          return snoopy::LoadSecretU64(a, offsetof(RequestHeader, order)) <
                 snoopy::LoadSecretU64(b, offsetof(RequestHeader, order));
        },
        snoopy::SortStrategy::kAuto, 1);
    m["obl.sort_ms"] = Ms(t);
  }

  std::vector<RequestBatch> responses(s);
  for (uint32_t so = 1; so < s; ++so) {
    responses[so] = RequestBatch(snoopy::ByteSlab(prepared.suboram_batches[so].slab()), vs);
    for (size_t i = 0; i < responses[so].size(); ++i) {
      responses[so].Header(i).resp = 1;
    }
  }
  RequestBatch batch0 = std::move(prepared.suboram_batches[0]);
  t = NowSeconds();
  responses[0] = suboram_.ProcessBatch(std::move(batch0));
  m["suboram.process_ms"] = Ms(t);

  t = NowSeconds();
  RequestBatch matched = lb_.MatchResponses(std::move(prepared), std::move(responses));
  m["lb.match_ms"] = Ms(t);
  if (matched.size() != ops.size()) {
    throw std::runtime_error("lane response match lost requests");
  }

  t = NowSeconds();
  suboram_.SealState(*sealed_store_, counter_id_);
  m["suboram.seal_state_ms"] = Ms(t);
  ++replays_;
  return m;
}

}  // namespace perfbench
