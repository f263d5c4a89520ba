#include "src/core/load_balancer.h"

#include <cstring>
#include <stdexcept>

#include "src/analysis/batch_bound.h"
#include "src/core/reshard.h"
#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/compaction.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

LoadBalancer::LoadBalancer(const LoadBalancerConfig& config, const SipKey& partition_key,
                           uint64_t rng_seed)
    : config_(config), partition_key_(partition_key), rng_(rng_seed) {}

uint32_t LoadBalancer::SubOramOf(uint64_t key) const {
  // PartitionBinOfHash, not `%`: div latency depends on the secret-derived hash
  // (ct_dataflow rule B03), and resharding must agree with routing bin-for-bin.
  return PartitionBinOfHash(SipHash24(partition_key_, key), config_.num_suborams);
}

LoadBalancer::PreparedEpoch LoadBalancer::PrepareBatches(RequestBatch&& client_requests) {
  return PrepareBatches(std::move(client_requests), rng_.Next64());
}

LoadBalancer::PreparedEpoch LoadBalancer::PrepareBatches(RequestBatch&& client_requests,
                                                         uint64_t epoch_seed) {
  const uint64_t r = client_requests.size();
  const uint32_t s = config_.num_suborams;
  const uint64_t b = BatchSize(r, s, config_.lambda);

  // Step spans at public pipeline boundaries (request count r is network-visible,
  // batch size b is the padded f(R, S) of Theorem 3). Opened/closed outside the
  // oblivious regions.
  TraceSpan assign_trace(&Tracer::Global(), "step", "lb_assign");
  assign_trace.SetArg("requests", r);
  assign_trace.SetArg("batch", b);

  // SNOOPY_OBLIVIOUS_BEGIN(lb_prepare)
  // ct-public: i r kSeqMask
  // Figure 5 step 1: assign each request its subORAM and the scratch fields the
  // oblivious pipeline sorts on. The `order` encoding makes the survivor of each
  // duplicate group sort first: writes before reads, later writes before earlier ones
  // (last-write-wins, section 4.1). Computed branchlessly since op is secret.
  for (size_t i = 0; i < r; ++i) {
    RequestHeader& h = client_requests.Header(i);
    h.bin = SubOramOf(h.key);
    h.dummy = 0;
    h.resp = 0;
    const SecretBool is_write = SecretU64(h.op) == SecretU64(kOpWrite);
    // Survivor class (ascending priority): granted writes (latest first), granted
    // reads, denied writes, denied reads. Denied requests are no-ops at the subORAM,
    // so they must never be the survivor when any granted request exists -- otherwise
    // the whole duplicate group would see the subORAM's null response (section D).
    const SecretBool denied = !SecretBool::FromWord(h.granted);
    const SecretU64 cls = CtSelectU64(denied, 2, 0) | CtSelectU64(is_write, 0, 1);
    constexpr uint64_t kSeqMask = (uint64_t{1} << 61) - 1;
    const SecretU64 seq_part =
        CtSelectU64(is_write, (~SecretU64(h.client_seq)) & kSeqMask,
                    SecretU64(h.client_seq) & kSeqMask);
    StoreSecret(h.order, (cls << 61) | seq_part);
    h.dedup = h.key;
  }
  // SNOOPY_OBLIVIOUS_END(lb_prepare)
  assign_trace.End();

  PreparedEpoch epoch;
  epoch.batch_size = b;
  // Keep the originals (with bins) for response matching; headers + values copied.
  epoch.originals = RequestBatch(ByteSlab(client_requests.slab()), client_requests.value_size());

  // Figure 5 steps 2-4: pad, oblivious sort, oblivious dedup/mark, oblivious compact.
  // Dummy requests get unique keys in the reserved top half of the key space so the
  // subORAM's distinctness precondition keeps holding. The prefix is a splitmix64
  // finalizer over the epoch seed, so equal seeds give byte-identical batches.
  const uint64_t dummy_prefix = Mix64(epoch_seed) & 0xffffffffULL;
  uint64_t dummy_counter = 0;
  BinPlacementOptions options;
  options.num_bins = s;
  options.bin_capacity = static_cast<uint32_t>(b);
  options.dedup = true;
  options.sort_strategy = config_.sort_strategy;
  // Pre-dedup request bins are NOT simulatable: duplicate client keys share a bin,
  // so the bin multiset would leak key multiplicity. This forces the bitonic path.
  options.bins_simulatable = false;
  options.lambda = config_.lambda;
  TraceSpan place_trace(&Tracer::Global(), "step", "lb_bin_placement");
  place_trace.SetArg("requests", r);
  place_trace.SetArg("bins", s);
  const BinPlacementResult placed = ObliviousBinPlacement(
      client_requests.slab(), kRequestBinSchema, options, [&](uint8_t* rec) {
        auto* h = reinterpret_cast<RequestHeader*>(rec);
        h->key = kDummyKeyBase | (dummy_prefix << 31) | dummy_counter;
        h->op = kOpRead;
        h->granted = 1;
        ++dummy_counter;
      });
  if (!placed.ok) {
    // Theorem 3: probability <= 2^-lambda. Retrying would leak; abort instead.
    throw std::runtime_error("load balancer batch bound overflow (negligible event)");
  }

  place_trace.End();

  // Split the m*z result into per-subORAM batches.
  TraceSpan split_trace(&Tracer::Global(), "step", "lb_split");
  const size_t record_bytes = client_requests.record_bytes();
  for (uint32_t so = 0; so < s; ++so) {
    ByteSlab slice(static_cast<size_t>(b), record_bytes);
    if (b > 0) {
      std::memcpy(slice.data(), client_requests.slab().data() + so * b * record_bytes,
                  b * record_bytes);
    }
    epoch.suboram_batches.emplace_back(std::move(slice), client_requests.value_size());
  }
  return epoch;
}

RequestBatch LoadBalancer::MatchResponses(PreparedEpoch&& epoch,
                                          std::vector<RequestBatch>&& responses) {
  const size_t value_size = epoch.originals.value_size();
  const size_t r = epoch.originals.size();

  // Figure 6 step 1: merge subORAM responses and original requests into one slab.
  TraceSpan merge_trace(&Tracer::Global(), "step", "lb_match_merge");
  merge_trace.SetArg("requests", r);
  RequestBatch merged(value_size);
  for (RequestBatch& resp_batch : responses) {
    for (size_t i = 0; i < resp_batch.size(); ++i) {
      merged.Append(resp_batch.Header(i),
                    std::span<const uint8_t>(resp_batch.Value(i), value_size));
    }
  }
  for (size_t i = 0; i < r; ++i) {
    merged.Append(epoch.originals.Header(i),
                  std::span<const uint8_t>(epoch.originals.Value(i), value_size));
  }
  TraceRecord(TraceOp::kAppend, merged.size(), 0);
  merge_trace.End();

  // The sort and propagate spans bracket code *inside* the oblivious region, so
  // their call names are ct-public-annotated below (lint rule CT010): the spans
  // record only the public merged size and wall-clock boundaries of whole-region
  // steps, never anything derived from record contents.
  TraceSpan sort_trace(&Tracer::Global(), "step", "lb_match_sort");
  sort_trace.SetArg("records", merged.size());

  // SNOOPY_OBLIVIOUS_BEGIN(lb_match)
  // ct-public: i total value_size TraceSpan SetArg
  // Figure 6 step 2: oblivious sort by object id, responses before requests. This
  // goes through the plain (no-bin-spec) entry point: the sort key is the secret
  // object id, there is no public bin structure, so no bucket assignment can be safe
  // here and the entry point always takes the bitonic path.
  ObliviousSortSlab(
      merged.slab(),
      [](const uint8_t* a, const uint8_t* b) {
        const auto* ha = reinterpret_cast<const RequestHeader*>(a);
        const auto* hb = reinterpret_cast<const RequestHeader*>(b);
        // Secondary word: responses (resp=1) first, then requests by arrival order.
        // CtSelect, not ?:, because the flag is secret once records start moving.
        const SecretU64 wa = CtSelectU64(SecretBool::FromWord(ha->resp), 0,
                                         SecretU64((uint64_t{1} << 63) | ha->order));
        const SecretU64 wb = CtSelectU64(SecretBool::FromWord(hb->resp), 0,
                                         SecretU64((uint64_t{1} << 63) | hb->order));
        const SecretU64 ka(ha->key);
        const SecretU64 kb(hb->key);
        return (ka < kb) | ((ka == kb) & (wa < wb));
      });
  sort_trace.End();
  TraceSpan propagate_trace(&Tracer::Global(), "step", "lb_match_propagate");

  // Figure 6 step 3: propagate response payloads forward onto the request records. A
  // request whose own access-control verdict was "deny" receives null even when it was
  // deduplicated with a granted request for the same object (Appendix D).
  std::vector<uint8_t> prev_value(value_size, 0);
  SecretU64 prev_key = ~uint64_t{0};
  const size_t total = merged.size();
  std::vector<uint8_t> keep(total, 0);
  size_t i = 0;
  // A response becomes the carried value; a request that takes it receives the carried
  // value, or null if its own verdict was "deny". `take` implies !is_resp, so a record's
  // masks never depend on its own value update, and the value a request reads is never
  // the one this record just wrote.
  const auto masks = [&](uint8_t* rec) {
    TraceRecord(TraceOp::kRead, i);
    auto* h = reinterpret_cast<RequestHeader*>(rec);
    const SecretBool is_resp = SecretBool::FromWord(h->resp);
    prev_key = CtSelectU64(is_resp, h->key, prev_key);
    const SecretBool take = (!is_resp) & (SecretU64(h->key) == prev_key);
    keep[i] = (!is_resp).ToFlagByte();
    // Mark whether this request actually met a response. In a healthy epoch every
    // original does; when a partition is unavailable its placeholder batch carries
    // reserved keys that match nothing, so those requests keep resp = 0 -- the flag
    // the orchestrator's epoch-queue failover keys on. Unconditional branchless store
    // (keep[] above already latched the pre-store response/request distinction).
    h->resp = static_cast<uint8_t>(h->resp | take.ToFlagByte());
    ++i;
    return AccessMasks{is_resp, take, take & SecretBool::FromWord(h->granted)};
  };
  // One kernel call over the whole merged batch, the carried value held in registers.
  KernelAccessRun(prev_value.data(), merged.slab().data(), total, merged.record_bytes(),
                  RequestBatch::kHeaderBytes, value_size, masks);
  // SNOOPY_OBLIVIOUS_END(lb_match)
  propagate_trace.End();

  // Figure 6 step 4: compact the responses (and dummy responses) away; what remains is
  // exactly one answered record per original client request.
  TraceSpan compact_trace(&Tracer::Global(), "step", "lb_match_compact");
  const size_t kept = GoodrichCompact(merged.slab(), std::span<uint8_t>(keep.data(), total));
  if (kept != r) {
    throw std::runtime_error("response matching invariant violated");
  }
  merged.slab().Truncate(r);
  return merged;
}

}  // namespace snoopy
