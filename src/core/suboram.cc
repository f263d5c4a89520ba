#include "src/core/suboram.h"

#include <cstring>
#include <stdexcept>

#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/hash_table.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

SubOram::SubOram(const SubOramConfig& config, uint64_t rng_seed)
    : config_(config), rng_(rng_seed), store_(0, 8 + config.value_size) {}

void SubOram::Initialize(ByteSlab&& objects) {
  if (objects.record_bytes() != 8 + config_.value_size) {
    throw std::invalid_argument("object record size does not match subORAM value size");
  }
  store_ = std::move(objects);
}

void SubOram::Initialize(const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) {
  ByteSlab slab(0, 8 + config_.value_size);
  for (const auto& [key, value] : objects) {
    uint8_t* rec = slab.AppendZero();
    std::memcpy(rec, &key, 8);
    const size_t n = value.size() < config_.value_size ? value.size() : config_.value_size;
    std::memcpy(rec + 8, value.data(), n);
  }
  store_ = std::move(slab);
}

RequestBatch SubOram::ProcessBatch(RequestBatch&& batch) {
  const size_t b = batch.size();
  const size_t value_size = config_.value_size;
  if (batch.value_size() != value_size) {
    throw std::invalid_argument("batch value size does not match subORAM value size");
  }

  // Step spans: every boundary below is a public point in the batch pipeline (the
  // batch size is the padded f(R, S); the object count is a public deployment fact),
  // so the spans reveal nothing the schedule does not. Spans open/close *outside* the
  // oblivious regions; only their RAII lifetimes bracket region code.
  TraceSpan distinct_trace(&Tracer::Global(), "step", "suboram_distinct", config_.id);
  distinct_trace.SetArg("batch", b);

  // SNOOPY_OBLIVIOUS_BEGIN(suboram_distinct)
  // ct-public: b i config_ check_distinct
  // Definition 2 precondition: the batch must contain no duplicate keys. Checked with
  // an oblivious sort over a copy of the key column plus one linear scan. The presence
  // of a duplicate is declassified (it aborts the whole batch, a protocol violation by
  // the load balancer); which key collided is not.
  if (config_.check_distinct && b > 1) {
    std::vector<uint64_t> keys(b);
    for (size_t i = 0; i < b; ++i) {
      keys[i] = batch.Header(i).key;
    }
    BitonicSort(std::span<uint64_t>(keys), [](const uint64_t& x, const uint64_t& y) {
      return SecretU64(x) < SecretU64(y);
    });
    SecretU64 dups = 0;
    for (size_t i = 1; i < b; ++i) {
      dups += CtSelectU64(SecretU64(keys[i - 1]) == SecretU64(keys[i]), 1, 0);
    }
    if ((dups != SecretU64(0)).Declassify("suboram.batch_has_dups")) {
      throw std::invalid_argument("subORAM batch contains duplicate keys");
    }
  }
  // SNOOPY_OBLIVIOUS_END(suboram_distinct)
  distinct_trace.End();

  // Step 1 (Fig. 7): build the per-batch oblivious hash table with fresh keys.
  TraceSpan build_trace(&Tracer::Global(), "step", "suboram_oht_build", config_.id);
  build_trace.SetArg("batch", b);
  TwoTierOht table(kRequestOhtSchema, config_.lambda);
  if (!table.Build(std::move(batch.slab()), rng_, /*sort_threads=*/1,
                   config_.sort_strategy)) {
    throw std::runtime_error("oblivious hash table construction overflow (negligible event)");
  }
  build_trace.End();

  // Step 2 (Fig. 7): one linear scan over every stored object. For each object, scan
  // its two candidate buckets in full; for every slot apply the oblivious
  // compare-and-set pair so that neither the match nor the request type is revealed.
  const size_t stride = table.record_bytes();
  const std::vector<uint8_t> zeros(value_size, 0);
  const size_t n_objects = store_.size();
  std::vector<uint8_t> old_value(value_size);
  TraceSpan scan_trace(&Tracer::Global(), "step", "suboram_scan", config_.id);
  scan_trace.SetArg("objects", n_objects);

  // SNOOPY_OBLIVIOUS_BEGIN(suboram_scan)
  // ct-public: i off n_objects stride value_size bucket obj_key table
  for (size_t i = 0; i < n_objects; ++i) {
    TraceRecord(TraceOp::kRead, i);
    uint8_t* obj = store_.Record(i);
    uint64_t obj_key;
    std::memcpy(&obj_key, obj, 8);
    uint8_t* obj_value = obj + 8;

    auto apply = [&](std::span<uint8_t> bucket) {
      for (size_t off = 0; off + stride <= bucket.size(); off += stride) {
        auto* req = reinterpret_cast<RequestHeader*>(bucket.data() + off);
        uint8_t* req_value = bucket.data() + off + RequestBatch::kHeaderBytes;
        // Request contents (key, op, dummy flag, access decision) are secret; the
        // object key being scanned is public (the scan visits all of them).
        const SecretBool match = (SecretU64(req->key) == obj_key) &
                                 !SecretBool::FromWord(req->dummy);
        const SecretBool is_write = SecretU64(req->op) == SecretU64(kOpWrite);
        const SecretBool granted = SecretBool::FromWord(req->granted);
        // old <- object value (staged so the write below can both update the object
        // and leave the pre-state for the response). The three conditional moves go
        // through the SIMD kernel layer; each derives its mask once per slot.
        std::memcpy(old_value.data(), obj_value, value_size);
        // Write path: object <- request payload (if a granted write matches).
        KernelCondCopyBytes(match & is_write & granted, obj_value, req_value, value_size);
        // Response path: request slot <- pre-state (for reads and writes alike).
        KernelCondCopyBytes(match, req_value, old_value.data(), value_size);
        // Access control (section D): a denied read returns null rather than data.
        KernelCondCopyBytes(match & !granted, req_value, zeros.data(), value_size);
      }
    };
    apply(table.Tier1Bucket(obj_key));
    apply(table.Tier2Bucket(obj_key));
  }
  // SNOOPY_OBLIVIOUS_END(suboram_scan)
  scan_trace.End();

  // Step 3 (Fig. 7): compact the table's padding dummies away and return the B
  // responses (including responses to the load balancer's dummy requests).
  TraceSpan extract_trace(&Tracer::Global(), "step", "suboram_extract", config_.id);
  ByteSlab responses = table.ExtractAll();
  RequestBatch out(std::move(responses), value_size);
  for (size_t i = 0; i < out.size(); ++i) {
    out.Header(i).resp = 1;
  }
  return out;
}

std::vector<uint8_t> SubOram::SealState(SealedStore& store, uint64_t counter_id) const {
  // Payload: value_size(8) | record count(8) | raw partition bytes.
  const uint64_t vs = config_.value_size;
  const uint64_t count = store_.size();
  std::vector<uint8_t> payload(16 + count * store_.record_bytes());
  std::memcpy(payload.data(), &vs, 8);
  std::memcpy(payload.data() + 8, &count, 8);
  if (count > 0) {
    std::memcpy(payload.data() + 16, store_.data(), count * store_.record_bytes());
  }
  return store.Seal(counter_id, payload);
}

UnsealStatus SubOram::RestoreState(SealedStore& store, uint64_t counter_id,
                                   std::span<const uint8_t> blob) {
  std::vector<uint8_t> payload;
  const UnsealStatus status = store.Unseal(counter_id, blob, &payload);
  if (status != UnsealStatus::kOk) {
    return status;
  }
  uint64_t vs = 0;
  uint64_t count = 0;
  std::memcpy(&vs, payload.data(), 8);
  std::memcpy(&count, payload.data() + 8, 8);
  if (vs != config_.value_size) {
    return UnsealStatus::kCorrupt;
  }
  ByteSlab slab(static_cast<size_t>(count), 8 + config_.value_size);
  if (count > 0) {
    std::memcpy(slab.data(), payload.data() + 16, count * slab.record_bytes());
  }
  store_ = std::move(slab);
  return UnsealStatus::kOk;
}

bool SubOram::DebugRead(uint64_t key, std::vector<uint8_t>* value_out) const {
  for (size_t i = 0; i < store_.size(); ++i) {
    uint64_t k;
    std::memcpy(&k, store_.Record(i), 8);
    if (k == key) {
      if (value_out != nullptr) {
        value_out->assign(store_.Record(i) + 8, store_.Record(i) + 8 + config_.value_size);
      }
      return true;
    }
  }
  return false;
}

}  // namespace snoopy
