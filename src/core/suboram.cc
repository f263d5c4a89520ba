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
  // its two candidate buckets in full; every slot gets one fused oblivious
  // compare-and-set pass, its masks compared from the table's match columns, so that
  // neither the match nor the request type is revealed.
  TraceSpan scan_trace(&Tracer::Global(), "step", "suboram_scan", config_.id);
  scan_trace.SetArg("objects", store_.size());
  ScanStore(store_, value_size, table);
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

void ScanStore(ByteSlab& store, size_t value_size, TwoTierOht& table) {
  const size_t stride = table.record_bytes();
  const size_t n_objects = store.size();
  const size_t slots1 = table.tier1().size();
  const size_t slots2 = table.tier2().size();
  const size_t z1 = table.params().z1;
  const size_t z2 = table.params().z2;
  // A fresh buffer per batch (32 bytes per slot; 660 KB at B = 2,685). One kept in the
  // SubOram across batches raised batch_heavy's peak RSS 15%: a long-lived chunk in a
  // worker thread's malloc arena keeps the arena from trimming the batch's freed slabs.
  // A fresh one comes from the arena's free memory; page faults stayed within the
  // parent's run-to-run spread.
  std::vector<uint64_t> columns(4 * (slots1 + slots2));
  uint64_t* const columns1 = columns.data();
  uint64_t* const columns2 = columns1 + 4 * slots1;

  // SNOOPY_OBLIVIOUS_BEGIN(suboram_scan)
  // ct-public: i n_objects stride value_size obj_key obj_value table b1 b2 bucket
  // ct-public: slots1 slots2 z1 z2 columns1 columns2
  // ct-calls: BuildScanColumns ScanRunColumns Tier1BucketAt Tier2BucketAt tier1 tier2
  BuildScanColumns(table.tier1().data(), slots1, stride, columns1);
  BuildScanColumns(table.tier2().data(), slots2, stride, columns2);
  for (size_t i = 0; i < n_objects; ++i) {
    TraceRecord(TraceOp::kRead, i);
    uint8_t* obj = store.Record(i);
    uint64_t obj_key;
    std::memcpy(&obj_key, obj, 8);
    uint8_t* obj_value = obj + 8;
    // One kernel call per bucket, with the object value held in registers across it.
    const uint64_t b1 = table.Tier1BucketIndex(obj_key);
    KernelAccessRun(obj_value, table.Tier1BucketAt(b1).data(), z1, stride,
                    RequestBatch::kHeaderBytes, value_size,
                    ScanRunColumns(columns1, slots1, b1 * z1, obj_key));
    const uint64_t b2 = table.Tier2BucketIndex(obj_key);
    const std::span<uint8_t> bucket = table.Tier2BucketAt(b2);
    KernelAccessRun(obj_value, bucket.data(), bucket.size() / stride, stride,
                    RequestBatch::kHeaderBytes, value_size,
                    ScanRunColumns(columns2, slots2, b2 * z2, obj_key));
  }
  // SNOOPY_OBLIVIOUS_END(suboram_scan)
}

void SubOram::SealStateInto(SealedStore& store, uint64_t counter_id,
                            std::vector<uint8_t>& blob) const {
  // Payload: value_size(8) | record count(8) | raw partition bytes. Only the header is
  // written into the blob, between the version prefix and the tag; the seal then
  // encrypts the partition straight from the store into the rest of the blob, in one
  // pass. A buffer too small is cleared first so growing it copies no stale bytes.
  const uint64_t vs = config_.value_size;
  const uint64_t count = store_.size();
  const size_t partition_bytes = count * store_.record_bytes();
  const size_t blob_bytes = SealedStore::kOverheadBytes + 16 + partition_bytes;
  if (blob.capacity() < blob_bytes) {
    blob.clear();
  }
  blob.resize(blob_bytes);
  uint8_t* header = blob.data() + SealedStore::kVersionBytes;
  std::memcpy(header, &vs, 8);
  std::memcpy(header + 8, &count, 8);
  store.SealInPlace(counter_id, blob, std::span<const uint8_t>(store_.data(), partition_bytes));
}

std::vector<uint8_t> SubOram::SealState(SealedStore& store, uint64_t counter_id) const {
  std::vector<uint8_t> blob;
  SealStateInto(store, counter_id, blob);
  return blob;
}

UnsealStatus SubOram::RestoreState(SealedStore& store, uint64_t counter_id,
                                   std::span<const uint8_t> blob) {
  std::vector<uint8_t> payload;
  const UnsealStatus status = store.Unseal(counter_id, blob, &payload);
  if (status != UnsealStatus::kOk) {
    return status;
  }
  // An authentic payload is value_size(8) | count(8) | count records, nothing more; a
  // length that disagrees with its own count is refused before any record is copied.
  if (payload.size() < 16) {
    return UnsealStatus::kCorrupt;
  }
  uint64_t vs = 0;
  uint64_t count = 0;
  std::memcpy(&vs, payload.data(), 8);
  std::memcpy(&count, payload.data() + 8, 8);
  if (vs != config_.value_size) {
    return UnsealStatus::kCorrupt;
  }
  const uint64_t record_bytes = 8 + config_.value_size;
  const uint64_t body_bytes = payload.size() - 16;
  if (count > body_bytes / record_bytes || count * record_bytes != body_bytes) {
    return UnsealStatus::kCorrupt;
  }
  ByteSlab slab(static_cast<size_t>(count), record_bytes);
  if (count > 0) {
    std::memcpy(slab.data(), payload.data() + 16, body_bytes);
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
