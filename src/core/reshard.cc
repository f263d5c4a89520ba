#include "src/core/reshard.h"

#include <cstring>
#include <stdexcept>

#include "src/obl/bitonic_sort.h"
#include "src/obl/primitives.h"

namespace snoopy {

ByteSlab TagAndSortByBin(const ByteSlab& records, const SipKey& partition_key,
                         uint32_t num_bins, size_t value_size,
                         SortStrategy sort_strategy, uint32_t lambda) {
  const size_t n = records.size();
  const size_t stride = kReshardHeaderBytes + value_size;
  ByteSlab tagged(0, stride);

  // SNOOPY_OBLIVIOUS_BEGIN(reshard_partition)
  // ct-public: i n stride num_bins value_size tagged records
  // ct-public: sort_strategy lambda
  // ct-calls: PartitionBinOfHash ObliviousSortSlabErased LoadSecretU64
  // Tag every record with its (secret) target partition and sort by the tag. The key
  // is secret inside the enclave; SipHash24 is the branchless keyed partition hash,
  // PartitionBinOfHash reduces it to a bin without a variable-latency divide, and
  // the sort comparator routes through the Secret taint types, so no branch or
  // index here depends on key material. Ties break by the (secret, distinct) record
  // key so both sort strategies produce the same total order.
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* src = records.Record(i);
    uint8_t* rec = tagged.AppendZero();
    uint64_t key;
    std::memcpy(&key, src, 8);
    const uint32_t bin = PartitionBinOfHash(SipHash24(partition_key, key), num_bins);
    std::memcpy(rec, &bin, 4);
    std::memcpy(rec + kReshardKeyOffset, src, 8 + value_size);
  }
  // Out-of-line, type-erased sort entry: this function is audited end-to-end by the
  // binary dataflow verifier (ctdf_reshard_tag_sort), and the bitonic executor's
  // inlined recursion is beyond the analyzer's tracking through a composite root —
  // ObliviousSortSlabErased is the boundary symbol (tools/ct_binary_manifest.json);
  // its kernels are audited decomposed. The comparator trampoline is captureless,
  // so the context pointer is null (never a pointer into this frame).
  ObliviousSortSlabErased(
      tagged, /*bin_offset=*/0, num_bins, /*bins_simulatable=*/1, lambda,
      [](const void*, const uint8_t* a, const uint8_t* b) {
        return LoadSecretU64(a, kReshardKeyOffset) < LoadSecretU64(b, kReshardKeyOffset);
      },
      /*less_ctx=*/nullptr, sort_strategy, /*threads=*/1);
  // SNOOPY_OBLIVIOUS_END(reshard_partition)

  return tagged;
}

std::vector<ByteSlab> PartitionSlabByBin(const ByteSlab& records, const SipKey& partition_key,
                                         uint32_t num_bins, size_t value_size,
                                         SortStrategy sort_strategy, uint32_t lambda) {
  if (num_bins == 0) {
    throw std::invalid_argument("PartitionSlabByBin needs at least one bin");
  }
  if (records.record_bytes() != 8 + value_size) {
    throw std::invalid_argument("PartitionSlabByBin: records must be key(8) | value");
  }

  const ByteSlab tagged =
      TagAndSortByBin(records, partition_key, num_bins, value_size, sort_strategy, lambda);

  // Public boundary split: partition sizes are public (each subORAM receives its
  // partition in the clear inside its enclave), so a plain scan over the sorted tags
  // declassifies nothing beyond them.
  std::vector<ByteSlab> parts;
  parts.reserve(num_bins);
  size_t cursor = 0;
  for (uint32_t bin = 0; bin < num_bins; ++bin) {
    ByteSlab part(0, 8 + value_size);
    while (cursor < tagged.size()) {
      uint32_t tag;
      std::memcpy(&tag, tagged.Record(cursor), 4);
      if (tag != bin) {
        break;
      }
      std::memcpy(part.AppendZero(), tagged.Record(cursor) + kReshardKeyOffset,
                  8 + value_size);
      ++cursor;
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace snoopy
