#include "src/enclave/rollback.h"

#include <cstring>
#include <stdexcept>

namespace snoopy {

const char* UnsealStatusName(UnsealStatus status) {
  switch (status) {
    case UnsealStatus::kOk:
      return "fresh";
    case UnsealStatus::kRollback:
      return "a rolled-back replay";
    case UnsealStatus::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

uint64_t MonotonicCounterService::Create() {
  counters_.push_back(0);
  return counters_.size() - 1;
}

uint64_t MonotonicCounterService::Increment(uint64_t id) {
  if (id >= counters_.size()) {
    throw std::out_of_range("unknown monotonic counter");
  }
  return ++counters_[id];
}

uint64_t MonotonicCounterService::Read(uint64_t id) const {
  if (id >= counters_.size()) {
    throw std::out_of_range("unknown monotonic counter");
  }
  return counters_[id];
}

std::vector<uint8_t> SealedStore::Seal(uint64_t counter_id, std::span<const uint8_t> payload) {
  std::vector<uint8_t> blob(kOverheadBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(blob.data() + kVersionBytes, payload.data(), payload.size());
  }
  SealInPlace(counter_id, blob);
  return blob;
}

void SealedStore::SealInPlace(uint64_t counter_id, std::span<uint8_t> blob) {
  if (blob.size() < kOverheadBytes) {
    throw std::invalid_argument("sealed blob shorter than its version and tag");
  }
  const uint64_t version = counters_->Increment(counter_id);
  std::memcpy(blob.data(), &version, kVersionBytes);
  const size_t payload_len = blob.size() - kOverheadBytes;
  const Aead::Tag tag =
      aead_.SealInPlace(Aead::CounterNonce(version, /*channel=*/0x5ea1),
                        blob.first(kVersionBytes), blob.subspan(kVersionBytes, payload_len));
  std::memcpy(blob.data() + kVersionBytes + payload_len, tag.data(), Aead::kTagBytes);
}

UnsealStatus SealedStore::Unseal(uint64_t counter_id, std::span<const uint8_t> blob,
                                 std::vector<uint8_t>* payload_out) const {
  if (blob.size() < kOverheadBytes) {
    return UnsealStatus::kCorrupt;
  }
  uint64_t version = 0;
  std::memcpy(&version, blob.data(), 8);
  std::vector<uint8_t> payload;
  const bool ok = aead_.Open(Aead::CounterNonce(version, 0x5ea1),
                             std::span<const uint8_t>(blob.data(), 8),
                             std::span<const uint8_t>(blob.data() + 8, blob.size() - 8),
                             payload);
  if (!ok) {
    return UnsealStatus::kCorrupt;
  }
  if (version != counters_->Read(counter_id)) {
    // Authentic snapshot, but superseded: the host replayed old state.
    return UnsealStatus::kRollback;
  }
  if (payload_out != nullptr) {
    *payload_out = std::move(payload);
  }
  return UnsealStatus::kOk;
}

}  // namespace snoopy
