// SNOOPY_LINT_EXEMPT: comparison baseline; models another system's leakage profile and
// is intentionally outside the constant-time discipline (see tools/ct_manifest.json).

#include "src/baseline/obladi.h"

#include <stdexcept>

namespace snoopy {

namespace {

RingOramConfig OramConfig(const ObladiConfig& config) {
  RingOramConfig cfg;
  cfg.num_blocks = config.capacity;
  cfg.block_size = config.value_size;
  return cfg;
}

}  // namespace

ObladiProxy::ObladiProxy(const ObladiConfig& config, uint64_t seed)
    : config_(config), oram_(OramConfig(config), seed) {}

void ObladiProxy::Initialize(
    const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects) {
  for (const auto& [key, value] : objects) {
    if (index_.count(key) != 0) {
      throw std::invalid_argument("duplicate key at Obladi initialization");
    }
    if (next_addr_ >= oram_.num_blocks()) {
      throw std::invalid_argument("Obladi store over capacity");
    }
    const uint64_t addr = next_addr_++;
    index_[key] = addr;
    std::vector<uint8_t> padded = value;
    padded.resize(config_.value_size, 0);
    oram_.Write(addr, padded);
  }
}

void ObladiProxy::Submit(const Request& request) { pending_.push_back(request); }

std::vector<ObladiProxy::Response> ObladiProxy::ExecuteOne(std::vector<Request>&& batch) {
  // Deduplicate: one ORAM read per distinct key; the last write per key (by arrival)
  // is applied at batch end -- Obladi's delayed visibility.
  std::map<uint64_t, std::vector<uint8_t>> reads;      // key -> value at batch start
  std::map<uint64_t, std::vector<uint8_t>> last_write;  // key -> value to install
  for (const Request& req : batch) {
    if (reads.count(req.key) == 0) {
      const auto it = index_.find(req.key);
      reads[req.key] = it == index_.end()
                           ? std::vector<uint8_t>(config_.value_size, 0)
                           : oram_.Read(it->second);
    }
    if (req.is_write) {
      std::vector<uint8_t> padded = req.value;
      padded.resize(config_.value_size, 0);
      last_write[req.key] = std::move(padded);
    }
  }
  for (const auto& [key, value] : last_write) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      oram_.Write(it->second, value);
    }
  }
  std::vector<Response> responses;
  responses.reserve(batch.size());
  for (const Request& req : batch) {
    responses.push_back(Response{req.client_seq, req.key, reads[req.key]});
  }
  return responses;
}

std::vector<ObladiProxy::Response> ObladiProxy::ExecuteBatches(bool flush) {
  std::vector<Response> all;
  size_t i = 0;
  while (pending_.size() - i >= config_.batch_size ||
         (flush && pending_.size() - i > 0)) {
    const size_t take = std::min<size_t>(config_.batch_size, pending_.size() - i);
    std::vector<Request> batch(pending_.begin() + static_cast<ptrdiff_t>(i),
                               pending_.begin() + static_cast<ptrdiff_t>(i + take));
    i += take;
    std::vector<Response> r = ExecuteOne(std::move(batch));
    all.insert(all.end(), r.begin(), r.end());
  }
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(i));
  return all;
}

}  // namespace snoopy
