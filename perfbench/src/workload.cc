#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

namespace {

// The SplitMix64 output function of state x + golden ratio.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The 8-byte word at byte offset `off` of tag's value: the tag itself, then hashes.
uint64_t ValueWord(uint64_t tag, size_t off) {
  return off == 0 ? tag : Mix(tag ^ (off * 0x100000001b3ULL));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec scan;
    scan.name = "scan_heavy";
    scan.why =
        "closed loop, 262144 objects (42 MB, past L2), 1 LB, 1024 uniform requests per "
        "epoch, 10% writes: the O(N) subORAM scan and seal dominate, batch-side work is small";
    scan.num_objects = 262144;
    scan.num_lbs = 1;
    scan.requests_per_epoch = 1024;
    scan.write_frac = 0.10;
    w.push_back(scan);

    WorkloadSpec batch;
    batch.name = "batch_heavy";
    batch.why =
        "closed loop, 32768 objects, 2 LBs, 16384 uniform requests per epoch, 50% writes: "
        "OHT build, oblivious sorts and LB prepare/match dominate the epoch";
    batch.num_objects = 32768;
    batch.num_lbs = 2;
    batch.requests_per_epoch = 16384;
    batch.write_frac = 0.50;
    w.push_back(batch);

    WorkloadSpec sessions;
    sessions.name = "sessions_open";
    sessions.why =
        "open loop, 64 attested client sessions, Zipf 0.99 keys, 50% writes, Poisson "
        "arrivals; adds per-request AEAD, LB dedup and stripe pushes in the seal phase";
    sessions.open_loop = true;
    sessions.num_objects = 65536;
    sessions.num_lbs = 2;
    sessions.write_frac = 0.50;
    sessions.zipf_theta = 0.99;
    sessions.num_clients = 64;
    sessions.rate_rps = 4000;
    sessions.striping_replicas = 1;
    w.push_back(sessions);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

void FillValue(uint64_t tag, uint8_t* out, size_t value_size) {
  for (size_t off = 0; off < value_size; off += 8) {
    const uint64_t word = ValueWord(tag, off);
    std::memcpy(out + off, &word, std::min<size_t>(8, value_size - off));
  }
}

std::vector<uint8_t> ValueOf(uint64_t tag, size_t value_size) {
  std::vector<uint8_t> v(value_size);
  FillValue(tag, v.data(), value_size);
  return v;
}

uint64_t TagOfValue(const uint8_t* value, size_t value_size) {
  uint64_t tag = 0;
  std::memcpy(&tag, value, std::min<size_t>(8, value_size));
  for (size_t off = 8; off < value_size; off += 8) {
    const uint64_t word = ValueWord(tag, off);
    if (std::memcmp(value + off, &word, std::min<size_t>(8, value_size - off)) != 0) {
      return 0;
    }
  }
  return tag;
}

uint64_t SplitMix::Next() {
  const uint64_t out = Mix(state_);
  state_ += 0x9e3779b97f4a7c15ULL;
  return out;
}

uint64_t SplitMix::Below(uint64_t bound) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double SplitMix::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

KeySampler::KeySampler(uint64_t num_keys, double theta) : num_keys_(num_keys) {
  if (theta <= 0) {
    return;
  }
  cdf_.resize(num_keys);
  double sum = 0;
  for (uint64_t rank = 0; rank < num_keys; ++rank) {
    sum += 1.0 / std::pow(static_cast<double>(rank + 1), theta);
    cdf_[rank] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

uint64_t KeySampler::Sample(SplitMix& rng) const {
  if (cdf_.empty()) {
    return rng.Below(num_keys_);
  }
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()), num_keys_ - 1);
}

std::vector<Op> ClosedLoopEpoch(const WorkloadSpec& spec, uint64_t seed, uint64_t epoch) {
  SplitMix rng(Mix(seed) ^ Mix(epoch + 0x5eed));
  const KeySampler keys(spec.num_objects, spec.zipf_theta);
  std::vector<Op> ops(spec.requests_per_epoch);
  for (uint32_t i = 0; i < spec.requests_per_epoch; ++i) {
    Op& op = ops[i];
    op.key = keys.Sample(rng);
    op.lb = static_cast<uint32_t>(rng.Below(spec.num_lbs));
    op.write = rng.Unit() < spec.write_frac;
    // Tags above every initial tag (keys are < 2^24 in every workload).
    op.tag = op.write ? ((epoch + 1) << 24) | i : 0;
  }
  return ops;
}

ArrivalStream::ArrivalStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(Mix(seed) ^ 0xa77e5a1ULL), keys_(spec.num_objects, spec.zipf_theta) {}

Op ArrivalStream::Next() {
  Op op;
  due_s_ += -std::log(1.0 - rng_.Unit()) / spec_.rate_rps;
  op.due_s = due_s_;
  op.client = static_cast<uint32_t>(rng_.Below(spec_.num_clients));
  op.key = keys_.Sample(rng_);
  op.write = rng_.Unit() < spec_.write_frac;
  op.tag = op.write ? (uint64_t{1} << 40) + index_ : 0;
  ++index_;
  return op;
}

size_t LimitOneWritePerKey(std::vector<Op>& epoch_ops) {
  std::unordered_set<uint64_t> written;
  size_t converted = 0;
  for (Op& op : epoch_ops) {
    if (op.write && !written.insert(op.key).second) {
      op.write = false;
      op.tag = 0;
      ++converted;
    }
  }
  return converted;
}

std::vector<uint8_t> EncodeOps(const std::vector<Op>& ops) {
  std::vector<uint8_t> out;
  out.reserve(ops.size() * 33);
  auto put = [&out](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  for (const Op& op : ops) {
    put(&op.key, 8);
    put(&op.tag, 8);
    put(&op.lb, 4);
    put(&op.client, 4);
    const uint8_t w = op.write ? 1 : 0;
    put(&w, 1);
    put(&op.due_s, 8);
  }
  return out;
}

}  // namespace perfbench
