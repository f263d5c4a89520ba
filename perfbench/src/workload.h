// Seeded workload generation. The benchmark's inputs are a pure function of
// (workload, seed): the deployment under test only ever sees the generated
// requests. The generator uses its own PRNG so that library changes cannot move
// the inputs.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool open_loop = false;
  uint64_t num_objects = 0;
  uint32_t num_lbs = 1;
  uint32_t num_suborams = 4;
  size_t value_size = 160;
  double write_frac = 0;
  double zipf_theta = 0;  // 0: uniform keys
  // Closed loop: requests submitted before each epoch (one per waiting caller).
  uint32_t requests_per_epoch = 0;
  // Open loop: attested client sessions and the Poisson arrival rate.
  uint32_t num_clients = 0;
  double rate_rps = 0;
  uint32_t striping_replicas = 0;
};

// The named workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Op {
  uint64_t key = 0;
  uint64_t tag = 0;     // writes: the tag of the value written; reads: 0
  uint32_t lb = 0;      // closed loop: the load balancer the request is pinned to
  uint32_t client = 0;  // open loop: the session that sends it
  bool write = false;
  double due_s = 0;     // open loop: arrival time on the virtual schedule
};

// Values are derived from a 64-bit tag so a response can be checked byte for byte.
// Object `key` starts with tag InitialTag(key); every generated write has a tag no
// initial object uses.
inline uint64_t InitialTag(uint64_t key) { return key + 1; }
void FillValue(uint64_t tag, uint8_t* out, size_t value_size);
std::vector<uint8_t> ValueOf(uint64_t tag, size_t value_size);
// The tag whose value `value` is, or 0 when the bytes match no tag's value.
uint64_t TagOfValue(const uint8_t* value, size_t value_size);

// SplitMix64: small, fast, and stable across library versions.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound);  // uniform in [0, bound), bound > 0
  double Unit();                   // uniform in [0, 1)

 private:
  uint64_t state_;
};

// Key popularity: uniform, or Zipf(theta) by inverse CDF over key ranks.
class KeySampler {
 public:
  KeySampler(uint64_t num_keys, double theta);
  uint64_t Sample(SplitMix& rng) const;

 private:
  uint64_t num_keys_;
  std::vector<double> cdf_;  // empty: uniform
};

// Closed loop: the requests of epoch `epoch`, each pinned to a load balancer.
std::vector<Op> ClosedLoopEpoch(const WorkloadSpec& spec, uint64_t seed, uint64_t epoch);

// Open loop: Poisson arrivals in due order, each from a uniformly chosen session.
class ArrivalStream {
 public:
  ArrivalStream(const WorkloadSpec& spec, uint64_t seed);
  Op Next();

 private:
  WorkloadSpec spec_;
  SplitMix rng_;
  KeySampler keys_;
  double due_s_ = 0;
  uint64_t index_ = 0;
};

// Enforces at most one write per key in one epoch's submissions: a later write to
// an already-written key is sent as a read of that key instead. Returns how many
// writes were converted.
size_t LimitOneWritePerKey(std::vector<Op>& epoch_ops);

// Canonical byte encoding of a list of ops (for determinism checks).
std::vector<uint8_t> EncodeOps(const std::vector<Op>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
