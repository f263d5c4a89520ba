// Reference model the benchmark checks every response against.
//
// Pinned epochs (every request names its load balancer) follow the Appendix C
// linearization exactly: load balancers apply in id order; inside one load
// balancer's batch every request -- read or write -- sees the pre-batch state (a
// write's response carries the value it replaced), then the last write per key by
// arrival applies. This is the test suite's PredictResponses, kept incrementally.
//
// Unpinned epochs (client sessions pick their load balancer privately) carry at most
// one write per key, so every key still ends the epoch in a determined state; a read
// of a key written in the same epoch may see either side of that write, depending
// on the load-balancer order the benchmark cannot observe.

#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "perfbench/src/workload.h"

namespace perfbench {

// The tags a response may carry (one of two; equal when only one is allowed).
struct Expected {
  uint64_t tag = 0;
  uint64_t alt = 0;
  bool Allows(uint64_t observed) const { return observed == tag || observed == alt; }
};

class ReferenceModel {
 public:
  explicit ReferenceModel(uint64_t num_objects);

  // Advances the model by one epoch and returns, per op, what its response may be.
  std::vector<Expected> ApplyPinnedEpoch(const std::vector<Op>& ops, uint32_t num_lbs);
  // Throws std::logic_error if `ops` writes a key twice.
  std::vector<Expected> ApplyUnpinnedEpoch(const std::vector<Op>& ops);

  uint64_t tag(uint64_t key) const { return state_[key]; }

 private:
  std::vector<uint64_t> state_;  // key -> current tag
};

// Counts the responses that are missing (observed tag 0) or not allowed.
size_t CountMismatches(const std::vector<Expected>& expected,
                       const std::vector<uint64_t>& observed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
