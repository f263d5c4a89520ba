#include "perfbench/src/reference.h"

#include <stdexcept>
#include <unordered_map>

namespace perfbench {

ReferenceModel::ReferenceModel(uint64_t num_objects) : state_(num_objects) {
  for (uint64_t key = 0; key < num_objects; ++key) {
    state_[key] = InitialTag(key);
  }
}

std::vector<Expected> ReferenceModel::ApplyPinnedEpoch(const std::vector<Op>& ops,
                                                       uint32_t num_lbs) {
  std::vector<Expected> out(ops.size());
  for (uint32_t lb = 0; lb < num_lbs; ++lb) {
    // Reads first: every request of this batch sees the pre-batch state...
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].lb == lb) {
        out[i].tag = out[i].alt = state_[ops[i].key];
      }
    }
    // ...then writes apply in arrival order, so the last one per key wins.
    for (const Op& op : ops) {
      if (op.lb == lb && op.write) {
        state_[op.key] = op.tag;
      }
    }
  }
  return out;
}

std::vector<Expected> ReferenceModel::ApplyUnpinnedEpoch(const std::vector<Op>& ops) {
  std::unordered_map<uint64_t, uint64_t> written;  // key -> the epoch's one write
  for (const Op& op : ops) {
    if (op.write && !written.emplace(op.key, op.tag).second) {
      throw std::logic_error("unpinned epoch writes a key twice");
    }
  }
  std::vector<Expected> out(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t pre = state_[ops[i].key];
    out[i].tag = out[i].alt = pre;
    const auto w = written.find(ops[i].key);
    if (!ops[i].write && w != written.end()) {
      out[i].alt = w->second;  // a read at a later load balancer sees the write
    }
  }
  for (const auto& [key, tag] : written) {
    state_[key] = tag;
  }
  return out;
}

size_t CountMismatches(const std::vector<Expected>& expected,
                       const std::vector<uint64_t>& observed) {
  size_t bad = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const uint64_t obs = i < observed.size() ? observed[i] : 0;
    if (obs == 0 || !expected[i].Allows(obs)) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench
