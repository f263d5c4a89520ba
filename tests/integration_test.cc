// Cross-module integration sweeps: full Snoopy deployments across a grid of value
// sizes, security parameters, and topologies, driven by the workload generators, and
// checked against a reference map. These are the "does the whole pipeline hold
// together" tests; component behaviour is covered by the per-module suites.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>
#include <vector>

#include "src/core/snoopy.h"
#include "src/sim/workload.h"

namespace snoopy {
namespace {

struct GridParam {
  size_t value_size;
  uint32_t lambda;
  uint32_t lbs;
  uint32_t sos;
  bool oblivious_init;
};

// Prints a grid point as, e.g., vs16_l40_lb2_so3 (value size, lambda, LBs, subORAMs,
// and _obl for oblivious initialization). CMake's test discovery names each ctest
// .../MultiEpochWorkloadMatchesReference/<printed parameter>; gtest's default printer
// dumps the struct's bytes, padding included, so those names would differ between builds.
void PrintTo(const GridParam& p, std::ostream* os) {
  *os << "vs" << p.value_size << "_l" << p.lambda << "_lb" << p.lbs << "_so" << p.sos
      << (p.oblivious_init ? "_obl" : "");
}

class SnoopyGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SnoopyGrid, MultiEpochWorkloadMatchesReference) {
  const GridParam p = GetParam();
  SnoopyConfig cfg;
  cfg.num_load_balancers = p.lbs;
  cfg.num_suborams = p.sos;
  cfg.value_size = p.value_size;
  cfg.lambda = p.lambda;
  cfg.oblivious_init = p.oblivious_init;
  auto store = std::make_unique<Snoopy>(cfg, 99);

  constexpr uint64_t kKeys = 120;
  auto value_of = [&](uint64_t key, uint8_t version) {
    std::vector<uint8_t> v(p.value_size, 0);
    std::memcpy(v.data(), &key, 8);
    v[p.value_size - 1] = version;
    return v;
  };
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  std::map<uint64_t, std::vector<uint8_t>> model;
  for (uint64_t k = 0; k < kKeys; ++k) {
    objects.emplace_back(k, value_of(k, 0));
    model[k] = value_of(k, 0);
  }
  store->Initialize(objects);

  WorkloadGenerator gen(kKeys, /*write_fraction=*/0.3, /*seed=*/p.lambda + p.sos);
  uint64_t seq = 0;
  for (int epoch = 1; epoch <= 4; ++epoch) {
    // One request per distinct key per epoch keeps the reference model exact even
    // with multiple load balancers.
    std::map<uint64_t, uint64_t> submitted;  // key -> seq
    std::map<uint64_t, std::vector<uint8_t>> writes;
    for (const WorkloadRequest& req : gen.Zipfian(40, 0.9)) {
      if (submitted.count(req.key) != 0) {
        continue;
      }
      submitted[req.key] = seq;
      if (req.is_write) {
        auto nv = value_of(req.key, static_cast<uint8_t>(epoch));
        store->SubmitWrite(1, seq, req.key, nv);
        writes[req.key] = nv;
      } else {
        store->SubmitRead(1, seq, req.key);
      }
      ++seq;
    }
    std::map<uint64_t, std::vector<uint8_t>> responses;
    for (const ClientResponse& resp : store->RunEpoch()) {
      responses[resp.client_seq] = resp.value;
    }
    ASSERT_EQ(responses.size(), submitted.size());
    for (const auto& [key, s] : submitted) {
      const bool pre = responses[s] == model[key];
      const bool post = writes.count(key) != 0 && responses[s] == writes[key];
      ASSERT_TRUE(pre || post) << "epoch " << epoch << " key " << key;
    }
    for (auto& [key, nv] : writes) {
      model[key] = nv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, SnoopyGrid,
    ::testing::Values(GridParam{16, 40, 1, 1, false}, GridParam{16, 40, 2, 3, false},
                      GridParam{160, 40, 1, 2, false}, GridParam{16, 128, 1, 2, false},
                      GridParam{16, 40, 2, 2, true}, GridParam{64, 80, 3, 3, false}));

}  // namespace
}  // namespace snoopy
