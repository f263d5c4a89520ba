// The traced run's "lane": one LoadBalancer and one SubOram, sized like the
// workload's deployment, replaying the deployment's own epochs through each layer's
// public functions so the benchmark can time every layer from the outside.
//
// The lane's subORAM holds partition 0 and executes batch 0; the other S-1 batches
// are answered with copies of themselves. Every step is oblivious, so its cost
// depends only on the public sizes, not on which records the responses carry.

#ifndef PERFBENCH_SRC_LANE_H_
#define PERFBENCH_SRC_LANE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/core/load_balancer.h"
#include "src/core/suboram.h"
#include "src/enclave/rollback.h"

namespace perfbench {

class Lane {
 public:
  Lane(const WorkloadSpec& spec, uint64_t seed);

  // Replays one load balancer's share of an epoch and returns the lane metrics
  // (lb.*, suboram.*, obl.*, net.batch_*), times in ms.
  std::map<std::string, double> Replay(const std::vector<Op>& ops);

 private:
  const WorkloadSpec spec_;
  uint64_t replays_ = 0;
  snoopy::LoadBalancer lb_;
  snoopy::SubOram suboram_;
  snoopy::MonotonicCounterService counters_;
  std::unique_ptr<snoopy::SealedStore> sealed_store_;
  uint64_t counter_id_ = 0;
  snoopy::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LANE_H_
