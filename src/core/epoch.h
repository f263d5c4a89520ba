// One epoch of the Snoopy protocol (paper section 4, Figure 7), as one function over
// explicit inputs:
//   1. lb_prepare: each load balancer turns its pending client requests into one
//      padded batch per subORAM (Figure 5),
//   2. suboram_execute: each subORAM applies the load balancers' batches in
//      load-balancer-id order, which with reads-before-writes inside a batch yields
//      the linearization of Appendix C,
//   3. placeholder batches stand in for every partition that could not answer,
//   4. response_match: each load balancer matches the responses back to its
//      requests (Figure 6).
// Snoopy (src/core/snoopy.h) runs it over its sealed, retried subORAM exchange.

#ifndef SNOOPY_SRC_CORE_EPOCH_H_
#define SNOOPY_SRC_CORE_EPOCH_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/load_balancer.h"
#include "src/core/request.h"
#include "src/crypto/rng.h"
#include "src/obl/parallel.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

// The epoch phases with a duration histogram (snoopy_epoch_phase_seconds{phase}); the
// first kNumPooledPhases run as one RunPhase each and carry pool metrics.
enum EpochPhase : uint8_t { kLbPrepare, kSubOramExecute, kResponseMatch, kSeal, kRepair };
inline constexpr size_t kNumPhases = 5;
inline constexpr size_t kNumPooledPhases = 4;
// The phase label values, indexed by EpochPhase; pool metrics carry the same labels.
inline constexpr const char* kPhaseNames[kNumPhases] = {
    "lb_prepare", "suboram_execute", "response_match", "seal", "repair"};

// Handles for every metric an epoch and its seal touch, resolved once per registry
// (its references are stable) so the hot path never repeats name-keyed lookups.
struct EpochMetrics {
  Histogram* epoch_seconds = nullptr;
  Counter* epochs_total = nullptr;
  Counter* requests_total = nullptr;
  Counter* degraded_epochs_total = nullptr;
  Counter* deferred_requests_total = nullptr;
  Histogram* phase_seconds[kNumPhases] = {};
  PoolPhaseMetrics pool[kNumPooledPhases];
  std::vector<Histogram*> batch_size;  // per load balancer

  static EpochMetrics Resolve(MetricsRegistry& registry, uint32_t num_load_balancers);
};

// Where an epoch's phases report: the epoch number (the phase spans' task id) and the
// resolved metric handles (null = telemetry disabled). Spans go to Tracer::Global().
struct EpochTelemetry {
  uint64_t epoch = 0;
  const EpochMetrics* metrics = nullptr;

  // The phase's duration histogram; null when telemetry is disabled.
  Histogram* PhaseHistogram(EpochPhase phase) const {
    return metrics != nullptr ? metrics->phase_seconds[phase] : nullptr;
  }
  // RunPhase's context for one of the pooled phases.
  PhasePoolContext Pool(EpochPhase phase) const {
    return {kPhaseNames[phase], metrics != nullptr ? &metrics->pool[phase] : nullptr};
  }
};

// Load balancer lb's preparation seed for `epoch`; equal (lb, epoch) means equal
// batches, which is what lets a rebuilt load balancer re-prepare deterministically.
inline uint64_t EpochSeed(uint64_t base_seed, uint64_t epoch) {
  return Mix64(base_seed ^ Mix64(epoch));
}

// One (load balancer, subORAM) exchange: sends prepared[lb].suboram_batches[so] to
// subORAM so and returns its response batch. Throws NodeLostError when the subORAM's
// machine is permanently gone. Calls for one subORAM come from one task, in
// load-balancer order; calls for distinct subORAMs may run concurrently.
using SubOramExchange = std::function<RequestBatch(
    uint32_t lb, uint32_t so, const std::vector<LoadBalancer::PreparedEpoch>& prepared)>;

struct EpochResult {
  // Per load balancer, one record per client request; resp = 0 marks a request whose
  // partition did not answer.
  std::vector<RequestBatch> matched;
  std::vector<uint8_t> lost;  // per partition: 1 if its machine died mid-epoch
  // Per partition, an exchange failure other than a loss. Any failure skips the
  // match: `matched` then holds each load balancer's requests as prepared, all
  // unanswered (resp = 0) and in submission order, and `match_timer` is null.
  std::vector<std::exception_ptr> failures;
  // The response_match timer, still running so that it also covers the delivery.
  std::unique_ptr<SpanTimer> match_timer;
};

// Runs one epoch. Drains `pending` (one queue per load balancer); `seeds[lb]` fixes
// load balancer lb's preparation randomness; a partition with available[so] false is
// not called and gets placeholders. Every phase runs at width `threads` and gives
// identical results at any width.
EpochResult RunEpochProtocol(const std::vector<std::unique_ptr<LoadBalancer>>& lbs,
                             std::vector<RequestBatch>& pending, const std::vector<uint64_t>& seeds,
                             const std::vector<bool>& available, int threads,
                             const EpochTelemetry& telemetry, const SubOramExchange& exchange);

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_EPOCH_H_
