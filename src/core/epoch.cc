#include "src/core/epoch.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/net/fault.h"

namespace snoopy {

namespace {

// One pooled phase: starts its duration timer, opens its "phase" span and runs
// task(0..n-1) as one RunPhase barrier. Returns the timer still running; dropping it
// ends the measured interval.
std::unique_ptr<SpanTimer> RunTimedPhase(const EpochTelemetry& telemetry, EpochPhase phase,
                                         size_t n, int threads,
                                         const std::function<void(size_t)>& task) {
  auto timer = std::make_unique<SpanTimer>(telemetry.PhaseHistogram(phase), telemetry.now);
  TraceSpan trace(telemetry.tracer, "phase", kPhaseNames[phase], telemetry.epoch);
  RunPhase(n, threads, telemetry.Pool(phase), task);
  return timer;
}

// `batch_size` placeholder responses (resp = 1) standing in for a partition that did
// not answer. Their reserved keys at the top of the dummy range match no original
// during response propagation, so the partition's real requests keep resp = 0 (the
// requeue flag) and these records compact away with the dummy responses.
RequestBatch PlaceholderBatch(uint64_t batch_size, size_t value_size) {
  RequestBatch batch(value_size);
  for (uint64_t i = 0; i < batch_size; ++i) {
    batch.Append({.key = kDummyKeyBase | (uint64_t{0x7fffffff} << 31) | i, .dummy = 1,
                  .op = kOpRead, .resp = 1, .granted = 1}, {});
  }
  return batch;
}

}  // namespace

EpochMetrics EpochMetrics::Resolve(MetricsRegistry& registry, uint32_t num_load_balancers) {
  EpochMetrics m;
  m.epoch_seconds = &registry.GetHistogram("snoopy_epoch_seconds");
  m.epochs_total = &registry.GetCounter("snoopy_epochs_total");
  m.requests_total = &registry.GetCounter("snoopy_requests_total");
  m.degraded_epochs_total = &registry.GetCounter("snoopy_degraded_epochs_total");
  m.deferred_requests_total = &registry.GetCounter("snoopy_deferred_requests_total");
  for (size_t i = 0; i < kNumPhases; ++i) {
    m.phase_seconds[i] =
        &registry.GetHistogram("snoopy_epoch_phase_seconds", {{"phase", kPhaseNames[i]}});
  }
  for (size_t i = 0; i < kNumPooledPhases; ++i) {
    m.pool[i] = PoolPhaseMetrics::Resolve(&registry, kPhaseNames[i]);
  }
  for (uint32_t lb = 0; lb < num_load_balancers; ++lb) {
    m.batch_size.push_back(
        &registry.GetHistogram("snoopy_batch_size", {{"lb", std::to_string(lb)}}));
  }
  return m;
}

// Three phases, each a barrier and one RunPhase over public task ids (section 4).
// Thread count changes neither the enclave trace nor the results.
EpochResult RunEpochProtocol(const std::vector<std::unique_ptr<LoadBalancer>>& lbs,
                             std::vector<RequestBatch>& pending, const std::vector<uint64_t>& seeds,
                             const std::vector<bool>& available, int threads,
                             const EpochTelemetry& telemetry, const SubOramExchange& exchange) {
  const size_t num_lbs = lbs.size();
  const size_t num_sos = available.size();
  EpochResult result;

  // Phase 1: one task per load balancer (section 4.3). The per-(lb, epoch) seed fixes
  // the dummy-key randomness, so preparation is a pure function of (pending requests,
  // seed), and a load balancer rebuilt after a crash prepares byte-identical batches.
  std::vector<LoadBalancer::PreparedEpoch> prepared(num_lbs);
  RunTimedPhase(telemetry, kLbPrepare, num_lbs, threads, [&](size_t lb) {
    const size_t value_size = pending[lb].value_size();
    prepared[lb] =
        lbs[lb]->PrepareBatches(std::exchange(pending[lb], RequestBatch(value_size)), seeds[lb]);
    if (telemetry.metrics != nullptr) {
      // The padded per-subORAM batch size f(R, S): public by Theorem 3.
      telemetry.metrics->batch_size[lb]->Observe(static_cast<double>(prepared[lb].batch_size));
    }
  });

  // Phase 2: one task per subORAM, applying its batches in load-balancer order, the
  // Appendix C linearization (per subORAM, so subORAMs run concurrently: Figure 9a's
  // scaling axis). A task only reports what befell its partition; the caller applies
  // losses after the join, so partition health has a single owner thread.
  std::vector<std::vector<RequestBatch>> responses(num_lbs, std::vector<RequestBatch>(num_sos));
  result.lost.assign(num_sos, 0);
  result.failures.resize(num_sos);
  RunTimedPhase(telemetry, kSubOramExecute, num_sos, threads, [&](size_t so) {
    if (!available[so]) {
      return;  // under repair: placeholders below
    }
    try {
      for (uint32_t lb = 0; lb < num_lbs; ++lb) {
        responses[lb][so] = exchange(lb, static_cast<uint32_t>(so), prepared);
      }
    } catch (const NodeLostError&) {
      // The machine vanished mid-epoch. Any responses it already produced this
      // epoch are discarded below: the state behind them died with the machine,
      // so delivering them would acknowledge writes the repaired partition will
      // not have. The whole partition's requests defer to the epoch queue instead.
      result.lost[so] = 1;
    } catch (...) {
      result.failures[so] = std::current_exception();
    }
  });
  if (std::any_of(result.failures.begin(), result.failures.end(),
                  [](const std::exception_ptr& failure) { return failure != nullptr; })) {
    // Nothing is answered: every request comes back as prepared, resp = 0.
    result.matched.resize(num_lbs);
    for (size_t lb = 0; lb < num_lbs; ++lb) {
      result.matched[lb] = std::move(prepared[lb].originals);
    }
    return result;
  }

  // Degraded mode: placeholder batches stand in for unavailable and lost partitions, so
  // response matching still sees one batch per (lb, subORAM). The placeholders
  // compact away and the partition's own requests surface unanswered (resp = 0),
  // which the caller requeues into the next epoch.
  for (uint32_t so = 0; so < num_sos; ++so) {
    if (available[so] && result.lost[so] == 0) {
      continue;
    }
    for (size_t lb = 0; lb < num_lbs; ++lb) {
      responses[lb][so] = PlaceholderBatch(prepared[lb].batch_size, lbs[lb]->config().value_size);
    }
  }

  // Phase 3: one task per load balancer matches responses to requests (Figure 6).
  result.matched.resize(num_lbs);
  result.match_timer = RunTimedPhase(telemetry, kResponseMatch, num_lbs, threads, [&](size_t lb) {
    result.matched[lb] = lbs[lb]->MatchResponses(std::move(prepared[lb]), std::move(responses[lb]));
  });
  return result;
}

}  // namespace snoopy
