#include "perfbench/src/deployment.h"

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "perfbench/src/lane.h"
#include "src/telemetry/tracing.h"

namespace perfbench {

namespace {

// Phases whose duration histograms (snoopy_epoch_phase_seconds) the traced run
// reads, and the phases the worker pool reports on (snoopy_pool_* gauges).
constexpr const char* kHistogramPhases[] = {"lb_prepare", "suboram_execute",
                                            "response_match", "seal"};
constexpr const char* kPoolPhases[] = {"lb_prepare", "suboram_execute", "response_match"};
// Idle (barrier-stall) time is read for the subORAM phase only: the fused
// prepare/execute dispatch never charges idle time to lb_prepare, and with one load
// balancer response_match is a single task, so both would read a constant 0.
constexpr const char* kIdlePhase = "suboram_execute";
// Step spans the traced run sums per epoch.
constexpr const char* kSteps[] = {"suboram_oht_build", "suboram_scan", "suboram_extract",
                                  "lb_bin_placement", "lb_match_sort"};

}  // namespace

Harness::Harness(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {
  objects_.reserve(spec.num_objects);
  for (uint64_t key = 0; key < spec.num_objects; ++key) {
    objects_.emplace_back(key, ValueOf(InitialTag(key), spec.value_size));
  }
}

double Harness::Setup() {
  clients_.clear();
  snoopy_.reset();
  registry_ = std::make_unique<snoopy::MetricsRegistry>();
  // Hand the previous deployment's memory back to the system, so peak RSS measures
  // one deployment rather than how the allocator happened to cache the last one.
  malloc_trim(0);

  const double start = NowSeconds();
  snoopy::SnoopyConfig config;
  config.num_load_balancers = spec_.num_lbs;
  config.num_suborams = spec_.num_suborams;
  config.value_size = spec_.value_size;
  config.epoch_threads = kEpochThreads;
  config.striping.replicas = spec_.striping_replicas;
  snoopy_ = std::make_unique<snoopy::Snoopy>(config, seed_);
  snoopy_->set_metrics_registry(registry_.get());
  snoopy_->Initialize(objects_);
  for (uint32_t c = 0; c < spec_.num_clients; ++c) {
    clients_.push_back(std::make_unique<snoopy::SnoopyClient>(*snoopy_, c, seed_ + 1 + c));
  }
  const double elapsed = NowSeconds() - start;

  reference_ = std::make_unique<ReferenceModel>(spec_.num_objects);
  epoch_ = 0;
  if (spec_.open_loop) {
    arrivals_ = std::make_unique<ArrivalStream>(spec_, seed_);
    next_arrival_ = arrivals_->Next();
    schedule_start_s_ = -1;
  }
  return elapsed;
}

uint64_t Harness::ObservedTag(std::vector<uint8_t>& value) {
  if (plant_ > 0 && value.size() > 8) {
    value[8] ^= 0x5a;
    --plant_;
  }
  return value.empty() ? 0 : TagOfValue(value.data(), value.size());
}

EpochRecord Harness::RunEpoch() {
  EpochRecord rec = spec_.open_loop ? RunOpenLoopEpoch() : RunClosedLoopEpoch();
  ++epoch_;
  return rec;
}

EpochRecord Harness::RunClosedLoopEpoch() {
  EpochRecord rec;
  rec.ops = ClosedLoopEpoch(spec_, seed_, epoch_);
  const std::vector<Op>& ops = rec.ops;
  const size_t n = ops.size();
  const std::vector<Expected> expected = reference_->ApplyPinnedEpoch(ops, spec_.num_lbs);

  // Caller i of the closed loop sends request i. Sequence numbers grow with arrival:
  // the load balancer's last-write-wins picks the highest one.
  const auto seq_of = [this](size_t i) { return (epoch_ << 24) | i; };
  std::vector<double> submitted_s(n);
  std::vector<uint8_t> value(spec_.value_size);
  rec.submit_us.resize(n);
  rec.start_s = NowSeconds();
  for (size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    const double t = NowSeconds();
    if (op.write) {
      FillValue(op.tag, value.data(), value.size());
      snoopy_->SubmitWriteWithLb(op.lb, i, seq_of(i), op.key, value);
    } else {
      snoopy_->SubmitReadWithLb(op.lb, i, seq_of(i), op.key);
    }
    submitted_s[i] = t;
    rec.submit_us[i] = (NowSeconds() - t) * 1e6;
  }
  rec.run_start_s = NowSeconds();
  std::vector<snoopy::ClientResponse> responses = snoopy_->RunEpoch();
  rec.run_end_s = NowSeconds();

  // Hand each response to its caller's slot; anything unaddressable is a failure.
  std::vector<std::vector<uint8_t>> held(n);
  size_t unexpected = 0;
  const double fetch_start = NowSeconds();
  for (snoopy::ClientResponse& resp : responses) {
    const uint64_t i = resp.client_id;
    if (i >= n || resp.client_seq != seq_of(i) || resp.key != ops[i].key ||
        !held[i].empty()) {
      ++unexpected;
      continue;
    }
    held[i] = std::move(resp.value);
  }
  const double per_fetch_us =
      responses.empty() ? 0 : (NowSeconds() - fetch_start) * 1e6 / responses.size();

  std::vector<uint64_t> observed(n, 0);
  rec.wait_ms.resize(n);
  for (size_t i = 0; i < n; ++i) {
    rec.wait_ms[i] = (rec.run_start_s - submitted_s[i]) * 1e3;
    if (!held[i].empty()) {
      observed[i] = ObservedTag(held[i]);
      rec.latency_ms.push_back((rec.run_end_s - submitted_s[i]) * 1e3);
      rec.fetch_us.push_back(per_fetch_us);
    }
  }
  const size_t mismatched = CountMismatches(expected, observed);
  rec.failed = mismatched + unexpected;
  rec.completed = n - mismatched;
  return rec;
}

EpochRecord Harness::RunOpenLoopEpoch() {
  EpochRecord rec;
  rec.start_s = NowSeconds();
  if (schedule_start_s_ < 0) {
    schedule_start_s_ = rec.start_s;
  }
  // Everything due by this epoch's start, in due order.
  const double virtual_now = rec.start_s - schedule_start_s_;
  while (next_arrival_.due_s <= virtual_now) {
    rec.ops.push_back(next_arrival_);
    next_arrival_ = arrivals_->Next();
  }
  rec.converted_writes = LimitOneWritePerKey(rec.ops);
  const std::vector<Op>& ops = rec.ops;
  const size_t n = ops.size();
  const std::vector<Expected> expected = reference_->ApplyUnpinnedEpoch(ops);

  // (client, client_seq) -> op index.
  std::unordered_map<uint64_t, size_t> index_of;
  std::vector<uint8_t> active(spec_.num_clients, 0);
  std::vector<uint8_t> value(spec_.value_size);
  rec.submit_us.resize(n);
  rec.wait_ms.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    snoopy::SnoopyClient& client = *clients_[op.client];
    const double t = NowSeconds();
    uint64_t seq = 0;
    if (op.write) {
      FillValue(op.tag, value.data(), value.size());
      seq = client.Write(op.key, value);
    } else {
      seq = client.Read(op.key);
    }
    rec.submit_us[i] = (NowSeconds() - t) * 1e6;
    rec.wait_ms[i] = (rec.start_s - (schedule_start_s_ + op.due_s)) * 1e3;
    index_of[(uint64_t{op.client} << 40) | seq] = i;
    active[op.client] = 1;
  }
  rec.run_start_s = NowSeconds();
  const std::vector<snoopy::ClientResponse> direct = snoopy_->RunEpoch();
  rec.run_end_s = NowSeconds();

  std::vector<uint64_t> observed(n, 0);
  size_t unexpected = direct.size();  // every request here came from a session
  for (uint32_t c = 0; c < spec_.num_clients; ++c) {
    if (active[c] == 0) {
      continue;
    }
    const double t = NowSeconds();
    std::vector<snoopy::SnoopyClient::Response> responses = clients_[c]->FetchResponses();
    const double held_s = NowSeconds();
    for (snoopy::SnoopyClient::Response& resp : responses) {
      const auto it = index_of.find((uint64_t{c} << 40) | resp.client_seq);
      if (it == index_of.end() || resp.key != ops[it->second].key ||
          observed[it->second] != 0) {
        ++unexpected;
        continue;
      }
      observed[it->second] = ObservedTag(resp.value);
      rec.latency_ms.push_back(
          (held_s - (schedule_start_s_ + ops[it->second].due_s)) * 1e3);
      rec.fetch_us.push_back((held_s - t) * 1e6 / responses.size());
    }
  }
  const size_t mismatched = CountMismatches(expected, observed);
  rec.failed = mismatched + unexpected;
  rec.completed = n - mismatched;
  return rec;
}

uint64_t Harness::StoredBytes() const {
  uint64_t bytes = 0;
  const uint32_t s = spec_.num_suborams;
  for (uint32_t so = 0; so < s; ++so) {
    bytes += snoopy_->suboram_snapshot(so).size();
    for (uint32_t peer = 0; peer < s; ++peer) {
      if (const auto* stripe = snoopy_->host_stripe(peer, so)) {
        bytes += stripe->payload.size();
      }
    }
  }
  return bytes;
}

EndToEndReport RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds,
                           size_t plant_wrong) {
  snoopy::Tracer::Global().Disable();
  EndToEndReport report;
  Harness harness(spec, seed);
  // Set-up is repeated (at least kMinSetupReps times, and until about a second has
  // been spent) and reported as a median, so one slow construction cannot move it.
  double setup_total_s = 0;
  while (report.setup_s.size() < kMinSetupReps ||
         (setup_total_s < 1.0 && report.setup_s.size() < 50)) {
    report.setup_s.push_back(harness.Setup());
    setup_total_s += report.setup_s.back();
  }
  harness.PlantWrongResponses(plant_wrong);

  struct Slice {
    size_t completed = 0;
    double start_s = -1;
    double end_s = 0;
    std::vector<double> latency_ms;
  };
  std::vector<Slice> slices(kSlices);
  std::vector<double> wait_ms;
  double window_start = 0;
  for (size_t e = 0;; ++e) {
    const bool measured = e >= kWarmupEpochs;
    if (measured && report.epochs > 0 && NowSeconds() - window_start >= seconds) {
      break;
    }
    EpochRecord rec = harness.RunEpoch();
    report.attempted += rec.ops.size();
    report.failed += rec.failed;
    report.converted_writes += rec.converted_writes;
    if (!measured) {
      continue;
    }
    if (report.epochs == 0) {
      window_start = rec.start_s;
    }
    ++report.epochs;
    report.requests += rec.latency_ms.size();
    const auto index = static_cast<size_t>((rec.start_s - window_start) * kSlices / seconds);
    Slice& slice = slices[std::min(index, kSlices - 1)];
    if (slice.start_s < 0) {
      slice.start_s = rec.start_s;
    }
    slice.end_s = NowSeconds();
    slice.completed += rec.completed;
    slice.latency_ms.insert(slice.latency_ms.end(), rec.latency_ms.begin(),
                            rec.latency_ms.end());
    if (spec.open_loop) {
      wait_ms.insert(wait_ms.end(), rec.wait_ms.begin(), rec.wait_ms.end());
    }
  }
  std::vector<double> throughput;
  std::vector<double> p50;
  std::vector<double> p90;
  report.min_beyond_p90 = report.requests;
  for (const Slice& slice : slices) {
    if (slice.start_s < 0) {
      continue;
    }
    throughput.push_back(static_cast<double>(slice.completed) /
                         (slice.end_s - slice.start_s));
    p50.push_back(Quantile(slice.latency_ms, 0.50));
    const Percentile tail = PercentileOf(slice.latency_ms, 0.90);
    p90.push_back(tail.value);
    report.min_beyond_p90 = std::min(report.min_beyond_p90, tail.beyond);
  }
  report.slices = throughput.size();
  report.throughput_rps = Median(throughput);
  report.latency_p50_ms = Median(p50);
  report.latency_p90_ms = Median(p90);
  report.epoch_requests = static_cast<double>(report.attempted) /
                          static_cast<double>(report.epochs + kWarmupEpochs);
  report.submit_wait_ms = Median(wait_ms);
  report.peak_rss_mb = PeakRssMiB();
  report.stored_bytes_per_user_byte =
      static_cast<double>(harness.StoredBytes()) /
      static_cast<double>(spec.num_objects * spec.value_size);
  return report;
}

namespace {

// Registry readings the traced run differences across one epoch.
std::map<std::string, double> ReadRegistry(snoopy::MetricsRegistry& reg) {
  std::map<std::string, double> v;
  for (const char* phase : kHistogramPhases) {
    v[std::string("phase.") + phase + "_ms"] =
        reg.GetHistogram("snoopy_epoch_phase_seconds", {{"phase", phase}}).sum() * 1e3;
  }
  for (const char* phase : kPoolPhases) {
    const std::string prefix = std::string("pool.") + phase;
    v[prefix + ".busy_s"] =
        reg.GetGauge("snoopy_pool_busy_seconds_total", {{"phase", phase}}).value();
    v[prefix + ".cpu_busy_s"] =
        reg.GetGauge("snoopy_pool_cpu_busy_seconds_total", {{"phase", phase}}).value();
  }
  v[std::string("pool.") + kIdlePhase + ".idle_s"] =
      reg.GetGauge("snoopy_pool_idle_seconds_total", {{"phase", kIdlePhase}}).value();
  return v;
}

}  // namespace

LayerReport RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  snoopy::Tracer& tracer = snoopy::Tracer::Global();
  tracer.Disable();
  LayerReport report;
  Harness harness(spec, seed);
  harness.Setup();
  for (size_t e = 0; e < kWarmupEpochs; ++e) {
    const EpochRecord rec = harness.RunEpoch();
    report.attempted += rec.ops.size();
    report.failed += rec.failed;
  }

  // Deployment share of the run: untraced and traced epochs alternate, so the
  // tracing overhead is measured under the same conditions it is charged in.
  const double deploy_budget_s = 0.6 * seconds;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::vector<Op>> traced_ops;
  double arm_requests[2] = {0, 0};
  double arm_seconds[2] = {0, 0};
  const double start = NowSeconds();
  for (size_t e = 0; NowSeconds() - start < deploy_budget_s || traced_ops.size() < 3; ++e) {
    const bool traced = e % 2 == 1;
    const std::map<std::string, double> before = ReadRegistry(harness.registry());
    const snoopy::Network::Stats net_before = harness.snoopy().network().stats();
    if (traced) {
      tracer.Clear();
      tracer.Enable(1);
    }
    EpochRecord rec = harness.RunEpoch();
    tracer.Disable();
    report.attempted += rec.ops.size();
    report.failed += rec.failed;
    const double run_s = rec.run_end_s - rec.run_start_s;
    arm_requests[traced ? 1 : 0] += static_cast<double>(rec.ops.size());
    arm_seconds[traced ? 1 : 0] += run_s;
    if (!traced) {
      continue;
    }

    auto add = [&samples](const std::string& name, double v) { samples[name].push_back(v); };
    add("snoopy.run_epoch_ms", run_s * 1e3);
    add("snoopy.epoch_requests", static_cast<double>(rec.ops.size()));
    for (const auto& [name, value] : ReadRegistry(harness.registry())) {
      add(name, value - before.at(name));
    }
    std::map<std::string, double> span_ms;
    for (const snoopy::SpanEvent& ev : tracer.snapshot()) {
      const double ms = (ev.end_s - ev.start_s) * 1e3;
      if (std::strcmp(ev.cat, "step") == 0) {
        span_ms[std::string("step.") + ev.name + "_ms"] += ms;
      } else if (std::strcmp(ev.cat, "phase") == 0 && std::strcmp(ev.name, "deliver") == 0) {
        span_ms["phase.deliver_ms"] += ms;
      }
    }
    for (const char* step : kSteps) {
      add(std::string("step.") + step + "_ms", span_ms[std::string("step.") + step + "_ms"]);
    }
    add("phase.deliver_ms", span_ms["phase.deliver_ms"]);
    const snoopy::Network::Stats& net_after = harness.snoopy().network().stats();
    const double wire = static_cast<double>(net_after.bytes_sent + net_after.bytes_received -
                                            net_before.bytes_sent - net_before.bytes_received);
    add("net.wire_bytes_per_request", wire / std::max<double>(1, rec.ops.size()));
    add("net.messages_per_epoch",
        static_cast<double>(net_after.messages - net_before.messages));
    add("enclave.sealed_bytes_per_epoch", static_cast<double>(harness.StoredBytes()));
    add("client.submit_us", Median(rec.submit_us));
    add("client.fetch_us", Median(rec.fetch_us));
    add("client.wait_ms", Median(rec.wait_ms));
    traced_ops.push_back(std::move(rec.ops));
  }
  report.traced_epochs = traced_ops.size();
  const double untraced_rps = arm_requests[0] / arm_seconds[0];
  const double traced_rps = arm_requests[1] / arm_seconds[1];

  // Lane share: replay the traced epochs' requests (one load balancer's share)
  // through the lane's layers. The first replay warms the lane and is discarded.
  Lane lane(spec, seed);
  std::map<std::string, EpochSeries> lane_samples;
  const double lane_start = NowSeconds();
  const double lane_budget_s = seconds - (lane_start - start);
  for (size_t i = 0; NowSeconds() - lane_start < lane_budget_s || i < 3; ++i) {
    const std::vector<Op>& epoch_ops = traced_ops[i % traced_ops.size()];
    std::vector<Op> share;
    for (size_t k = 0; k < epoch_ops.size(); ++k) {
      // Pinned workloads: load balancer 0's requests. Sessions pick a balancer
      // uniformly, so every L-th request is an equal share.
      if (spec.open_loop ? k % spec.num_lbs == 0 : epoch_ops[k].lb == 0) {
        share.push_back(epoch_ops[k]);
      }
    }
    for (const auto& [name, value] : lane.Replay(share)) {
      lane_samples.try_emplace(name, 1).first->second.Add(value);
    }
  }
  report.lane_epochs = lane_samples.begin()->second.kept().size();

  for (const auto& [name, values] : samples) {
    report.metrics[name] = Median(values);
  }
  for (const auto& [name, series] : lane_samples) {
    report.metrics[name] = series.median();
  }
  report.metrics["trace_overhead_frac"] = 1.0 - traced_rps / untraced_rps;

  // Dominance: each candidate layer's share of the epoch's wall time. A step's
  // summed span time is work spread over the phase's workers, so it is scaled by
  // its phase's wall-to-busy ratio; seal and deliver run serially on the
  // orchestrator, so their span is their share. The predicted layer may be a sum of
  // candidates.
  const auto& mm = report.metrics;
  const auto wall_per_busy = [&mm](const std::string& phase) {
    const double busy_ms = mm.at("pool." + phase + ".busy_s") * 1e3;
    return busy_ms > 0 ? mm.at("phase." + phase + "_ms") / busy_ms : 0.0;
  };
  const double execute = wall_per_busy("suboram_execute");
  report.layers = {
      {"oht_build", mm.at("step.suboram_oht_build_ms") * execute},
      {"scan", mm.at("step.suboram_scan_ms") * execute},
      {"extract", mm.at("step.suboram_extract_ms") * execute},
      {"lb_sorts", mm.at("step.lb_bin_placement_ms") * wall_per_busy("lb_prepare") +
                       mm.at("step.lb_match_sort_ms") * wall_per_busy("response_match")},
      {"seal", mm.at("phase.seal_ms")},
      {"deliver", mm.at("phase.deliver_ms")},
  };
  std::vector<std::string> predicted_parts;
  if (spec.name == "scan_heavy") {
    predicted_parts = {"scan"};
  } else if (spec.name == "batch_heavy") {
    predicted_parts = {"oht_build", "lb_sorts"};
  } else {
    predicted_parts = {"seal"};
  }
  double predicted_ms = 0;
  for (const std::string& part : predicted_parts) {
    predicted_ms += report.layers.at(part);
    report.predicted += (report.predicted.empty() ? "" : "+") + part;
  }
  report.dominant_ok = true;
  double largest = -1;
  for (const auto& [name, ms] : report.layers) {
    if (ms > largest) {
      largest = ms;
      report.dominant = name;
    }
    if (std::find(predicted_parts.begin(), predicted_parts.end(), name) ==
            predicted_parts.end() &&
        ms >= predicted_ms) {
      report.dominant_ok = false;
    }
  }
  report.metrics["layer.dominant_matches"] = report.dominant_ok ? 1 : 0;
  return report;
}

}  // namespace perfbench
