#include "src/telemetry/tracing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace snoopy {

namespace {

void AppendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void AppendNumber(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

std::string Tracer::RenderChromeTrace() const {
  const std::vector<SpanEvent> events = snapshot();
  double t0 = 0;
  bool have_t0 = false;
  for (const SpanEvent& e : events) {
    if (!have_t0 || e.start_s < t0) {
      t0 = e.start_s;
      have_t0 = true;
    }
  }

  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"snoopy\"}}";
  for (const SpanEvent& e : events) {
    out += ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"cat\":\"";
    AppendJsonEscaped(out, e.cat);
    out += "\",\"name\":\"";
    AppendJsonEscaped(out, e.name);
    out += "\",\"ts\":";
    AppendNumber(out, (e.start_s - t0) * 1e6);
    out += ",\"dur\":";
    AppendNumber(out, (e.end_s - e.start_s) * 1e6);
    out += ",\"args\":{";
    bool first = true;
    if (e.task_id != kTraceNoTaskId) {
      out += "\"task\":";
      out += std::to_string(e.task_id);
      first = false;
    }
    for (int i = 0; i < SpanEvent::kMaxArgs; ++i) {
      if (e.arg_names[i] == nullptr) {
        continue;
      }
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\"";
      AppendJsonEscaped(out, e.arg_names[i]);
      out += "\":";
      out += std::to_string(e.arg_values[i]);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string body = RenderChromeTrace();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return written == body.size();
}

void TracerAtExitExport() {
  const char* out = std::getenv("SNOOPY_TRACE_OUT");
  if (out == nullptr || out[0] == '\0') {
    return;
  }
  Tracer::Global().WriteChromeTrace(out);
}

PoolPhaseMetrics PoolPhaseMetrics::Resolve(MetricsRegistry* metrics,
                                           const char* phase) {
  PoolPhaseMetrics m;
  if (metrics == nullptr) {
    return m;
  }
  const MetricLabels labels{{"phase", phase}};
  m.phases_total = &metrics->GetCounter("snoopy_pool_phases_total", labels);
  m.tasks_total = &metrics->GetCounter("snoopy_pool_tasks_total", labels);
  m.busy_seconds_total = &metrics->GetGauge("snoopy_pool_busy_seconds_total", labels);
  m.cpu_busy_seconds_total =
      &metrics->GetGauge("snoopy_pool_cpu_busy_seconds_total", labels);
  m.idle_seconds_total = &metrics->GetGauge("snoopy_pool_idle_seconds_total", labels);
  m.workers = &metrics->GetGauge("snoopy_pool_workers", labels);
  m.worker_busy_seconds =
      &metrics->GetHistogram("snoopy_pool_worker_busy_seconds", labels);
  m.worker_idle_seconds =
      &metrics->GetHistogram("snoopy_pool_worker_idle_seconds", labels);
  m.queue_depth = &metrics->GetHistogram("snoopy_pool_queue_depth", labels);
  return m;
}

void RecordWorkerPhase(Tracer* tracer, MetricsRegistry* metrics, const char* phase,
                       size_t workers, double phase_start_s, double phase_end_s,
                       const std::vector<WorkerPhaseStats>& stats) {
  const PoolPhaseMetrics resolved = PoolPhaseMetrics::Resolve(metrics, phase);
  RecordWorkerPhase(tracer, metrics != nullptr ? &resolved : nullptr, phase,
                    workers, phase_start_s, phase_end_s, stats);
}

void RecordWorkerPhase(Tracer* tracer, const PoolPhaseMetrics* metrics,
                       const char* phase, size_t workers, double phase_start_s,
                       double phase_end_s,
                       const std::vector<WorkerPhaseStats>& stats) {
  uint64_t tasks = 0;
  double busy_s = 0;
  double cpu_busy_s = 0;
  double idle_s = 0;
  for (const WorkerPhaseStats& w : stats) {
    tasks += w.tasks;
    busy_s += static_cast<double>(w.busy_ns) * 1e-9;
    cpu_busy_s += static_cast<double>(w.cpu_busy_ns) * 1e-9;
    idle_s += static_cast<double>(w.idle_ns) * 1e-9;
  }

  if (metrics != nullptr && metrics->phases_total != nullptr) {
    metrics->phases_total->Increment();
    metrics->tasks_total->Increment(tasks);
    metrics->busy_seconds_total->Add(busy_s);
    metrics->cpu_busy_seconds_total->Add(cpu_busy_s);
    metrics->idle_seconds_total->Add(idle_s);
    metrics->workers->SetValue(static_cast<double>(workers));
    for (const WorkerPhaseStats& w : stats) {
      metrics->worker_busy_seconds->Observe(static_cast<double>(w.busy_ns) * 1e-9);
      metrics->worker_idle_seconds->Observe(static_cast<double>(w.idle_ns) * 1e-9);
      metrics->queue_depth->Observe(static_cast<double>(w.max_queue_depth));
    }
  }

  if (tracer != nullptr && tracer->enabled()) {
    // One summary span per worker, emitted by the orchestrator in worker-id order
    // (the workers themselves never touch the shared stream here).
    for (size_t w = 0; w < stats.size(); ++w) {
      SpanEvent e;
      e.cat = "pool";
      e.name = phase;
      e.task_id = w;
      e.track = 1 + w;
      e.start_s = stats[w].start_s;
      e.end_s = stats[w].finish_s;
      e.arg_names[0] = "tasks";
      e.arg_values[0] = stats[w].tasks;
      e.arg_names[1] = "busy_ns";
      e.arg_values[1] = stats[w].busy_ns;
      e.arg_names[2] = "idle_ns";
      e.arg_values[2] = stats[w].idle_ns;
      e.arg_names[3] = "cpu_busy_ns";
      e.arg_values[3] = stats[w].cpu_busy_ns;
      tracer->Record(e);
    }
    // A synthetic barrier span covering the whole pool run, so the exporter shows
    // the join point the per-worker idle_ns values are measured against.
    SpanEvent barrier;
    barrier.cat = "pool";
    barrier.name = "barrier";
    barrier.track = 0;
    barrier.start_s = phase_start_s;
    barrier.end_s = phase_end_s;
    barrier.arg_names[0] = "workers";
    barrier.arg_values[0] = workers;
    barrier.arg_names[1] = "tasks";
    barrier.arg_values[1] = tasks;
    tracer->Record(barrier);
  }
}

ProfilingSampler::ProfilingSampler(MetricsRegistry* registry, Tracer* tracer,
                                   double interval_s)
    : registry_(registry), tracer_(tracer),
      interval_s_(interval_s > 0 ? interval_s : 0.01) {}

ProfilingSampler::~ProfilingSampler() { Stop(); }

void ProfilingSampler::Start() {
  std::lock_guard<std::mutex> g(mu_);
  if (running_) {
    return;
  }
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ProfilingSampler::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> g(mu_);
    running_ = false;
  }
  SampleOnce();  // final sample so short runs still export a data point
}

void ProfilingSampler::Loop() {
  const auto interval = std::chrono::duration<double>(interval_s_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    lock.unlock();
    SampleOnce();
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
  }
}

void ProfilingSampler::SampleOnce() {
  samples_.fetch_add(1, std::memory_order_relaxed);
  if (registry_ == nullptr) {
    return;
  }
  registry_->GetCounter("snoopy_sampler_samples_total").Increment();
  if (tracer_ != nullptr) {
    registry_->GetGauge("snoopy_sampler_tracer_spans")
        .SetValue(static_cast<double>(tracer_->spans_recorded()));
    registry_->GetGauge("snoopy_sampler_tracer_dropped")
        .SetValue(static_cast<double>(tracer_->spans_dropped()));
    registry_->GetGauge("snoopy_sampler_tracer_buffered")
        .SetValue(static_cast<double>(tracer_->size()));
    registry_->GetHistogram("snoopy_sampler_tracer_buffered_series")
        .Observe(static_cast<double>(tracer_->size()));
  }
  registry_->GetGauge("snoopy_sampler_registry_series")
      .SetValue(static_cast<double>(registry_->size()));
}

}  // namespace snoopy
