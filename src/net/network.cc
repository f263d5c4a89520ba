#include "src/net/network.h"

#include "src/enclave/trace.h"

namespace snoopy {

namespace {

uint64_t EndpointTag(const std::string& name) {
  // FNV-1a; only used as a trace label.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void Network::Register(const std::string& endpoint, Handler handler) {
  endpoints_[endpoint] = [handler = std::move(handler)](std::span<const uint8_t> head,
                                                        std::span<const uint8_t> body) {
    if (body.empty()) {
      return handler(head);
    }
    std::vector<uint8_t> joined(head.begin(), head.end());
    joined.insert(joined.end(), body.begin(), body.end());
    return handler(joined);
  };
}

void Network::Register(const std::string& endpoint, GatherHandler handler) {
  endpoints_[endpoint] = std::move(handler);
}

void Network::Unregister(const std::string& endpoint) {
  endpoints_.erase(endpoint);
}

bool Network::HasEndpoint(const std::string& endpoint) const {
  return endpoints_.count(endpoint) != 0;
}

std::vector<uint8_t> Network::Call(const std::string& from, const std::string& to,
                                   std::span<const uint8_t> head,
                                   std::span<const uint8_t> body) {
  const auto it = endpoints_.find(to);  // read-only after wiring; no lock needed
  if (it == endpoints_.end()) {
    throw EndpointNotFoundError(to);
  }
  // std::map nodes are stable, so the pair reference stays valid after unlocking;
  // every mutation below re-takes stats_mu_ (never held across handler invocations).
  PairStats* pair = nullptr;
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    pair = &stats_.per_pair[PairKey(from, to)];
  }

  // A permanently lost component never answers again; restart cannot help, so this
  // is checked before the transient-crash state and surfaces as its own type.
  if (fault_injector_ != nullptr && fault_injector_->IsLost(to)) {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.timeouts;
    ++pair->timeouts;
    throw NodeLostError(to);
  }

  // A crashed component answers nothing; the caller's retry loop must recover it.
  if (fault_injector_ != nullptr && fault_injector_->IsCrashed(to)) {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.timeouts;
    ++pair->timeouts;
    throw EndpointCrashedError(to);
  }

  const FaultAction fault =
      fault_injector_ != nullptr ? fault_injector_->Decide(to) : FaultAction::kNone;

  // The send happens (and is adversary-visible) for every fault except a pre-send
  // drop, which we still trace: the adversary saw the bytes leave before losing them.
  const size_t size = head.size() + body.size();
  TraceRecord(TraceOp::kMsgSend, EndpointTag(to), size);
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    if (fault != FaultAction::kNone) {
      ++stats_.faults_injected;
    }
    ++stats_.messages;
    stats_.bytes_sent += size;
    ++pair->messages;
    pair->bytes_sent += size;
  }

  if (fault == FaultAction::kDrop) {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.timeouts;
    ++pair->timeouts;
    throw TimeoutError(to);
  }
  if (fault == FaultAction::kDelay && clock_ != nullptr) {
    clock_->Advance(fault_injector_->delay_s(to));
  }

  // Only a corrupted request needs bytes of its own, joined from both parts so the
  // flipped bit is drawn over the whole message; every other delivery hands the
  // handler the caller's spans.
  std::vector<uint8_t> corrupted;
  if (fault == FaultAction::kCorruptRequest) {
    corrupted.reserve(size);
    corrupted.assign(head.begin(), head.end());
    corrupted.insert(corrupted.end(), body.begin(), body.end());
    fault_injector_->CorruptBit(to, corrupted);
    head = corrupted;
    body = {};
  }

  std::vector<uint8_t> response = it->second(head, body);
  if (fault == FaultAction::kDuplicate) {
    // Second delivery of the identical bytes; receivers deduplicate (the subORAM
    // endpoint re-serves its cached epoch response). The duplicate's reply is the one
    // that "arrives".
    {
      std::lock_guard<std::mutex> g(stats_mu_);
      ++stats_.messages;
      stats_.bytes_sent += size;
      ++pair->messages;
      pair->bytes_sent += size;
    }
    response = it->second(head, body);
  }
  if (fault == FaultAction::kCrashBeforeReply) {
    // The callee did the work, then died before replying: its component goes down and
    // the caller sees only silence.
    fault_injector_->MarkCrashed(FaultInjector::ComponentOf(to));
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.timeouts;
    ++pair->timeouts;
    throw TimeoutError(to);
  }
  if (fault == FaultAction::kNodeLoss) {
    // Same silence as a crash-before-reply, but the machine is gone for good: the
    // caller's retry sees a timeout now and NodeLostError on every later attempt.
    fault_injector_->MarkLost(FaultInjector::ComponentOf(to));
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.timeouts;
    ++pair->timeouts;
    throw TimeoutError(to);
  }
  if (fault == FaultAction::kCorruptReply) {
    fault_injector_->CorruptBit(to, response);
  }

  TraceRecord(TraceOp::kMsgRecv, EndpointTag(from), response.size());
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    stats_.bytes_received += response.size();
    pair->bytes_received += response.size();
  }
  return response;
}

void Network::ExportTo(MetricsRegistry& registry) const {
  // Snapshot export: gauges carrying the current totals. Every value here is a wire
  // fact the network adversary observes directly, so publishing it leaks nothing.
  std::lock_guard<std::mutex> g(stats_mu_);
  registry.GetGauge("snoopy_net_messages").SetValue(static_cast<double>(stats_.messages));
  registry.GetGauge("snoopy_net_bytes_sent").SetValue(static_cast<double>(stats_.bytes_sent));
  registry.GetGauge("snoopy_net_bytes_received")
      .SetValue(static_cast<double>(stats_.bytes_received));
  registry.GetGauge("snoopy_net_retries").SetValue(static_cast<double>(stats_.retries));
  registry.GetGauge("snoopy_net_timeouts").SetValue(static_cast<double>(stats_.timeouts));
  registry.GetGauge("snoopy_net_faults_injected")
      .SetValue(static_cast<double>(stats_.faults_injected));
  registry.GetGauge("snoopy_net_recoveries").SetValue(static_cast<double>(stats_.recoveries));
  for (const auto& [pair_key, ps] : stats_.per_pair) {
    const MetricLabels labels = {{"pair", pair_key}};
    registry.GetGauge("snoopy_net_pair_messages", labels)
        .SetValue(static_cast<double>(ps.messages));
    registry.GetGauge("snoopy_net_pair_bytes_sent", labels)
        .SetValue(static_cast<double>(ps.bytes_sent));
    registry.GetGauge("snoopy_net_pair_bytes_received", labels)
        .SetValue(static_cast<double>(ps.bytes_received));
    registry.GetGauge("snoopy_net_pair_retries", labels)
        .SetValue(static_cast<double>(ps.retries));
    registry.GetGauge("snoopy_net_pair_timeouts", labels)
        .SetValue(static_cast<double>(ps.timeouts));
  }
}

}  // namespace snoopy
