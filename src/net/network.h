// In-process message network.
//
// The functional Snoopy deployment runs its load balancers and subORAMs in one process
// (the substitute for the paper's 18-machine gRPC mesh); this router carries their
// messages, records the communication pattern into the enclave trace (Appendix B's
// trace includes "network communication"), and keeps byte/message statistics that the
// figure harnesses and the cluster cost model consume.
//
// An optional FaultInjector makes the network adversarial: calls can be dropped,
// delayed (on the shared VirtualClock), duplicated, bit-flipped, or terminated by a
// callee crash. Failures surface as the typed NetworkError hierarchy (fault.h) so
// callers can retry transient faults and run recovery for crashes; the Stats block
// additionally counts retries, timeouts, injected faults, and recoveries so bench
// harnesses and the simulator can report robustness observability alongside bytes.

#ifndef SNOOPY_SRC_NET_NETWORK_H_
#define SNOOPY_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/retry.h"
#include "src/telemetry/metrics.h"

namespace snoopy {

class Network {
 public:
  // A handler consumes a request payload and produces a response payload.
  using Handler = std::function<std::vector<uint8_t>(std::span<const uint8_t>)>;
  // A handler that takes a request as sent by a gathered Call, in two parts: the
  // request is head ++ body (a contiguous Call delivers an empty body).
  using GatherHandler = std::function<std::vector<uint8_t>(std::span<const uint8_t> head,
                                                           std::span<const uint8_t> body)>;

  // A plain Handler registered here gets a gathered request joined into one buffer;
  // a GatherHandler gets the caller's spans as they are.
  void Register(const std::string& endpoint, Handler handler);
  void Register(const std::string& endpoint, GatherHandler handler);
  // Removes an endpoint (no-op if absent). Used when resharding retires subORAMs;
  // like Register, only safe at wiring/quiescent points, never during concurrent
  // Calls.
  void Unregister(const std::string& endpoint);
  bool HasEndpoint(const std::string& endpoint) const;

  // Synchronous request/response. Throws EndpointNotFoundError for unknown endpoints;
  // with a fault injector attached, also TimeoutError (drop / reply lost) and
  // EndpointCrashedError (callee down until restarted). Injected corruption is
  // delivered, not thrown: the AEAD channels at the endpoints detect it.
  std::vector<uint8_t> Call(const std::string& from, const std::string& to,
                            std::span<const uint8_t> payload) {
    return Call(from, to, payload, {});
  }
  // A gathered call: the request is head ++ body, sent as one message of their summed
  // size but never joined in memory (a stripe push hands its header and the sealed
  // snapshot this way). Stats, trace and faults are those of the contiguous call; only
  // an injected request corruption joins the two into a copy, which it then flips.
  std::vector<uint8_t> Call(const std::string& from, const std::string& to,
                            std::span<const uint8_t> head, std::span<const uint8_t> body);

  // Both optional and non-owning. The clock absorbs injected delays so retry
  // deadlines see them.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  void set_clock(VirtualClock* clock) { clock_ = clock; }

  // Per-endpoint-pair traffic breakdown (keyed "from->to"). All of these are
  // adversary-visible wire facts, so recording them is leakage-free by definition.
  struct PairStats {
    uint64_t messages = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t retries = 0;   // resends on this pair (RecordRetry(from, to))
    uint64_t timeouts = 0;  // calls on this pair that ended without a reply
  };

  struct Stats {
    uint64_t messages = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Robustness observability.
    uint64_t retries = 0;          // resends performed by retry loops (RecordRetry)
    uint64_t timeouts = 0;         // calls that ended without a reply
    uint64_t faults_injected = 0;  // fault decisions that fired
    uint64_t recoveries = 0;       // component restore/rebuild events (RecordRecovery)
    // Per-pair breakdown; the aggregate fields above stay the sums over pairs (plus
    // recoveries/faults, which are per-component rather than per-pair events).
    std::map<std::string, PairStats> per_pair;
  };
  // Callers read stats at quiescent points (between epochs / after a run); the
  // returned reference aliases live state, so don't hold it across concurrent Calls.
  const Stats& stats() const { return stats_; }
  void ResetStats() {
    std::lock_guard<std::mutex> g(stats_mu_);
    stats_ = Stats{};
  }

  static std::string PairKey(const std::string& from, const std::string& to) {
    return from + "->" + to;
  }

  // Bumped by the owning orchestrator's retry/recovery code, which is where those
  // events are visible. Safe from concurrent epoch workers.
  void RecordRetry(const std::string& from, const std::string& to) {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.retries;
    ++stats_.per_pair[PairKey(from, to)].retries;
  }
  void RecordRecovery() {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.recoveries;
  }

  // Publishes a snapshot of the stats block into `registry` as gauges
  // (snoopy_net_* series, per-pair series labeled pair="from->to").
  void ExportTo(MetricsRegistry& registry) const;

 private:
  // Endpoint registration happens during wiring, strictly before concurrent Calls;
  // the map is read-only afterwards, so lookups take no lock. The stats block is the
  // shared-mutation hot spot: guarded by stats_mu_, never held across a handler call.
  std::map<std::string, GatherHandler> endpoints_;
  mutable std::mutex stats_mu_;
  Stats stats_;
  FaultInjector* fault_injector_ = nullptr;
  VirtualClock* clock_ = nullptr;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_NET_NETWORK_H_
