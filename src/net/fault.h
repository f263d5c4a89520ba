// Typed network failures and deterministic fault injection.
//
// The paper's operability argument (sections 4.3 and 9) rests on components that
// tolerate the network misbehaving: load balancers are stateless across epochs and
// subORAM state can be resealed and restored under rollback protection. This header
// makes failure a first-class, *testable* input: a seeded FaultInjector decides, per
// Network::Call, whether the message is dropped, delayed, duplicated, corrupted, or
// whether the callee crashes before replying -- and a NetworkError hierarchy gives
// callers enough structure to retry, recover, or surface each case deliberately.
//
// Determinism matters: the injector derives one CSPRNG *stream per target* from its
// seed, so every decision is a pure function of (seed, target, per-target call index).
// That invariant is what lets the parallel epoch executor run subORAM workers
// concurrently without changing which faults fire: each endpoint's call sequence is
// deterministic within its worker, and no other thread's draws can perturb its
// stream. Chaos runs replay exactly at any epoch_threads setting, and the
// chaos-reconciliation telemetry test keeps balancing to the decision.
//
// Thread safety: all mutating entry points are mutex-guarded; Decide/PollEpochCrash/
// CorruptBit may be called from concurrent epoch workers.

#ifndef SNOOPY_SRC_NET_FAULT_H_
#define SNOOPY_SRC_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/crypto/rng.h"

namespace snoopy {

// ---------------------------------------------------------------------------------
// Typed error hierarchy. Every failure Network::Call can produce derives from
// NetworkError and carries the endpoint it concerns; `retryable()` tells a retry loop
// whether resending the same bytes can possibly help.
// ---------------------------------------------------------------------------------

class NetworkError : public std::runtime_error {
 public:
  NetworkError(const std::string& what, std::string endpoint, bool retryable)
      : std::runtime_error(what), endpoint_(std::move(endpoint)), retryable_(retryable) {}

  const std::string& endpoint() const { return endpoint_; }
  bool retryable() const { return retryable_; }

 private:
  std::string endpoint_;
  bool retryable_;
};

// No handler is registered under the name: a wiring bug, never transient.
class EndpointNotFoundError : public NetworkError {
 public:
  explicit EndpointNotFoundError(const std::string& endpoint)
      : NetworkError("unknown endpoint: " + endpoint, endpoint, /*retryable=*/false) {}
};

// The request or its reply was lost; the caller cannot tell which. Retryable --
// callers must resend byte-identical payloads so the receiver can deduplicate.
class TimeoutError : public NetworkError {
 public:
  explicit TimeoutError(const std::string& endpoint)
      : NetworkError("timed out calling " + endpoint, endpoint, /*retryable=*/true) {}
};

// The component owning the endpoint has crashed and answers nothing until it is
// restarted. Retryable only after recovery; Snoopy's epoch loop catches this
// specifically and runs the sealed-snapshot restore protocol.
class EndpointCrashedError : public NetworkError {
 public:
  explicit EndpointCrashedError(const std::string& endpoint)
      : NetworkError("endpoint crashed: " + endpoint, endpoint, /*retryable=*/true) {}
};

// Payload failed authentication (AEAD open) at either end: flipped bits in flight.
// Retryable -- the sender's copy is intact and channel counters only advance on
// successful opens, so a byte-identical resend authenticates.
class IntegrityError : public NetworkError {
 public:
  explicit IntegrityError(const std::string& endpoint)
      : NetworkError("payload failed authentication at " + endpoint, endpoint,
                     /*retryable=*/true) {}
};

// A retry loop exhausted its per-call deadline or attempt budget. Terminal.
class DeadlineExceededError : public NetworkError {
 public:
  DeadlineExceededError(const std::string& endpoint, int attempts)
      : NetworkError("deadline exceeded after " + std::to_string(attempts) +
                         " attempts calling " + endpoint,
                     endpoint, /*retryable=*/false) {}
};

// The component owning the endpoint is *permanently* gone: the machine failed for
// good and took its local state with it. Unlike EndpointCrashedError this is not
// retryable and no restart will help -- only the repair protocol (reconstructing the
// partition from redundant stripes on a spare node) brings the component back.
class NodeLostError : public NetworkError {
 public:
  explicit NodeLostError(const std::string& endpoint)
      : NetworkError("node permanently lost: " + endpoint, endpoint, /*retryable=*/false) {}
};

// A request targets a partition that is permanently lost or still under repair. The
// orchestrator fails the request over to the epoch queue (it re-enters a later epoch)
// instead of letting a retry loop spin against a dead machine. Carries the partition
// id and the public number of repair epochs remaining.
class PartitionUnavailableError : public NetworkError {
 public:
  PartitionUnavailableError(const std::string& endpoint, uint32_t partition,
                            uint32_t repair_epochs_remaining)
      : NetworkError("partition " + std::to_string(partition) + " unavailable (" +
                         std::to_string(repair_epochs_remaining) +
                         " repair epochs remaining) at " + endpoint,
                     endpoint, /*retryable=*/false),
        partition_(partition),
        repair_epochs_remaining_(repair_epochs_remaining) {}

  uint32_t partition() const { return partition_; }
  uint32_t repair_epochs_remaining() const { return repair_epochs_remaining_; }

 private:
  uint32_t partition_;
  uint32_t repair_epochs_remaining_;
};

// ---------------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------------

// Per-call fault probabilities. Probabilities are evaluated in the declared order and
// at most one fault fires per call.
struct FaultProfile {
  double drop = 0;                // request lost before delivery
  double duplicate = 0;           // delivered twice (handler may run twice)
  double corrupt = 0;             // one bit of the request or reply flipped in flight
  double crash_before_reply = 0;  // callee processes the request, then dies; reply lost
  double delay = 0;               // delivery delayed by `delay_s` on the virtual clock
  double delay_s = 0;             // virtual seconds added when a delay fires
  // Probability, polled once per component per epoch by the orchestrator, that the
  // component is found crashed at the epoch boundary (models host reboots between
  // epochs rather than mid-message).
  double crash_at_epoch_start = 0;
  // Permanent loss: the machine dies mid-call (the request may have been processed;
  // the reply is lost) and never comes back -- its component stays lost until
  // Reincarnate() (the repair protocol's completion), not Restart().
  double node_loss = 0;
  // Permanent-loss analogue of crash_at_epoch_start, polled once per component per
  // epoch via PollNodeLoss (models a machine found dead between epochs).
  double node_loss_at_epoch_start = 0;
};

enum class FaultAction : uint8_t {
  kNone = 0,
  kDrop,
  kDuplicate,
  kCorruptRequest,
  kCorruptReply,
  kCrashBeforeReply,
  kDelay,
  kNodeLoss,
};

// Seeded chaos source consulted by Network::Call. Profiles attach to *components*
// (e.g. "suboram/2"), which own every endpoint sharing their first two path segments
// (e.g. "suboram/2/from/0"); a default profile covers the rest. Crashed components
// stay down until Restart() -- recovery code calls Restart after restoring state.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  // "suboram/2/from/1" -> "suboram/2"; names with fewer than two segments map to
  // themselves.
  static std::string ComponentOf(const std::string& endpoint);

  void set_default_profile(const FaultProfile& profile) { default_profile_ = profile; }
  void SetProfile(const std::string& component, const FaultProfile& profile);
  const FaultProfile& ProfileFor(const std::string& endpoint) const;

  // Draws the fault (if any) for one delivery to `endpoint`, from the endpoint's own
  // deterministic stream. Corruption picks request vs. reply direction with a fair
  // coin (same stream).
  FaultAction Decide(const std::string& endpoint);

  // Epoch-boundary crash poll for a component (load balancer or subORAM); marks the
  // component crashed when the draw fires so the caller must recover it. Draws from
  // the component's stream.
  bool PollEpochCrash(const std::string& component);

  // Epoch-boundary permanent-loss poll. Marks the component lost when the draw fires
  // (drawn from the component's stream, after the crash poll's draw). Returns false
  // without drawing when the component is already lost.
  bool PollNodeLoss(const std::string& component);

  bool IsCrashed(const std::string& endpoint) const;
  void MarkCrashed(const std::string& component) {
    std::lock_guard<std::mutex> g(mu_);
    crashed_.insert(component);
  }
  // Restart clears a transient crash only: a permanently lost component stays lost --
  // restoring a sealed snapshot needs a machine, and the machine is gone.
  void Restart(const std::string& component) {
    std::lock_guard<std::mutex> g(mu_);
    crashed_.erase(component);
  }

  // --- Permanent loss --------------------------------------------------------------
  bool IsLost(const std::string& endpoint) const;
  void MarkLost(const std::string& component) {
    std::lock_guard<std::mutex> g(mu_);
    lost_.insert(component);
  }
  // Completes the repair protocol's replacement: the spare machine assumes the lost
  // component's identity, clearing both the lost and (any stale) crashed marks.
  void Reincarnate(const std::string& component) {
    std::lock_guard<std::mutex> g(mu_);
    lost_.erase(component);
    crashed_.erase(component);
  }

  // Flips one uniformly chosen bit (no-op on empty payloads), drawing the bit index
  // from `endpoint`'s stream so corruption stays deterministic per target under
  // concurrency. The endpoint-less overload draws from a dedicated stream (direct
  // test callers).
  void CorruptBit(const std::string& endpoint, std::vector<uint8_t>& bytes);
  void CorruptBit(std::vector<uint8_t>& bytes);

  double delay_s(const std::string& endpoint) const { return ProfileFor(endpoint).delay_s; }

  uint64_t decisions() const {
    std::lock_guard<std::mutex> g(mu_);
    return decisions_;
  }

  // --- Fired-decision log ----------------------------------------------------------
  // Every decision that actually fired, in firing order: per-call faults (target =
  // endpoint, epoch_crash = false) and epoch-boundary crash polls that hit (target =
  // component, action = kCrashBeforeReply, epoch_crash = true). kNone decisions are
  // not logged. The telemetry tests reconcile Network::Stats and the metrics registry
  // against this log exactly -- each fired fault must account for a fixed number of
  // retries/recoveries/dedup-hits, with no double counting on retransmit dedup.
  struct FiredDecision {
    std::string target;
    FaultAction action = FaultAction::kNone;
    bool epoch_crash = false;
  };
  // Snapshot copy: safe to iterate while workers keep firing. Under parallel epochs
  // the *order* of entries from different targets depends on scheduling, but the
  // per-target subsequences (which the reconciliation test counts) are deterministic.
  std::vector<FiredDecision> fired_log() const {
    std::lock_guard<std::mutex> g(mu_);
    return fired_log_;
  }
  // Fired per-call decisions of one kind (epoch-crash entries excluded).
  uint64_t fired_count(FaultAction action) const;
  uint64_t fired_epoch_crashes() const;

 private:
  static bool Flip(Rng& rng, double probability);
  // The per-target stream, created on first use: seeded from (seed_, target) only, so
  // a target's draw sequence never depends on other targets' traffic. Requires mu_.
  Rng& StreamFor(const std::string& target);

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, Rng> streams_;            // by target (endpoint or component)
  FaultProfile default_profile_;
  std::map<std::string, FaultProfile> profiles_;  // by component
  std::set<std::string> crashed_;                 // components currently down
  std::set<std::string> lost_;                    // components permanently lost
  uint64_t decisions_ = 0;
  std::vector<FiredDecision> fired_log_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_NET_FAULT_H_
