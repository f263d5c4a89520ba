// Bounded retry with exponential backoff, jitter, and a per-call deadline.
//
// Callers of Network::Call use this to turn transient faults (drops, lost replies,
// corrupted payloads) into at-most-deadline-long hiccups instead of epoch-wedging
// exceptions. Two rules keep retries compatible with the security model:
//   1. resends must be byte-identical (sealing a payload twice would advance the
//      channel's nonce counter and desynchronize it), so the retried callable closes
//      over already-sealed bytes;
//   2. time is *virtual* -- the single-process deployment has no wall clock worth
//      sleeping on, and a VirtualClock keeps chaos tests deterministic and instant.

#ifndef SNOOPY_SRC_NET_RETRY_H_
#define SNOOPY_SRC_NET_RETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/crypto/rng.h"
#include "src/net/fault.h"

namespace snoopy {

// Deterministic stand-in for wall-clock time, shared by the network (injected delays)
// and the retry executor (backoff waits). Seconds, monotone. Advance is a CAS loop so
// concurrent epoch workers never lose an advance; the final reading is the sum of all
// advances and therefore independent of interleaving.
class VirtualClock {
 public:
  double now_s() const { return now_s_.load(std::memory_order_relaxed); }
  void Advance(double seconds) {
    if (seconds > 0) {
      double cur = now_s_.load(std::memory_order_relaxed);
      while (!now_s_.compare_exchange_weak(cur, cur + seconds, std::memory_order_relaxed)) {
      }
    }
  }

 private:
  std::atomic<double> now_s_{0};
};

struct RetryPolicy {
  // Total tries of one Execute(), including the first and any made after a recovery
  // round; attempt k follows k-1 retries. This is the bound that keeps a call aimed at
  // an unreachable partition from spinning: it fails with DeadlineExceededError.
  int max_attempts = 6;
  double base_delay_s = 1e-3;  // backoff before the second attempt
  double multiplier = 2.0;     // exponential growth factor
  double max_delay_s = 0.25;   // backoff cap
  double jitter = 0.5;         // fraction of each delay drawn uniformly at random
  // Per-call budget over the executor's *own* backoff waits (not the shared clock):
  // other workers advancing the VirtualClock concurrently must not shrink this call's
  // budget, or retry counts would depend on thread interleaving.
  double deadline_s = 5.0;

  // Backoff before attempt `attempt` (1-based; attempt 1 has none): jittered
  // min(base * multiplier^(attempt-2), max).
  double BackoffSeconds(int attempt, Rng& rng) const;
};

// Runs a callable under a RetryPolicy. Retries NetworkError exceptions with
// retryable() set; everything else propagates immediately. When attempts or the
// deadline run out, throws DeadlineExceededError naming the endpoint of the last
// failure.
class RetryExecutor {
 public:
  // `clock` may be null (a private clock is used); `on_retry` (optional) observes
  // each retry, e.g. to bump Network::Stats.
  RetryExecutor(const RetryPolicy& policy, uint64_t jitter_seed, VirtualClock* clock)
      : policy_(policy), rng_(jitter_seed), clock_(clock) {}

  void set_on_retry(std::function<void()> cb) { on_retry_ = std::move(cb); }

  // Attempts `call` until it returns, a non-retryable error escapes, or the budget is
  // exhausted. `recover` (may be empty) runs before re-attempting after an
  // EndpointCrashedError -- this is where Snoopy restores a crashed subORAM; errors it
  // throws count against the same budget.
  std::vector<uint8_t> Execute(const std::function<std::vector<uint8_t>()>& call,
                               const std::function<void(const EndpointCrashedError&)>& recover);

  int last_attempts() const { return last_attempts_; }

 private:
  RetryPolicy policy_;
  Rng rng_;
  VirtualClock* clock_;
  VirtualClock private_clock_;
  std::function<void()> on_retry_;
  int last_attempts_ = 0;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_NET_RETRY_H_
