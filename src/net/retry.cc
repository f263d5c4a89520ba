#include "src/net/retry.h"

#include <algorithm>

namespace snoopy {

double RetryPolicy::BackoffSeconds(int attempt, Rng& rng) const {
  if (attempt <= 1) {
    return 0;
  }
  double delay = base_delay_s;
  for (int i = 2; i < attempt; ++i) {
    delay *= multiplier;
    if (delay >= max_delay_s) {
      break;
    }
  }
  delay = std::min(delay, max_delay_s);
  if (jitter > 0) {
    const double u = static_cast<double>(rng.Next64() >> 11) / 9007199254740992.0;
    delay *= 1.0 - jitter * u;  // full delay down to (1 - jitter) * delay
  }
  return delay;
}

std::vector<uint8_t> RetryExecutor::Execute(
    const std::function<std::vector<uint8_t>()>& call,
    const std::function<void(const EndpointCrashedError&)>& recover) {
  VirtualClock* clock = clock_ != nullptr ? clock_ : &private_clock_;
  // The deadline is accounted against this call's own backoff waits, not against
  // elapsed shared-clock time: concurrent workers (and injected delays they absorb)
  // advance the shared VirtualClock too, and charging their time here would make
  // retry exhaustion depend on thread interleaving.
  double waited_s = 0;
  std::string last_endpoint;
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    last_attempts_ = attempt;
    if (attempt > 1) {
      const double backoff_s = policy_.BackoffSeconds(attempt, rng_);
      clock->Advance(backoff_s);
      waited_s += backoff_s;
      if (waited_s > policy_.deadline_s) {
        break;
      }
      if (on_retry_) {
        on_retry_();
      }
    }
    try {
      return call();
    } catch (const EndpointCrashedError& e) {
      last_endpoint = e.endpoint();
      if (recover) {
        // Recovery failures (e.g. a crash re-injected mid-restore) are themselves
        // NetworkErrors and consume an attempt like any other transient fault.
        try {
          recover(e);
        } catch (const NetworkError& inner) {
          if (!inner.retryable()) {
            throw;
          }
          last_endpoint = inner.endpoint();
        }
      }
    } catch (const NetworkError& e) {
      if (!e.retryable()) {
        throw;
      }
      last_endpoint = e.endpoint();
    }
  }
  throw DeadlineExceededError(last_endpoint, last_attempts_);
}

}  // namespace snoopy
