#include "src/net/fault.h"

namespace snoopy {

namespace {

uint64_t FnvHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string FaultInjector::ComponentOf(const std::string& endpoint) {
  const size_t first = endpoint.find('/');
  if (first == std::string::npos) {
    return endpoint;
  }
  const size_t second = endpoint.find('/', first + 1);
  return second == std::string::npos ? endpoint : endpoint.substr(0, second);
}

void FaultInjector::SetProfile(const std::string& component, const FaultProfile& profile) {
  std::lock_guard<std::mutex> g(mu_);
  profiles_[component] = profile;
}

const FaultProfile& FaultInjector::ProfileFor(const std::string& endpoint) const {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = profiles_.find(ComponentOf(endpoint));
  return it == profiles_.end() ? default_profile_ : it->second;
}

Rng& FaultInjector::StreamFor(const std::string& target) {
  const auto it = streams_.find(target);
  if (it != streams_.end()) {
    return it->second;
  }
  return streams_.try_emplace(target, Mix64(seed_ ^ FnvHash(target))).first->second;
}

bool FaultInjector::Flip(Rng& rng, double probability) {
  if (probability <= 0) {
    return false;
  }
  // 53-bit uniform in [0, 1); plenty of resolution for test probabilities.
  const double u = static_cast<double>(rng.Next64() >> 11) / 9007199254740992.0;
  return u < probability;
}

FaultAction FaultInjector::Decide(const std::string& endpoint) {
  std::lock_guard<std::mutex> g(mu_);
  ++decisions_;
  const auto pit = profiles_.find(ComponentOf(endpoint));
  const FaultProfile& p = pit == profiles_.end() ? default_profile_ : pit->second;
  Rng& rng = StreamFor(endpoint);
  FaultAction action = FaultAction::kNone;
  if (Flip(rng, p.drop)) {
    action = FaultAction::kDrop;
  } else if (Flip(rng, p.duplicate)) {
    action = FaultAction::kDuplicate;
  } else if (Flip(rng, p.corrupt)) {
    action = rng.Uniform(2) == 0 ? FaultAction::kCorruptRequest : FaultAction::kCorruptReply;
  } else if (Flip(rng, p.crash_before_reply)) {
    action = FaultAction::kCrashBeforeReply;
  } else if (Flip(rng, p.delay)) {
    action = FaultAction::kDelay;
  } else if (Flip(rng, p.node_loss)) {
    // Drawn last so enabling node loss leaves the existing fault kinds' draw
    // sequences untouched (Flip consumes no randomness at probability zero).
    action = FaultAction::kNodeLoss;
  }
  if (action != FaultAction::kNone) {
    fired_log_.push_back(FiredDecision{endpoint, action, /*epoch_crash=*/false});
  }
  return action;
}

bool FaultInjector::PollEpochCrash(const std::string& component) {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = profiles_.find(component);
  const FaultProfile& p = it == profiles_.end() ? default_profile_ : it->second;
  if (!Flip(StreamFor(component), p.crash_at_epoch_start)) {
    return false;
  }
  crashed_.insert(component);
  fired_log_.push_back(
      FiredDecision{component, FaultAction::kCrashBeforeReply, /*epoch_crash=*/true});
  return true;
}

bool FaultInjector::PollNodeLoss(const std::string& component) {
  std::lock_guard<std::mutex> g(mu_);
  if (lost_.count(component) != 0) {
    return false;  // already lost; no draw, so streams stay deterministic
  }
  const auto it = profiles_.find(component);
  const FaultProfile& p = it == profiles_.end() ? default_profile_ : it->second;
  if (!Flip(StreamFor(component), p.node_loss_at_epoch_start)) {
    return false;
  }
  lost_.insert(component);
  fired_log_.push_back(FiredDecision{component, FaultAction::kNodeLoss, /*epoch_crash=*/true});
  return true;
}

uint64_t FaultInjector::fired_count(FaultAction action) const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const FiredDecision& d : fired_log_) {
    if (!d.epoch_crash && d.action == action) {
      ++n;
    }
  }
  return n;
}

uint64_t FaultInjector::fired_epoch_crashes() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const FiredDecision& d : fired_log_) {
    if (d.epoch_crash) {
      ++n;
    }
  }
  return n;
}

bool FaultInjector::IsCrashed(const std::string& endpoint) const {
  std::lock_guard<std::mutex> g(mu_);
  return crashed_.count(ComponentOf(endpoint)) != 0;
}

bool FaultInjector::IsLost(const std::string& endpoint) const {
  std::lock_guard<std::mutex> g(mu_);
  return lost_.count(ComponentOf(endpoint)) != 0;
}

void FaultInjector::CorruptBit(const std::string& endpoint, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  std::lock_guard<std::mutex> g(mu_);
  const uint64_t bit = StreamFor(endpoint).Uniform(bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

void FaultInjector::CorruptBit(std::vector<uint8_t>& bytes) {
  // Dedicated stream so direct callers (tests corrupting payloads by hand) don't
  // perturb any endpoint's decision sequence.
  CorruptBit("__direct__", bytes);
}

}  // namespace snoopy
