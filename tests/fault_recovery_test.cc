// Fault injection and crash recovery (paper sections 4.3 and 9).
//
// These tests drive the full Snoopy pipeline through a seeded chaos source --
// message drops, duplicates, bit flips, crash-before-reply, epoch-boundary machine
// crashes -- and assert the three properties the design argues for:
//   1. linearizability of acknowledged operations is preserved under retransmission
//      and crash recovery (the Appendix C order still explains every response),
//   2. a host replaying a stale sealed snapshot is detected (UnsealStatus::kRollback)
//      and refused rather than served,
//   3. the enclaves' *memory* traces are byte-identical with and without message
//      faults: retries change only the communication pattern, which the adversary
//      itself caused and can trivially simulate.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/core/snoopy.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/retry.h"

namespace snoopy {
namespace {

constexpr size_t kValueSize = 16;

std::vector<uint8_t> Val(uint64_t tag) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &tag, 8);
  return v;
}

uint64_t TagOf(const std::vector<uint8_t>& v) {
  uint64_t tag = 0;
  std::memcpy(&tag, v.data(), 8);
  return tag;
}

// ---------------------------------------------------------------------------------
// FaultInjector unit behaviour.
// ---------------------------------------------------------------------------------

TEST(FaultInjector, ComponentOfTakesFirstTwoSegments) {
  EXPECT_EQ(FaultInjector::ComponentOf("suboram/2/from/0"), "suboram/2");
  EXPECT_EQ(FaultInjector::ComponentOf("lb/0/client/7"), "lb/0");
  EXPECT_EQ(FaultInjector::ComponentOf("lb/3"), "lb/3");
  EXPECT_EQ(FaultInjector::ComponentOf("echo"), "echo");
}

TEST(FaultInjector, DecisionsAreSeedDeterministic) {
  FaultProfile chaos;
  chaos.drop = 0.2;
  chaos.duplicate = 0.2;
  chaos.corrupt = 0.2;
  chaos.crash_before_reply = 0.1;
  std::vector<FaultAction> first;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(1234);
    injector.set_default_profile(chaos);
    std::vector<FaultAction> actions;
    for (int i = 0; i < 200; ++i) {
      actions.push_back(injector.Decide("suboram/0/from/0"));
    }
    if (run == 0) {
      first = actions;
    } else {
      EXPECT_EQ(actions, first) << "same seed must replay the same fault sequence";
    }
  }
}

TEST(FaultInjector, CrashedComponentsStayDownUntilRestart) {
  FaultInjector injector(7);
  EXPECT_FALSE(injector.IsCrashed("suboram/1/from/0"));
  injector.MarkCrashed("suboram/1");
  EXPECT_TRUE(injector.IsCrashed("suboram/1/from/0"));
  EXPECT_TRUE(injector.IsCrashed("suboram/1/from/1"));
  EXPECT_FALSE(injector.IsCrashed("suboram/0/from/0"));
  injector.Restart("suboram/1");
  EXPECT_FALSE(injector.IsCrashed("suboram/1/from/0"));
}

TEST(FaultInjector, CorruptBitFlipsExactlyOneBit) {
  FaultInjector injector(9);
  std::vector<uint8_t> bytes(64, 0);
  injector.CorruptBit(bytes);
  int flipped = 0;
  for (const uint8_t b : bytes) {
    flipped += __builtin_popcount(b);
  }
  EXPECT_EQ(flipped, 1);
  std::vector<uint8_t> empty;
  injector.CorruptBit(empty);  // must not crash
}

// ---------------------------------------------------------------------------------
// RetryExecutor unit behaviour.
// ---------------------------------------------------------------------------------

TEST(RetryExecutor, BackoffGrowsAndIsCapped) {
  RetryPolicy policy;
  policy.base_delay_s = 1e-3;
  policy.multiplier = 2.0;
  policy.max_delay_s = 4e-3;
  policy.jitter = 0;  // deterministic for this assertion
  Rng rng(1);
  EXPECT_EQ(policy.BackoffSeconds(1, rng), 0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2, rng), 1e-3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3, rng), 2e-3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4, rng), 4e-3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(7, rng), 4e-3) << "capped at max_delay_s";
}

TEST(RetryExecutor, RetriesTransientFaultsUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  VirtualClock clock;
  RetryExecutor executor(policy, /*jitter_seed=*/3, &clock);
  int retries_observed = 0;
  executor.set_on_retry([&] { ++retries_observed; });
  int calls = 0;
  const std::vector<uint8_t> out = executor.Execute(
      [&]() -> std::vector<uint8_t> {
        if (++calls < 3) {
          throw TimeoutError("suboram/0/from/0");
        }
        return {42};
      },
      nullptr);
  EXPECT_EQ(out, std::vector<uint8_t>{42});
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries_observed, 2);
  EXPECT_EQ(executor.last_attempts(), 3);
  EXPECT_GT(clock.now_s(), 0) << "backoff must consume virtual time";
}

TEST(RetryExecutor, NonRetryableErrorsPropagateImmediately) {
  RetryPolicy policy;
  VirtualClock clock;
  RetryExecutor executor(policy, 3, &clock);
  int calls = 0;
  EXPECT_THROW(executor.Execute(
                   [&]() -> std::vector<uint8_t> {
                     ++calls;
                     throw EndpointNotFoundError("nope");
                   },
                   nullptr),
               EndpointNotFoundError);
  EXPECT_EQ(calls, 1);
}

TEST(RetryExecutor, ExhaustionThrowsDeadlineExceeded) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  VirtualClock clock;
  RetryExecutor executor(policy, 3, &clock);
  try {
    executor.Execute([&]() -> std::vector<uint8_t> { throw TimeoutError("suboram/1/from/0"); },
                     nullptr);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.endpoint(), "suboram/1/from/0");
    EXPECT_FALSE(e.retryable());
  }
}

TEST(RetryExecutor, CrashRunsRecoveryBeforeRetrying) {
  RetryPolicy policy;
  VirtualClock clock;
  RetryExecutor executor(policy, 3, &clock);
  bool recovered = false;
  const std::vector<uint8_t> out = executor.Execute(
      [&]() -> std::vector<uint8_t> {
        if (!recovered) {
          throw EndpointCrashedError("suboram/0/from/0");
        }
        return {7};
      },
      [&](const EndpointCrashedError& e) {
        EXPECT_EQ(e.endpoint(), "suboram/0/from/0");
        recovered = true;
      });
  EXPECT_EQ(out, std::vector<uint8_t>{7});
  EXPECT_TRUE(recovered);
}

// ---------------------------------------------------------------------------------
// Network-level fault delivery.
// ---------------------------------------------------------------------------------

TEST(NetworkFaults, DropSurfacesAsTimeoutAndCounts) {
  Network net;
  FaultInjector injector(5);
  FaultProfile all_drop;
  all_drop.drop = 1.0;
  injector.set_default_profile(all_drop);
  net.set_fault_injector(&injector);
  int handled = 0;
  net.Register("echo", [&](std::span<const uint8_t> in) {
    ++handled;
    return std::vector<uint8_t>(in.begin(), in.end());
  });
  EXPECT_THROW(net.Call("client", "echo", std::vector<uint8_t>{1}), TimeoutError);
  EXPECT_EQ(handled, 0) << "a dropped request never reaches the handler";
  EXPECT_EQ(net.stats().timeouts, 1u);
  EXPECT_EQ(net.stats().faults_injected, 1u);
  EXPECT_EQ(net.stats().messages, 1u) << "the send itself is still adversary-visible";
}

TEST(NetworkFaults, CrashBeforeReplyExecutesThenGoesDark) {
  Network net;
  FaultInjector injector(5);
  FaultProfile crash;
  crash.crash_before_reply = 1.0;
  injector.SetProfile("suboram/0", crash);
  net.set_fault_injector(&injector);
  int handled = 0;
  net.Register("suboram/0/from/0", [&](std::span<const uint8_t> in) {
    ++handled;
    return std::vector<uint8_t>(in.begin(), in.end());
  });
  EXPECT_THROW(net.Call("lb/0", "suboram/0/from/0", std::vector<uint8_t>{1}), TimeoutError);
  EXPECT_EQ(handled, 1) << "the work happened; only the reply was lost";
  // The component is now down: every endpoint it owns answers EndpointCrashedError.
  EXPECT_THROW(net.Call("lb/0", "suboram/0/from/0", std::vector<uint8_t>{1}),
               EndpointCrashedError);
  EXPECT_EQ(handled, 1);
  injector.Restart("suboram/0");
  injector.SetProfile("suboram/0", FaultProfile{});  // stop crashing it on every call
  EXPECT_EQ(net.Call("lb/0", "suboram/0/from/0", std::vector<uint8_t>{1}),
            std::vector<uint8_t>{1});
}

TEST(NetworkFaults, DuplicateDeliversTwice) {
  Network net;
  FaultInjector injector(5);
  FaultProfile dup;
  dup.duplicate = 1.0;
  injector.set_default_profile(dup);
  net.set_fault_injector(&injector);
  int handled = 0;
  net.Register("echo", [&](std::span<const uint8_t> in) {
    ++handled;
    return std::vector<uint8_t>(in.begin(), in.end());
  });
  net.Call("client", "echo", std::vector<uint8_t>{1});
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(net.stats().messages, 2u);
}

TEST(NetworkFaults, DelayAdvancesTheSharedClock) {
  Network net;
  FaultInjector injector(5);
  VirtualClock clock;
  FaultProfile slow;
  slow.delay = 1.0;
  slow.delay_s = 0.25;
  injector.set_default_profile(slow);
  net.set_fault_injector(&injector);
  net.set_clock(&clock);
  net.Register("echo", [](std::span<const uint8_t> in) {
    return std::vector<uint8_t>(in.begin(), in.end());
  });
  net.Call("client", "echo", std::vector<uint8_t>{1});
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.25);
}

// ---------------------------------------------------------------------------------
// Full-pipeline chaos: linearizability of acknowledged operations under faults.
// ---------------------------------------------------------------------------------

struct Op {
  uint32_t lb;
  uint64_t seq;
  uint64_t key;
  bool is_write;
  uint64_t write_tag;
};

// Applies Appendix C's linearization (epoch, lb, reads-first, arrival) to a reference
// store and returns the predicted response tag per op seq.
std::map<uint64_t, uint64_t> PredictResponses(const std::vector<std::vector<Op>>& epochs,
                                              uint32_t num_lbs) {
  std::map<uint64_t, uint64_t> state;
  std::map<uint64_t, uint64_t> predicted;
  for (const std::vector<Op>& epoch_ops : epochs) {
    for (uint32_t lb = 0; lb < num_lbs; ++lb) {
      for (const Op& op : epoch_ops) {
        if (op.lb == lb) {
          predicted[op.seq] = state.count(op.key) != 0 ? state[op.key] : 0;
        }
      }
      std::map<uint64_t, uint64_t> last_write;
      for (const Op& op : epoch_ops) {
        if (op.lb == lb && op.is_write) {
          last_write[op.key] = op.write_tag;
        }
      }
      for (const auto& [key, tag] : last_write) {
        state[key] = tag;
      }
    }
  }
  return predicted;
}

TEST(FaultRecovery, ChaosRunPreservesLinearizability) {
  // The full gauntlet, repeated for several seeds: message drops, duplicates, bit
  // flips, crash-before-reply (mid-epoch subORAM crashes with sealed-snapshot
  // recovery and epoch replay), and epoch-boundary crashes of both machine kinds.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SnoopyConfig cfg;
    cfg.num_load_balancers = 2;
    cfg.num_suborams = 3;
    cfg.value_size = kValueSize;
    cfg.lambda = 40;
    auto store = std::make_unique<Snoopy>(cfg, seed + 100);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 20; ++k) {
      objects.emplace_back(k, Val(0));
    }
    store->Initialize(objects);

    FaultInjector injector(seed);
    FaultProfile chaos;
    chaos.drop = 0.08;
    chaos.duplicate = 0.08;
    chaos.corrupt = 0.05;
    chaos.crash_before_reply = 0.03;
    chaos.delay = 0.05;
    chaos.delay_s = 0.01;
    chaos.crash_at_epoch_start = 0.05;
    injector.set_default_profile(chaos);
    store->set_fault_injector(&injector);

    Rng rng(seed * 77 + 1);
    std::vector<std::vector<Op>> history;
    std::map<uint64_t, uint64_t> observed;
    uint64_t seq = 1;
    uint64_t next_tag = 1;
    for (int epoch = 0; epoch < 8; ++epoch) {
      std::vector<Op> ops;
      const size_t n = 1 + rng.Uniform(20);
      for (size_t i = 0; i < n; ++i) {
        Op op;
        op.lb = static_cast<uint32_t>(rng.Uniform(cfg.num_load_balancers));
        op.seq = seq++;
        op.key = rng.Uniform(20);
        op.is_write = rng.Uniform(2) == 0;
        op.write_tag = op.is_write ? next_tag++ : 0;
        ops.push_back(op);
        if (op.is_write) {
          store->SubmitWriteWithLb(op.lb, op.lb, op.seq, op.key, Val(op.write_tag));
        } else {
          store->SubmitReadWithLb(op.lb, op.lb, op.seq, op.key);
        }
      }
      for (const ClientResponse& resp : store->RunEpoch()) {
        observed[resp.client_seq] = TagOf(resp.value);
      }
      history.push_back(ops);
    }

    const std::map<uint64_t, uint64_t> predicted =
        PredictResponses(history, cfg.num_load_balancers);
    ASSERT_EQ(observed.size(), predicted.size()) << "seed=" << seed;
    for (const auto& [s, tag] : predicted) {
      ASSERT_EQ(observed[s], tag)
          << "seed=" << seed << " seq=" << s
          << ": acknowledged response violates the Appendix C linearization under faults";
    }
    const Network::Stats& stats = store->network().stats();
    EXPECT_GT(stats.faults_injected, 0u) << "seed=" << seed << ": chaos did not bite";
    EXPECT_GT(stats.retries, 0u) << "seed=" << seed;
    EXPECT_GT(store->clock().now_s(), 0) << "seed=" << seed
                                         << ": backoff/delays consume virtual time";
  }
}

TEST(FaultRecovery, SubOramCrashRecoversAcrossEpochState) {
  // Deterministic crash: the subORAM component is down when the epoch's first call
  // reaches it. Recovery restores the sealed pre-epoch snapshot and the epoch retries
  // cleanly; writes committed in earlier epochs survive the crash.
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 2;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 9);
  store->Initialize({{1, Val(0)}, {2, Val(0)}, {3, Val(0)}});

  FaultInjector injector(9);
  store->set_fault_injector(&injector);

  store->SubmitWriteWithLb(0, 1, 1, 1, Val(11));
  store->SubmitWriteWithLb(1, 1, 2, 2, Val(22));
  store->RunEpoch();

  injector.MarkCrashed("suboram/0");
  injector.MarkCrashed("suboram/1");
  store->SubmitReadWithLb(0, 1, 3, 1);
  store->SubmitReadWithLb(1, 1, 4, 2);
  std::map<uint64_t, uint64_t> observed;
  for (const ClientResponse& resp : store->RunEpoch()) {
    observed[resp.client_seq] = TagOf(resp.value);
  }
  EXPECT_EQ(observed[3], 11u) << "epoch-0 write must survive the crash";
  EXPECT_EQ(observed[4], 22u);
  EXPECT_GE(store->network().stats().recoveries, 2u);
}

TEST(FaultRecovery, LoadBalancerCrashIsRebuiltStatelessly) {
  // A load balancer found crashed at the epoch boundary is rebuilt from config alone
  // (section 4.3); the rebuilt instance re-prepares from the per-(lb, epoch) seed, so
  // the epoch proceeds and responses stay correct.
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 2;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 10);
  store->Initialize({{1, Val(0)}, {2, Val(0)}});

  FaultInjector injector(10);
  FaultProfile reboot;
  reboot.crash_at_epoch_start = 1.0;  // crash at every epoch boundary
  injector.SetProfile("lb/0", reboot);
  store->set_fault_injector(&injector);

  store->SubmitWriteWithLb(0, 1, 1, 1, Val(5));
  store->RunEpoch();
  store->SubmitReadWithLb(0, 1, 2, 1);
  const auto resp = store->RunEpoch();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(TagOf(resp[0].value), 5u);
  EXPECT_GE(store->network().stats().recoveries, 2u);
}

// ---------------------------------------------------------------------------------
// Rollback protection during recovery.
// ---------------------------------------------------------------------------------

TEST(FaultRecovery, StaleSnapshotReplayIsRefusedAsRollback) {
  SnoopyConfig cfg;
  cfg.num_suborams = 1;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 11);
  store->Initialize({{1, Val(0)}});

  FaultInjector injector(11);
  store->set_fault_injector(&injector);

  // Capture the snapshot sealed at this epoch boundary, then let later epochs bump
  // the trusted counter past it.
  store->SubmitWrite(1, 1, 1, Val(1));
  store->RunEpoch();
  const std::vector<uint8_t> stale = store->suboram_snapshot(0);
  store->SubmitWrite(1, 2, 1, Val(2));
  store->RunEpoch();

  // Malicious host: crash the subORAM and offer the superseded snapshot. Recovery
  // must refuse (kRollback) instead of silently reviving old state.
  store->host_replace_snapshot(0, stale);
  injector.MarkCrashed("suboram/0");
  store->SubmitRead(1, 3, 1);
  try {
    store->RunEpoch();
    FAIL() << "expected RollbackDetectedError";
  } catch (const RollbackDetectedError& e) {
    EXPECT_EQ(e.status(), UnsealStatus::kRollback);
  }
}

TEST(FaultRecovery, TamperedSnapshotIsRefusedAsCorrupt) {
  SnoopyConfig cfg;
  cfg.num_suborams = 1;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 12);
  store->Initialize({{1, Val(0)}});

  FaultInjector injector(12);
  store->set_fault_injector(&injector);

  store->SubmitWrite(1, 1, 1, Val(1));
  store->RunEpoch();
  std::vector<uint8_t> tampered = store->suboram_snapshot(0);
  ASSERT_FALSE(tampered.empty());
  tampered[tampered.size() / 2] ^= 0x01;
  store->host_replace_snapshot(0, std::move(tampered));
  injector.MarkCrashed("suboram/0");
  store->SubmitRead(1, 2, 1);
  try {
    store->RunEpoch();
    FAIL() << "expected RollbackDetectedError";
  } catch (const RollbackDetectedError& e) {
    EXPECT_EQ(e.status(), UnsealStatus::kCorrupt);
  }
}

// ---------------------------------------------------------------------------------
// Obliviousness: message faults must not change any enclave's memory trace.
// ---------------------------------------------------------------------------------

TEST(FaultRecovery, MemoryTraceIdenticalWithAndWithoutMessageFaults) {
  // Same seed, same workload, single-threaded sorts; one run clean, one run under
  // drops/duplicates/corruption/delays (no crashes: recovery legitimately re-executes
  // batches, which the adversary sees anyway when it kills a machine). The *memory*
  // subsequence of the trace must be byte-identical; only the communication pattern
  // (extra sends the adversary itself caused) may differ.
  auto run = [](bool with_faults) -> std::pair<uint64_t, uint64_t> {
    SnoopyConfig cfg;
    cfg.num_load_balancers = 2;
    cfg.num_suborams = 2;
    cfg.value_size = kValueSize;
    cfg.lambda = 40;
    auto store = std::make_unique<Snoopy>(cfg, 21);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 16; ++k) {
      objects.emplace_back(k, Val(0));
    }
    store->Initialize(objects);

    FaultInjector injector(33);
    if (with_faults) {
      FaultProfile chaos;
      chaos.drop = 0.15;
      chaos.duplicate = 0.15;
      chaos.corrupt = 0.1;
      chaos.delay = 0.1;
      chaos.delay_s = 0.01;
      injector.set_default_profile(chaos);
      store->set_fault_injector(&injector);
    }

    Rng rng(55);
    TraceScope scope;
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int i = 0; i < 12; ++i) {
        const auto lb = static_cast<uint32_t>(rng.Uniform(2));
        const uint64_t key = rng.Uniform(16);
        if (rng.Uniform(2) == 0) {
          store->SubmitWriteWithLb(lb, 1, epoch * 100 + i, key, Val(key + 1));
        } else {
          store->SubmitReadWithLb(lb, 1, epoch * 100 + i, key);
        }
      }
      store->RunEpoch();
    }
    const uint64_t faults = store->network().stats().faults_injected;
    return {MemoryTraceDigest(scope.Events()), faults};
  };

  const auto [clean_digest, clean_faults] = run(false);
  const auto [chaos_digest, chaos_faults] = run(true);
  EXPECT_EQ(clean_faults, 0u);
  ASSERT_GT(chaos_faults, 0u) << "the chaos run must actually inject faults";
  EXPECT_EQ(chaos_digest, clean_digest)
      << "message faults changed an enclave memory trace: retransmission is leaking";
}

}  // namespace
}  // namespace snoopy
