// Permanent subORAM loss, redundant sealed-state striping, background repair, and
// epoch-boundary elastic resharding (DESIGN.md "Failure model and repair").
//
// The properties under test:
//   1. a permanently lost partition is reconstructed from the stripes its peers hold,
//      on a public epoch schedule, with zero lost or stale records -- every
//      acknowledged write before the loss is served after the repair,
//   2. requests addressed to the dead partition fail over to the epoch queue
//      (bounded retries, typed PartitionUnavailable) and complete when the repair
//      does; the other partitions keep serving throughout,
//   3. a malicious host serving stale stripes is refused (rollback protection
//      extends to the redundancy path),
//   4. resharding N -> N+1 -> N preserves every record and, against a twin
//      deployment that never resharded, yields byte-identical responses and enclave
//      memory traces for the steady-state epochs,
//   5. crashes during repair and during reshard either complete or roll back
//      cleanly, identically across epoch thread counts,
//   6. the cluster simulator distinguishes transient crashes from permanent losses
//      and the planner emits elastic schedules for diurnal forecasts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/core/snoopy.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/retry.h"
#include "src/sim/cluster.h"

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

SnoopyConfig StripedConfig(uint32_t lbs, uint32_t sos, uint32_t replicas,
                           bool xor_parity, uint32_t repair_epochs) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = lbs;
  cfg.num_suborams = sos;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.striping.replicas = replicas;
  cfg.striping.xor_parity = xor_parity;
  cfg.striping.repair_epochs = repair_epochs;
  return cfg;
}

// ---------------------------------------------------------------------------------
// RetryPolicy total-retry cap (dead partitions must not spin).
// ---------------------------------------------------------------------------------

TEST(RetryCap, TotalRetriesBoundAttemptsAcrossTheCall) {
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.max_total_retries = 2;
  VirtualClock clock;
  RetryExecutor executor(policy, /*jitter_seed=*/3, &clock);
  int calls = 0;
  EXPECT_THROW(executor.Execute(
                   [&]() -> std::vector<uint8_t> {
                     ++calls;
                     throw TimeoutError("suboram/0/from/0");
                   },
                   nullptr),
               DeadlineExceededError);
  EXPECT_EQ(calls, 3) << "initial attempt + max_total_retries retries";
}

TEST(RetryCap, ZeroMeansUncapped) {
  RetryPolicy policy;
  policy.max_attempts = 7;
  policy.max_total_retries = 0;
  VirtualClock clock;
  RetryExecutor executor(policy, 3, &clock);
  int calls = 0;
  EXPECT_THROW(executor.Execute(
                   [&]() -> std::vector<uint8_t> {
                     ++calls;
                     throw TimeoutError("suboram/0/from/0");
                   },
                   nullptr),
               DeadlineExceededError);
  EXPECT_EQ(calls, 7) << "attempts governed by max_attempts alone";
}

// ---------------------------------------------------------------------------------
// Striping at the epoch seal.
// ---------------------------------------------------------------------------------

TEST(Striping, SealDistributesStripesToSuccessorPeers) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 2), 5);
  store->Initialize({{1, Val(0)}, {2, Val(0)}, {3, Val(0)}});
  // Initialize seals and stripes; every partition's single successor peer holds a
  // full counter-tagged copy.
  for (uint32_t so = 0; so < 3; ++so) {
    const uint32_t peer = (so + 1) % 3;
    const Snoopy::HostStripe* stripe = store->host_stripe(peer, so);
    ASSERT_NE(stripe, nullptr) << "owner " << so;
    EXPECT_GT(stripe->seal_counter, 0u);
    EXPECT_EQ(stripe->chunk_count, 1u) << "replication mode: one full chunk";
    EXPECT_EQ(stripe->blob_len, stripe->payload.size());
    EXPECT_EQ(store->host_stripe(so, so), nullptr) << "no self-stripe";
  }
  // A later seal replaces the stripe with a fresher generation.
  const uint64_t before = store->host_stripe(1, 0)->seal_counter;
  store->SubmitWrite(1, 1, 1, Val(9));
  store->RunEpoch();
  EXPECT_GT(store->host_stripe(1, 0)->seal_counter, before);
}

TEST(Striping, ConstructorRejectsTooFewPeers) {
  EXPECT_THROW(Snoopy(StripedConfig(1, 2, 2, false, 2), 5), std::invalid_argument);
  EXPECT_THROW(Snoopy(StripedConfig(1, 3, 2, true, 2), 5), std::invalid_argument);
  EXPECT_NO_THROW(Snoopy(StripedConfig(1, 4, 2, true, 2), 5));
}

TEST(Striping, LossWithStripingDisabledIsUnrecoverable) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 2, 0, false, 2), 5);
  store->Initialize({{1, Val(0)}});
  EXPECT_THROW(store->LoseSubOram(0), std::runtime_error);
}

TEST(Striping, FetchRangeThatWrapsIsRejected) {
  // The stripe endpoint takes 64-bit offset/len from the wire; a range whose end
  // wraps past 2^64 must be refused, not served from before the stripe buffer.
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 2), 5);
  store->Initialize({{1, Val(0)}, {2, Val(0)}, {3, Val(0)}});
  const Snoopy::HostStripe* stripe = store->host_stripe(/*peer=*/1, /*owner=*/0);
  ASSERT_NE(stripe, nullptr);
  ASSERT_GE(stripe->payload.size(), 32u);
  auto fetch = [&](uint64_t offset, uint64_t len) {
    // Wire header: op(1) owner(4) seal_counter(8) chunk_index(4) chunk_count(4)
    // blob_len(8) offset(8) len(8) digest(32); op 2 is a fetch.
    std::vector<uint8_t> msg(77, 0);
    const uint32_t owner = 0;
    msg[0] = 2;
    std::memcpy(msg.data() + 1, &owner, 4);
    std::memcpy(msg.data() + 5, &stripe->seal_counter, 8);
    std::memcpy(msg.data() + 13, &stripe->chunk_index, 4);
    std::memcpy(msg.data() + 29, &offset, 8);
    std::memcpy(msg.data() + 37, &len, 8);
    return store->network_mutable().Call("suboram/0", "suboram/1/stripe", msg);
  };
  EXPECT_EQ(fetch(0, 32).size(), 32u + 32u) << "digest(32) | slice(len)";
  EXPECT_THROW(fetch(~uint64_t{0} - 15, 32), IntegrityError);
  EXPECT_THROW(fetch(stripe->payload.size() - 16, 32), IntegrityError);
}

// ---------------------------------------------------------------------------------
// Permanent loss, degraded service, and repair on the public schedule.
// ---------------------------------------------------------------------------------

// Shared scenario: write a tag to every key, permanently lose one partition, keep
// submitting one read per key per epoch, and require that (a) reads for healthy
// partitions answer in their own epoch, (b) reads for the dead partition defer and
// answer exactly when the repair completes, and (c) no record is lost or stale.
void RunLossRepairScenario(uint32_t replicas, bool xor_parity, int epoch_threads) {
  const uint32_t kSos = 4;
  const uint32_t kRepairEpochs = 3;
  const uint64_t kKeys = 24;
  SnoopyConfig cfg = StripedConfig(2, kSos, replicas, xor_parity, kRepairEpochs);
  cfg.epoch_threads = epoch_threads;
  auto store = std::make_unique<Snoopy>(cfg, 17);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kKeys; ++k) {
    objects.emplace_back(k, Val(0));
  }
  store->Initialize(objects);

  FaultInjector injector(17);
  store->set_fault_injector(&injector);

  // Epoch 1: acknowledge a distinct tag per key.
  uint64_t seq = 1;
  std::map<uint64_t, uint64_t> seq_to_key;
  for (uint64_t k = 0; k < kKeys; ++k) {
    store->SubmitWrite(1, seq, k, Val(100 + k));
    seq_to_key[seq] = k;
    ++seq;
  }
  ASSERT_EQ(store->RunEpoch().size(), kKeys);

  const uint32_t victim = 1;
  store->LoseSubOram(victim);
  ASSERT_EQ(store->partition_health(victim), Snoopy::PartitionHealth::kRepairing);
  ASSERT_EQ(store->repair_epochs_remaining(victim), kRepairEpochs);

  std::map<uint64_t, uint64_t> observed;  // seq -> tag
  std::map<uint64_t, uint64_t> answered_at_epoch;
  uint64_t submitted = 0;
  for (uint32_t e = 1; e <= kRepairEpochs; ++e) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      store->SubmitRead(1, seq, k);
      seq_to_key[seq] = k;
      ++seq;
      ++submitted;
    }
    for (const ClientResponse& resp : store->RunEpoch()) {
      ASSERT_EQ(observed.count(resp.client_seq), 0u) << "duplicate response";
      observed[resp.client_seq] = TagOf(resp.value);
      answered_at_epoch[resp.client_seq] = e;
    }
    if (e < kRepairEpochs) {
      EXPECT_EQ(store->partition_health(victim), Snoopy::PartitionHealth::kRepairing);
      EXPECT_EQ(store->repair_epochs_remaining(victim), kRepairEpochs - e);
    }
  }
  // The repair completed on schedule and every submitted read has exactly one
  // response with the pre-loss tag: zero lost, zero stale records.
  EXPECT_EQ(store->partition_health(victim), Snoopy::PartitionHealth::kHealthy);
  ASSERT_EQ(observed.size(), submitted);
  for (const auto& [s, tag] : observed) {
    const uint64_t key = seq_to_key[s];
    EXPECT_EQ(tag, 100 + key) << "seq " << s << " key " << key;
    // Healthy-partition reads answer in their own epoch; dead-partition reads defer
    // to the completion epoch.
    if (store->SubOramOf(key) == victim) {
      EXPECT_EQ(answered_at_epoch[s], kRepairEpochs)
          << "dead-partition request must defer to the repair-completion epoch";
    }
  }
  // The scenario exercised both sides of the partition map.
  bool any_victim = false;
  for (uint64_t k = 0; k < kKeys; ++k) {
    any_victim = any_victim || store->SubOramOf(k) == victim;
  }
  ASSERT_TRUE(any_victim) << "test workload never touched the lost partition";
}

TEST(Repair, ReplicationModeRestoresEveryRecordOnSchedule) {
  RunLossRepairScenario(/*replicas=*/1, /*xor_parity=*/false, /*epoch_threads=*/1);
}

TEST(Repair, XorParityModeRestoresEveryRecordOnSchedule) {
  RunLossRepairScenario(/*replicas=*/2, /*xor_parity=*/true, /*epoch_threads=*/1);
}

TEST(Repair, ParallelEpochPipelineRepairsIdentically) {
  RunLossRepairScenario(/*replicas=*/1, /*xor_parity=*/false, /*epoch_threads=*/4);
}

TEST(Repair, ScheduleIsIndependentOfRequestPattern) {
  // The repair rate is public: a partition under repair takes exactly
  // striping.repair_epochs epochs whether the deployment is idle or hammered.
  // (The per-epoch slice size is a function of snapshot geometry alone.)
  for (const bool busy : {false, true}) {
    SnoopyConfig cfg = StripedConfig(2, 3, 1, false, 4);
    auto store = std::make_unique<Snoopy>(cfg, 23);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 16; ++k) {
      objects.emplace_back(k, Val(k));
    }
    store->Initialize(objects);
    FaultInjector injector(23);
    store->set_fault_injector(&injector);
    store->LoseSubOram(0);
    uint64_t seq = 1;
    for (uint32_t e = 0; e < 4; ++e) {
      ASSERT_EQ(store->repair_epochs_remaining(0), 4 - e) << "busy=" << busy;
      if (busy) {
        for (uint64_t k = 0; k < 16; ++k) {
          store->SubmitRead(1, seq++, k);
        }
      }
      store->RunEpoch();
    }
    EXPECT_EQ(store->partition_health(0), Snoopy::PartitionHealth::kHealthy)
        << "busy=" << busy;
  }
}

TEST(Repair, HealthyPartitionsKeepServingWhileDegraded) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 4), 29);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 12; ++k) {
    objects.emplace_back(k, Val(k + 1));
  }
  store->Initialize(objects);
  FaultInjector injector(29);
  store->set_fault_injector(&injector);
  store->LoseSubOram(2);
  uint64_t seq = 1;
  std::map<uint64_t, uint64_t> expected;  // seq -> tag, healthy partitions only
  for (uint64_t k = 0; k < 12; ++k) {
    if (store->SubOramOf(k) != 2) {
      expected[seq] = k + 1;
    }
    store->SubmitRead(1, seq, k);
    ++seq;
  }
  std::map<uint64_t, uint64_t> observed;
  for (const ClientResponse& resp : store->RunEpoch()) {
    observed[resp.client_seq] = TagOf(resp.value);
  }
  ASSERT_EQ(observed.size(), expected.size())
      << "exactly the healthy partitions' requests answer in a degraded epoch";
  for (const auto& [s, tag] : expected) {
    EXPECT_EQ(observed[s], tag);
  }
}

// ---------------------------------------------------------------------------------
// Rollback protection on the redundancy path.
// ---------------------------------------------------------------------------------

TEST(Repair, StaleStripeReplayIsRefusedAsRollback) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 2), 31);
  store->Initialize({{1, Val(0)}, {2, Val(0)}, {3, Val(0)}});
  FaultInjector injector(31);
  store->set_fault_injector(&injector);

  const uint32_t victim = 0;
  const uint32_t peer = 1;  // victim's single stripe peer
  ASSERT_NE(store->host_stripe(peer, victim), nullptr);
  const Snoopy::HostStripe stale = *store->host_stripe(peer, victim);
  // Let a later seal supersede the captured stripe, then play the malicious host.
  store->SubmitWrite(1, 1, 1, Val(7));
  store->RunEpoch();
  ASSERT_GT(store->host_stripe(peer, victim)->seal_counter, stale.seal_counter);
  store->host_replace_stripe(peer, victim, stale);

  store->LoseSubOram(victim);
  try {
    for (int e = 0; e < 2; ++e) {
      store->RunEpoch();
    }
    FAIL() << "expected RollbackDetectedError from the stale-stripe restore";
  } catch (const RollbackDetectedError& e) {
    EXPECT_EQ(e.status(), UnsealStatus::kRollback);
  }
}

// A stripe manifest is host-supplied: geometry that disagrees with the public
// striping config (chunk count, chunk index bound, chunk length) is dropped before
// repair groups or allocates anything. An honest peer still reconstructs the
// partition; with no honest source left, repair fails with the typed error.
TEST(Repair, TamperedManifestGeometryIsDropped) {
  const auto tamper = [](Snoopy& store, uint32_t peer, uint32_t owner, int how) {
    Snoopy::HostStripe s = *store.host_stripe(peer, owner);
    switch (how) {
      case 0: s.chunk_count = 0xffffffffu; break;  // a 16 GiB source table
      case 1: s.chunk_index = s.chunk_count + 1; break;
      default: s.blob_len = uint64_t{1} << 40; break;  // a 1 TiB reassembly buffer
    }
    store.host_replace_stripe(peer, owner, std::move(s));
  };
  // (a) Two peers hold the victim's redundancy and one manifest is tampered: the
  // other peer's honest copy (or, in parity mode, the parity chunk) repairs it.
  for (const bool xor_parity : {false, true}) {
    for (int how = 0; how < 3; ++how) {
      auto store = std::make_unique<Snoopy>(StripedConfig(1, 4, 2, xor_parity, 2), 41);
      std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
      for (uint64_t k = 0; k < 32; ++k) {
        objects.emplace_back(k, Val(k + 900));
      }
      store->Initialize(objects);
      const uint32_t victim = 1;  // stripe peers 2, 3 (and 0 for parity)
      tamper(*store, /*peer=*/2, victim, how);
      store->LoseSubOram(victim);
      store->RunEpoch();
      store->RunEpoch();
      ASSERT_EQ(store->partition_health(victim), Snoopy::PartitionHealth::kHealthy)
          << "xor_parity=" << xor_parity << " how=" << how;
      for (uint64_t k = 0; k < 32; ++k) {
        store->SubmitRead(1, k + 1, k);
      }
      std::map<uint64_t, uint64_t> observed;
      for (const ClientResponse& resp : store->RunEpoch()) {
        observed[resp.client_seq] = TagOf(resp.value);
      }
      ASSERT_EQ(observed.size(), 32u);
      for (uint64_t k = 0; k < 32; ++k) {
        EXPECT_EQ(observed[k + 1], k + 900) << "xor_parity=" << xor_parity << " how=" << how;
      }
    }
  }
  // (b) The only source is tampered: nothing reconstructs, and the refusal is the
  // typed "unrecoverable" error rather than an allocation failure.
  for (int how = 0; how < 3; ++how) {
    auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 2), 43);
    store->Initialize({{1, Val(0)}, {2, Val(0)}, {3, Val(0)}});
    tamper(*store, /*peer=*/1, /*owner=*/0, how);
    store->LoseSubOram(0);
    try {
      store->RunEpoch();
      FAIL() << "expected the unrecoverable-partition error, how=" << how;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Repair, CrashedStripePeerIsRecoveredAndRepairCompletes) {
  // Chaos during repair: the peers sourcing the stripes crash mid-window. The
  // retried stripe fetch recovers them (sealed-snapshot restore) and the repair
  // still completes on schedule with every record intact.
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 4, 2, false, 3), 37);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 16; ++k) {
    objects.emplace_back(k, Val(k + 50));
  }
  store->Initialize(objects);
  FaultInjector injector(37);
  store->set_fault_injector(&injector);

  const uint32_t victim = 2;
  store->LoseSubOram(victim);
  store->RunEpoch();  // first slice fetched
  injector.MarkCrashed("suboram/3");  // victim's stripe peers: 3 and 0
  injector.MarkCrashed("suboram/0");
  store->RunEpoch();
  store->RunEpoch();
  EXPECT_EQ(store->partition_health(victim), Snoopy::PartitionHealth::kHealthy);
  EXPECT_GE(store->network().stats().recoveries, 1u);
  uint64_t seq = 1;
  for (uint64_t k = 0; k < 16; ++k) {
    store->SubmitRead(1, seq++, k);
  }
  std::map<uint64_t, uint64_t> observed;
  for (const ClientResponse& resp : store->RunEpoch()) {
    observed[resp.client_seq] = TagOf(resp.value);
  }
  ASSERT_EQ(observed.size(), 16u);
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(observed[k + 1], k + 50);
  }
}

// ---------------------------------------------------------------------------------
// Epoch-boundary elastic resharding.
// ---------------------------------------------------------------------------------

TEST(Reshard, RoundTripPreservesEveryRecord) {
  SnoopyConfig cfg = StripedConfig(2, 3, 1, false, 2);
  auto store = std::make_unique<Snoopy>(cfg, 41);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 32; ++k) {
    objects.emplace_back(k, Val(k + 1));
  }
  store->Initialize(objects);

  auto verify_all = [&](uint64_t base_seq, uint64_t add) {
    uint64_t seq = base_seq;
    for (uint64_t k = 0; k < 32; ++k) {
      store->SubmitRead(1, seq++, k);
    }
    std::map<uint64_t, uint64_t> observed;
    for (const ClientResponse& resp : store->RunEpoch()) {
      observed[resp.client_seq] = TagOf(resp.value);
    }
    ASSERT_EQ(observed.size(), 32u);
    for (uint64_t k = 0; k < 32; ++k) {
      ASSERT_EQ(observed[base_seq + k], k + 1 + add) << "key " << k;
    }
  };

  store->Reshard(4);
  EXPECT_EQ(store->config().num_suborams, 4u);
  verify_all(1000, 0);
  // Mutate under the wider configuration, then shrink back: writes survive both.
  uint64_t seq = 2000;
  for (uint64_t k = 0; k < 32; ++k) {
    store->SubmitWrite(1, seq++, k, Val(k + 1 + 500));
  }
  store->RunEpoch();
  store->Reshard(3);
  EXPECT_EQ(store->config().num_suborams, 3u);
  verify_all(3000, 500);
  // Striping re-established for the new width: every partition's peer holds a stripe.
  for (uint32_t so = 0; so < 3; ++so) {
    EXPECT_NE(store->host_stripe((so + 1) % 3, so), nullptr);
  }
}

TEST(Reshard, NoOpAndInvalidWidths) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 2), 43);
  store->Initialize({{1, Val(1)}});
  store->Reshard(3);  // no-op
  EXPECT_EQ(store->config().num_suborams, 3u);
  EXPECT_THROW(store->Reshard(0), std::invalid_argument);
  // The striping floor applies to the new width too (1 replica needs 2+ partitions).
  EXPECT_THROW(store->Reshard(1), std::invalid_argument);
}

TEST(Reshard, RefusedWhileAPartitionRepairs) {
  auto store = std::make_unique<Snoopy>(StripedConfig(1, 3, 1, false, 4), 47);
  store->Initialize({{1, Val(1)}, {2, Val(2)}});
  FaultInjector injector(47);
  store->set_fault_injector(&injector);
  store->LoseSubOram(1);
  EXPECT_THROW(store->Reshard(4), PartitionUnavailableError);
  // After the repair window the reshard proceeds.
  for (int e = 0; e < 4; ++e) {
    store->RunEpoch();
  }
  store->Reshard(4);
  EXPECT_EQ(store->config().num_suborams, 4u);
}

TEST(Reshard, ParticipantCrashAbortsAndRollsBackCleanly) {
  auto store = std::make_unique<Snoopy>(StripedConfig(2, 3, 1, false, 2), 53);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 16; ++k) {
    objects.emplace_back(k, Val(k + 9));
  }
  store->Initialize(objects);
  FaultInjector injector(53);
  store->set_fault_injector(&injector);

  injector.MarkCrashed("suboram/1");
  EXPECT_THROW(store->Reshard(4), ReshardAbortedError);
  // Build-then-swap: the old configuration is fully intact; the crashed component
  // recovers through the ordinary path and every record is still served.
  EXPECT_EQ(store->config().num_suborams, 3u);
  uint64_t seq = 1;
  for (uint64_t k = 0; k < 16; ++k) {
    store->SubmitRead(1, seq++, k);
  }
  std::map<uint64_t, uint64_t> observed;
  for (const ClientResponse& resp : store->RunEpoch()) {
    observed[resp.client_seq] = TagOf(resp.value);
  }
  ASSERT_EQ(observed.size(), 16u);
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(observed[k + 1], k + 9);
  }
  // And the retry succeeds once the component is back.
  store->Reshard(4);
  EXPECT_EQ(store->config().num_suborams, 4u);
}

TEST(Reshard, SteadyStateEpochsMatchTwinDeploymentByteForByte) {
  // Deployment B reshards 3 -> 4 -> 3 between workload phases; deployment A never
  // reshards. Both then run an identical steady-state workload at the same epoch
  // indices: responses and enclave *memory* traces must be byte-identical -- the
  // reshard left no observable residue (state, partition map, or trace shape).
  auto run = [](bool reshard) {
    SnoopyConfig cfg;
    cfg.num_load_balancers = 2;
    cfg.num_suborams = 3;
    cfg.value_size = kValueSize;
    cfg.lambda = 40;
    auto store = std::make_unique<Snoopy>(cfg, 61);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 20; ++k) {
      objects.emplace_back(k, Val(0));
    }
    store->Initialize(objects);

    Rng rng(71);
    uint64_t seq = 1;
    auto run_epoch = [&] {
      for (int i = 0; i < 10; ++i) {
        const auto lb = static_cast<uint32_t>(rng.Uniform(2));
        const uint64_t key = rng.Uniform(20);
        if (rng.Uniform(2) == 0) {
          store->SubmitWriteWithLb(lb, 1, seq, key, Val(seq));
        } else {
          store->SubmitReadWithLb(lb, 1, seq, key);
        }
        ++seq;
      }
      return store->RunEpoch();
    };
    for (int e = 0; e < 2; ++e) {
      run_epoch();
    }
    if (reshard) {
      store->Reshard(4);
    }
    for (int e = 0; e < 2; ++e) {
      run_epoch();
    }
    if (reshard) {
      store->Reshard(3);
    }
    // Steady state: same width, same epoch indices, same workload stream.
    TraceScope scope;
    std::vector<std::pair<uint64_t, uint64_t>> responses;
    for (int e = 0; e < 3; ++e) {
      for (const ClientResponse& resp : run_epoch()) {
        responses.emplace_back(resp.client_seq, TagOf(resp.value));
      }
    }
    return std::make_pair(responses, MemoryTraceDigest(scope.Events()));
  };
  const auto [plain_responses, plain_digest] = run(false);
  const auto [resharded_responses, resharded_digest] = run(true);
  EXPECT_EQ(resharded_responses, plain_responses);
  EXPECT_EQ(resharded_digest, plain_digest)
      << "a reshard round-trip changed the steady-state enclave memory trace";
}

TEST(Reshard, ResponsesIdenticalAcrossEpochThreadCounts) {
  // The reshard + degraded-mode machinery must be schedule-independent: the same
  // scripted run (lose a partition, repair, reshard) under a sequential and a
  // parallel epoch pipeline returns identical responses.
  auto run = [](int epoch_threads) {
    SnoopyConfig cfg = StripedConfig(2, 4, 1, false, 2);
    cfg.epoch_threads = epoch_threads;
    auto store = std::make_unique<Snoopy>(cfg, 67);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 24; ++k) {
      objects.emplace_back(k, Val(k));
    }
    store->Initialize(objects);
    FaultInjector injector(67);
    store->set_fault_injector(&injector);

    std::vector<std::pair<uint64_t, uint64_t>> responses;
    uint64_t seq = 1;
    auto epoch = [&] {
      for (uint64_t k = 0; k < 24; ++k) {
        const uint64_t write_seq = seq++;
        store->SubmitWriteWithLb(static_cast<uint32_t>(k % 2), 1, write_seq, k,
                                 Val(1000 + write_seq));
        store->SubmitReadWithLb(static_cast<uint32_t>((k + 1) % 2), 1, seq++, k);
      }
      std::vector<ClientResponse> out = store->RunEpoch();
      for (const ClientResponse& resp : out) {
        responses.emplace_back(resp.client_seq, TagOf(resp.value));
      }
    };
    epoch();
    store->LoseSubOram(1);
    epoch();  // degraded + repair slice 1
    epoch();  // repair completes, deferred requests drain
    store->Reshard(3);
    epoch();
    std::sort(responses.begin(), responses.end());
    return responses;
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------------
// Cluster simulator: transient crash vs. permanent loss, resharding, diurnal load.
// ---------------------------------------------------------------------------------

ClusterConfig SimConfig() {
  ClusterConfig cfg;
  cfg.load_balancers = 1;
  cfg.suborams = 3;
  cfg.num_objects = 2000000;
  cfg.epoch_seconds = 0.2;
  return cfg;
}

TEST(ClusterRepairSim, PermanentLossesAreDistinguishedFromCrashes) {
  const CostModel model;
  ClusterConfig cfg = SimConfig();
  cfg.suboram_mttf_s = 3.0;
  cfg.suboram_mttr_s = 0.2;
  cfg.suboram_mtpl_s = 4.0;
  cfg.repair_epochs = 4;
  const ClusterSimulator sim(cfg, model);
  const ClusterMetrics m = sim.Run(2000, 12.0, /*seed=*/3);
  EXPECT_GT(m.permanent_losses, 0u);
  EXPECT_GT(m.transient_failures, 0u);
  EXPECT_EQ(m.failures, m.transient_failures + m.permanent_losses)
      << "`failures` stays the backward-compatible total";
  EXPECT_GT(m.repairs_completed, 0u);
  EXPECT_GE(m.degraded_epochs, static_cast<uint64_t>(cfg.repair_epochs))
      << "each loss degrades at least repair_epochs epochs";
  EXPECT_GT(m.deferred_ops, 0.0);
  EXPECT_GT(m.throughput, 0.0) << "the cluster keeps serving while degraded";
}

TEST(ClusterRepairSim, ZeroLossRateIsBitIdenticalToBaseline) {
  // Like the crash knobs, the loss/reshard/profile knobs must not perturb a seeded
  // run when disabled: the gating keeps the failure stream's draw sequence intact.
  const CostModel model;
  const ClusterSimulator baseline(SimConfig(), model);
  ClusterConfig with_knobs = SimConfig();
  with_knobs.suboram_mtpl_s = 0;
  with_knobs.repair_epochs = 9;  // irrelevant while the rate is zero
  const ClusterSimulator disabled(with_knobs, model);
  const ClusterMetrics a = baseline.Run(2000, 6.0, /*seed=*/1);
  const ClusterMetrics b = disabled.Run(2000, 6.0, /*seed=*/1);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(b.permanent_losses, 0u);
  EXPECT_EQ(b.deferred_ops, 0.0);
}

TEST(ClusterRepairSim, DeferredRequestsReturnAfterRepair) {
  // With losses but no transient crashes, everything offered is eventually served:
  // deferred mass drains at repair completion (losses near the window's end excepted).
  const CostModel model;
  ClusterConfig cfg = SimConfig();
  cfg.suboram_mtpl_s = 5.0;
  cfg.repair_epochs = 3;
  const ClusterSimulator sim(cfg, model);
  const ClusterMetrics m = sim.Run(2000, 12.0, /*seed=*/7);
  ASSERT_GT(m.permanent_losses, 0u);
  ASSERT_GT(m.repairs_completed, 0u);
  EXPECT_GT(m.deferred_ops, 0.0);
  // Deferred ops that drained count as completed; throughput stays near offered.
  EXPECT_GT(m.throughput, 0.85 * 2000);
  EXPECT_GT(m.max_latency_s, static_cast<double>(cfg.repair_epochs) * cfg.epoch_seconds)
      << "a deferred request waits at least the repair window";
}

TEST(ClusterRepairSim, ReshardScheduleChangesTheWidthMidRun) {
  const CostModel model;
  ClusterConfig cfg = SimConfig();
  cfg.reshard_schedule = {{/*at_s=*/3.0, /*suborams=*/6}};
  const ClusterSimulator sim(cfg, model);
  const ClusterMetrics m = sim.Run(2000, 10.0, /*seed=*/5);
  EXPECT_EQ(m.reshards, 1u);
  EXPECT_GT(m.throughput, 1500.0)
      << "every offered op is still served; the migration only delays";
  // The migration stall is real and shows up in the tail, not in lost work.
  const ClusterMetrics fixed = ClusterSimulator(SimConfig(), model).Run(2000, 10.0, 5);
  EXPECT_GT(m.max_latency_s, fixed.max_latency_s)
      << "the oblivious redistribution must cost visible wall-clock";
}

TEST(ClusterRepairSim, DiurnalProfileScalesOfferedLoad) {
  const CostModel model;
  ClusterConfig cfg = SimConfig();
  const ClusterSimulator constant(cfg, model);
  ClusterConfig diurnal_cfg = SimConfig();
  diurnal_cfg.load_profile = {{0.0, 1.0}, {5.0, 0.2}};
  const ClusterSimulator diurnal(diurnal_cfg, model);
  const ClusterMetrics full = constant.Run(2000, 10.0, /*seed=*/9);
  const ClusterMetrics shaped = diurnal.Run(2000, 10.0, /*seed=*/9);
  EXPECT_GT(shaped.completed_ops, 0.0);
  EXPECT_LT(shaped.completed_ops, 0.75 * full.completed_ops)
      << "the off-peak phase must visibly reduce served load";
}

// ---------------------------------------------------------------------------------
// Elastic capacity planning over a diurnal forecast.
// ---------------------------------------------------------------------------------

PlannerCostFns SyntheticFns() {
  PlannerCostFns fns;
  fns.lb_seconds = [](uint64_t r, uint64_t s) {
    if (r == 0) {
      return 0.0;
    }
    const double total = static_cast<double>(r + 50 * s);
    const double lg = std::log2(total + 2);
    return 40e-9 * total * lg * lg;
  };
  fns.suboram_seconds = [](uint64_t batch, uint64_t n) {
    return 150e-9 * static_cast<double>(n) + 2e-6 * static_cast<double>(batch) + 1e-3;
  };
  return fns;
}

TEST(ElasticPlanner, MergesEqualPhasesAndScalesForPeak) {
  PlannerInput input;
  input.num_objects = 1000000;
  input.max_latency_s = 1.0;
  const std::vector<LoadForecastPoint> forecast = {
      {0.0, 5000}, {3600.0, 5000}, {7200.0, 150000}, {10800.0, 5000}};
  const std::vector<ElasticPlanStep> steps =
      PlanElasticSchedule(input, SyntheticFns(), forecast);
  ASSERT_EQ(steps.size(), 3u) << "equal consecutive phases merge into one step";
  EXPECT_EQ(steps[0].start_s, 0.0);
  EXPECT_EQ(steps[1].start_s, 7200.0);
  EXPECT_EQ(steps[2].start_s, 10800.0);
  for (const ElasticPlanStep& step : steps) {
    ASSERT_TRUE(step.plan.feasible) << "phase at " << step.start_s;
  }
  const uint32_t off_peak = steps[0].plan.load_balancers + steps[0].plan.suborams;
  const uint32_t peak = steps[1].plan.load_balancers + steps[1].plan.suborams;
  EXPECT_GT(peak, off_peak) << "the peak phase must buy more machines";
  EXPECT_EQ(steps[2].plan.suborams, steps[0].plan.suborams)
      << "the post-peak phase scales back down";
}

TEST(ElasticPlanner, EmptyForecastYieldsNoSteps) {
  PlannerInput input;
  input.num_objects = 1000;
  EXPECT_TRUE(PlanElasticSchedule(input, SyntheticFns(), {}).empty());
}

}  // namespace
}  // namespace snoopy
