#include "src/enclave/rollback.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/snoopy.h"
#include "src/core/suboram.h"
#include "src/crypto/rng.h"
#include "src/crypto/sha256.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/obl/kernels.h"
#include "src/telemetry/metrics.h"

namespace snoopy {
namespace {

Aead::Key TestKey() {
  Aead::Key key{};
  Rng rng(1);
  rng.Fill(key.data(), key.size());
  return key;
}

TEST(MonotonicCounterService, StrictlyIncreases) {
  MonotonicCounterService svc;
  const uint64_t a = svc.Create();
  const uint64_t b = svc.Create();
  EXPECT_EQ(svc.Read(a), 0u);
  EXPECT_EQ(svc.Increment(a), 1u);
  EXPECT_EQ(svc.Increment(a), 2u);
  EXPECT_EQ(svc.Read(b), 0u) << "counters are independent";
  EXPECT_THROW(svc.Read(99), std::out_of_range);
}

TEST(SealedStore, FreshSnapshotRoundTrips) {
  MonotonicCounterService svc;
  SealedStore store(TestKey(), &svc);
  const uint64_t ctr = svc.Create();
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> blob = store.Seal(ctr, payload);
  std::vector<uint8_t> out;
  EXPECT_EQ(store.Unseal(ctr, blob, &out), UnsealStatus::kOk);
  EXPECT_EQ(out, payload);
}

TEST(SealedStore, DetectsRollback) {
  MonotonicCounterService svc;
  SealedStore store(TestKey(), &svc);
  const uint64_t ctr = svc.Create();
  const std::vector<uint8_t> v1 = {1};
  const std::vector<uint8_t> v2 = {2};
  const std::vector<uint8_t> blob_v1 = store.Seal(ctr, v1);
  const std::vector<uint8_t> blob_v2 = store.Seal(ctr, v2);
  std::vector<uint8_t> out;
  // The host replays the older snapshot: authentic, but superseded.
  EXPECT_EQ(store.Unseal(ctr, blob_v1, &out), UnsealStatus::kRollback);
  EXPECT_EQ(store.Unseal(ctr, blob_v2, &out), UnsealStatus::kOk);
  EXPECT_EQ(out, v2);
}

TEST(SealedStore, DetectsTampering) {
  MonotonicCounterService svc;
  SealedStore store(TestKey(), &svc);
  const uint64_t ctr = svc.Create();
  std::vector<uint8_t> blob = store.Seal(ctr, std::vector<uint8_t>{9, 9});
  blob[blob.size() - 1] ^= 1;
  EXPECT_EQ(store.Unseal(ctr, blob, nullptr), UnsealStatus::kCorrupt);
  // Re-labelling the version field also fails authentication (version is AAD).
  std::vector<uint8_t> blob2 = store.Seal(ctr, std::vector<uint8_t>{9, 9});
  blob2[0] ^= 1;
  EXPECT_EQ(store.Unseal(ctr, blob2, nullptr), UnsealStatus::kCorrupt);
  EXPECT_EQ(store.Unseal(ctr, std::vector<uint8_t>{1, 2}, nullptr), UnsealStatus::kCorrupt);
}

TEST(SealedStore, SealInPlaceMatchesSeal) {
  MonotonicCounterService svc_a;
  MonotonicCounterService svc_b;
  SealedStore a(TestKey(), &svc_a);
  SealedStore b(TestKey(), &svc_b);
  const uint64_t ctr_a = svc_a.Create();
  const uint64_t ctr_b = svc_b.Create();
  for (size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{1000}}) {
    std::vector<uint8_t> payload(len);
    Rng rng(len + 1);
    rng.Fill(payload.data(), payload.size());
    const std::vector<uint8_t> sealed = a.Seal(ctr_a, payload);
    std::vector<uint8_t> blob(SealedStore::kOverheadBytes + len, 0xAB);
    std::copy(payload.begin(), payload.end(), blob.begin() + SealedStore::kVersionBytes);
    b.SealInPlace(ctr_b, blob);
    EXPECT_EQ(blob, sealed) << "payload length " << len;
    std::vector<uint8_t> out;
    ASSERT_EQ(b.Unseal(ctr_b, blob, &out), UnsealStatus::kOk);
    EXPECT_EQ(out, payload);
  }
  std::vector<uint8_t> too_short(SealedStore::kOverheadBytes - 1);
  EXPECT_THROW(b.SealInPlace(ctr_b, too_short), std::invalid_argument);
  EXPECT_EQ(svc_b.Read(ctr_b), 5u) << "a rejected blob must not bump the counter";
}

// The pooled epoch-boundary seal runs one SealedStore::Seal per subORAM counter
// concurrently; each must produce exactly the blob and counter value a serial run
// does.
TEST(SealedStore, ConcurrentSealsOnDistinctCountersMatchSerial) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  auto payload_of = [](int t, int round) {
    std::vector<uint8_t> p(4096 + 17 * static_cast<size_t>(t));
    Rng rng(static_cast<uint64_t>(t * 1000 + round));
    rng.Fill(p.data(), p.size());
    return p;
  };

  MonotonicCounterService serial_svc;
  SealedStore serial(TestKey(), &serial_svc);
  std::vector<std::vector<std::vector<uint8_t>>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t ctr = serial_svc.Create();
    for (int round = 0; round < kRounds; ++round) {
      want[t].push_back(serial.Seal(ctr, payload_of(t, round)));
    }
  }

  MonotonicCounterService svc;
  SealedStore store(TestKey(), &svc);
  std::vector<uint64_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    ids.push_back(svc.Create());
  }
  std::vector<std::vector<std::vector<uint8_t>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        got[t].push_back(store.Seal(ids[t], payload_of(t, round)));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(svc.Read(ids[t]), static_cast<uint64_t>(kRounds));
    EXPECT_EQ(got[t], want[t]) << "counter " << t;
    std::vector<uint8_t> out;
    EXPECT_EQ(store.Unseal(ids[t], got[t].back(), &out), UnsealStatus::kOk);
  }
}

TEST(SubOramRollback, SealRestoreRoundTripAndReplayDetection) {
  SubOramConfig cfg;
  cfg.value_size = 16;
  cfg.lambda = 40;
  SubOram suboram(cfg, 5);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 20; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(16, static_cast<uint8_t>(k)));
  }
  suboram.Initialize(objects);

  MonotonicCounterService svc;
  SealedStore sealed(TestKey(), &svc);
  const uint64_t ctr = svc.Create();

  // Epoch 1 snapshot.
  const std::vector<uint8_t> snap1 = suboram.SealState(sealed, ctr);

  // Mutate state (a write batch) and snapshot again.
  RequestBatch batch(16);
  RequestHeader h;
  h.key = 3;
  h.op = kOpWrite;
  batch.Append(h, std::vector<uint8_t>(16, 0xEE));
  suboram.ProcessBatch(std::move(batch));
  const std::vector<uint8_t> snap2 = suboram.SealState(sealed, ctr);

  // Restart: restoring the stale snapshot must be refused...
  SubOram recovered(cfg, 6);
  EXPECT_EQ(recovered.RestoreState(sealed, ctr, snap1), UnsealStatus::kRollback);
  // ...and the fresh one accepted, with the write intact.
  ASSERT_EQ(recovered.RestoreState(sealed, ctr, snap2), UnsealStatus::kOk);
  std::vector<uint8_t> v;
  ASSERT_TRUE(recovered.DebugRead(3, &v));
  EXPECT_EQ(v, std::vector<uint8_t>(16, 0xEE));
}

// An authentic snapshot (sealed under the current counter) whose payload disagrees
// with its own header is corrupt, not a crash or an over-read: shorter than the
// 16-byte header, or a record count that does not match the bytes that follow it --
// including a count whose byte length would overflow.
TEST(SubOramRollback, RestoreRefusesMalformedPayloads) {
  SubOramConfig cfg;
  cfg.value_size = 16;
  cfg.lambda = 40;
  const uint64_t vs = cfg.value_size;
  const size_t record_bytes = 8 + cfg.value_size;
  MonotonicCounterService svc;
  SealedStore sealed(TestKey(), &svc);
  const uint64_t ctr = svc.Create();
  auto payload_with = [&](uint64_t count, size_t records_present) {
    std::vector<uint8_t> payload(16 + records_present * record_bytes, 0x33);
    std::memcpy(payload.data(), &vs, 8);
    std::memcpy(payload.data() + 8, &count, 8);
    return payload;
  };
  SubOram so(cfg, 7);

  const std::vector<uint8_t> short_blob = sealed.Seal(ctr, std::vector<uint8_t>(9, 0));
  EXPECT_EQ(so.RestoreState(sealed, ctr, short_blob), UnsealStatus::kCorrupt);
  const std::vector<uint8_t> empty_blob = sealed.Seal(ctr, std::vector<uint8_t>{});
  EXPECT_EQ(so.RestoreState(sealed, ctr, empty_blob), UnsealStatus::kCorrupt);

  const std::vector<uint8_t> too_few = sealed.Seal(ctr, payload_with(5, 2));
  EXPECT_EQ(so.RestoreState(sealed, ctr, too_few), UnsealStatus::kCorrupt);
  const std::vector<uint8_t> too_many = sealed.Seal(ctr, payload_with(2, 5));
  EXPECT_EQ(so.RestoreState(sealed, ctr, too_many), UnsealStatus::kCorrupt);
  std::vector<uint8_t> ragged = payload_with(2, 2);
  ragged.push_back(0);
  const std::vector<uint8_t> ragged_blob = sealed.Seal(ctr, ragged);
  EXPECT_EQ(so.RestoreState(sealed, ctr, ragged_blob), UnsealStatus::kCorrupt);
  // 2^61 records of 24 bytes is 3 * 2^64 bytes, which wraps to 0: a wrapping multiply
  // would match the empty body.
  const std::vector<uint8_t> overflow_blob = sealed.Seal(ctr, payload_with(uint64_t{1} << 61, 0));
  EXPECT_EQ(so.RestoreState(sealed, ctr, overflow_blob), UnsealStatus::kCorrupt);

  // A well-formed payload under the same counter still restores.
  const std::vector<uint8_t> good = sealed.Seal(ctr, payload_with(2, 2));
  ASSERT_EQ(so.RestoreState(sealed, ctr, good), UnsealStatus::kOk);
  std::vector<uint8_t> v;  // every record byte is 0x33, the key included
  EXPECT_TRUE(so.DebugRead(0x3333333333333333ULL, &v));
  EXPECT_EQ(v, std::vector<uint8_t>(16, 0x33));
}

// The seeded deployment the SealBoundary pins share: two load balancers, four
// subORAMs, 4096 objects, stripes on successor peers (one replica, or two data
// chunks plus parity).
std::unique_ptr<Snoopy> SealBoundaryDeployment(int epoch_threads, bool xor_parity) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = 160;
  cfg.epoch_threads = epoch_threads;
  cfg.striping.replicas = xor_parity ? 2 : 1;
  cfg.striping.xor_parity = xor_parity;
  auto snoopy = std::make_unique<Snoopy>(cfg, 7);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 4096; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(160, static_cast<uint8_t>(k)));
  }
  snoopy->Initialize(objects);
  return snoopy;
}

// Epochs [first, last) of the shared write workload: 200 writes per epoch.
void RunWriteEpochs(Snoopy& snoopy, uint64_t first, uint64_t last) {
  for (uint64_t e = first; e < last; ++e) {
    for (uint64_t i = 0; i < 200; ++i) {
      const std::vector<uint8_t> value(160, static_cast<uint8_t>(i + e));
      snoopy.SubmitWrite(1, e * 1000 + i, (i * 37 + e) % 4096, value);
    }
    snoopy.RunEpoch();
  }
}

// Every sealed snapshot plus every stripe the hosts hold (payload, then its seal
// counter as 8 little-endian bytes), hashed in subORAM order, as lowercase hex.
std::string HostStorageDigest(const Snoopy& snoopy) {
  const uint32_t width = snoopy.config().num_suborams;
  Sha256 h;
  for (uint32_t so = 0; so < width; ++so) {
    h.Update(snoopy.suboram_snapshot(so));
    for (uint32_t peer = 0; peer < width; ++peer) {
      if (const Snoopy::HostStripe* s = snoopy.host_stripe(peer, so)) {
        h.Update(s->payload);
        uint8_t counter[8];
        for (int b = 0; b < 8; ++b) {
          counter[b] = static_cast<uint8_t>(s->seal_counter >> (8 * b));
        }
        h.Update(counter, sizeof(counter));
      }
    }
  }
  const Sha256::Digest d = h.Finalize();
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

// The host storage after three write epochs. The digests pin the epoch-boundary
// seal's output byte for byte: the pooled, in-place seal and the single-hash stripe
// encoding must reproduce exactly what the serial copy-then-seal boundary produced.
std::string SealBoundaryDigest(int epoch_threads, bool xor_parity) {
  const std::unique_ptr<Snoopy> snoopy = SealBoundaryDeployment(epoch_threads, xor_parity);
  RunWriteEpochs(*snoopy, 0, 3);
  return HostStorageDigest(*snoopy);
}

// The same deployment after Reshard(3) and one more write epoch: pins the rng draws,
// counter ids and links of the partitions a reshard builds.
std::string ReshardDigest(int epoch_threads) {
  const std::unique_ptr<Snoopy> snoopy = SealBoundaryDeployment(epoch_threads, false);
  RunWriteEpochs(*snoopy, 0, 3);
  snoopy->Reshard(3);
  RunWriteEpochs(*snoopy, 3, 4);
  return HostStorageDigest(*snoopy);
}

// The same deployment after losing subORAM 1 and running the repair_epochs write
// epochs that rebuild it: pins what loss wipes and what repair restores.
std::string RepairDigest(int epoch_threads, bool xor_parity) {
  const std::unique_ptr<Snoopy> snoopy = SealBoundaryDeployment(epoch_threads, xor_parity);
  RunWriteEpochs(*snoopy, 0, 3);
  snoopy->LoseSubOram(1);
  RunWriteEpochs(*snoopy, 3, 3 + snoopy->config().striping.repair_epochs);
  EXPECT_EQ(snoopy->partition_health(1), Snoopy::PartitionHealth::kHealthy);
  return HostStorageDigest(*snoopy);
}

constexpr const char* kReplicatedSealDigest =
    "fdf130f6a471537d5805276a19e42ea02c6f9bd3518b82e6451e75becf5927c4";
constexpr const char* kParitySealDigest =
    "aa76c6c5fde0685958a29e16469070e00e5ce29870cdc37e257ec0fb3dd8133e";

TEST(SealBoundary, ReplicatedSnapshotsAndStripesArePinned) {
  EXPECT_EQ(SealBoundaryDigest(4, /*xor_parity=*/false), kReplicatedSealDigest);
  EXPECT_EQ(SealBoundaryDigest(1, /*xor_parity=*/false), kReplicatedSealDigest);
}

TEST(SealBoundary, ParitySnapshotsAndStripesArePinned) {
  EXPECT_EQ(SealBoundaryDigest(4, /*xor_parity=*/true), kParitySealDigest);
  EXPECT_EQ(SealBoundaryDigest(1, /*xor_parity=*/true), kParitySealDigest);
}

// The same bytes with the scalar SHA-256 and kernels pinned, as under
// SNOOPY_KERNEL_BACKEND=generic.
TEST(SealBoundary, GenericKernelsProduceTheSameBytes) {
  const KernelBackend saved = ActiveKernelBackend();
  SetKernelBackend(KernelBackend::kGeneric);
  EXPECT_EQ(SealBoundaryDigest(4, /*xor_parity=*/false), kReplicatedSealDigest);
  EXPECT_EQ(SealBoundaryDigest(4, /*xor_parity=*/true), kParitySealDigest);
  SetKernelBackend(saved);
}

constexpr const char* kReshardDigest =
    "f5e8e9c34462f84106193928755cb28e49865900a2d7d026f59589f98b9cc09a";
constexpr const char* kReplicatedRepairDigest =
    "cd0435938135a6b67fc98fc811e28c661ae82b711d7a680b99e11084cc2e55ff";
constexpr const char* kParityRepairDigest =
    "a5358daa89c9adafc5f6b89b0bf9f9d2349027f7dd4649c81d5049e5ddb60795";

TEST(SealBoundary, ReshardAndRepairBytesArePinned) {
  for (const int threads : {1, 4}) {
    EXPECT_EQ(ReshardDigest(threads), kReshardDigest) << "epoch_threads=" << threads;
    EXPECT_EQ(RepairDigest(threads, /*xor_parity=*/false), kReplicatedRepairDigest)
        << "epoch_threads=" << threads;
    EXPECT_EQ(RepairDigest(threads, /*xor_parity=*/true), kParityRepairDigest)
        << "epoch_threads=" << threads;
  }
  const KernelBackend saved = ActiveKernelBackend();
  SetKernelBackend(KernelBackend::kGeneric);
  EXPECT_EQ(ReshardDigest(4), kReshardDigest);
  EXPECT_EQ(RepairDigest(4, /*xor_parity=*/false), kReplicatedRepairDigest);
  EXPECT_EQ(RepairDigest(4, /*xor_parity=*/true), kParityRepairDigest);
  SetKernelBackend(saved);
}

// The SealBoundary deployment after four write epochs under a seeded chaos source on
// every subORAM component: its stripe endpoints (and batch exchanges) see
// crash-before-reply, corrupt, drop and delay faults. What it returns must not depend
// on the thread count that ran the pooled push rounds.
struct ChaosOutcome {
  std::string storage;   // HostStorageDigest
  std::string counters;  // the snoopy_stripe_*, retry and recovery counter samples
  uint64_t trace = 0;    // enclave trace digest over the four epochs
  // Per stripe endpoint, the faults that fired there, in firing order.
  std::map<std::string, std::vector<FaultAction>> stripe_faults;
};

ChaosOutcome SealBoundaryUnderFaults(int epoch_threads, bool xor_parity) {
  const std::unique_ptr<Snoopy> snoopy = SealBoundaryDeployment(epoch_threads, xor_parity);
  MetricsRegistry registry;
  snoopy->set_metrics_registry(&registry);
  FaultInjector injector(xor_parity ? 5 : 3);
  FaultProfile chaos;
  chaos.drop = 0.08;
  chaos.corrupt = 0.2;
  chaos.crash_before_reply = 0.12;
  chaos.delay = 0.1;
  chaos.delay_s = 2e-3;
  injector.set_default_profile(chaos);
  snoopy->set_fault_injector(&injector);
  ChaosOutcome out;
  {
    TraceScope scope;
    RunWriteEpochs(*snoopy, 0, 4);
    out.trace = scope.Digest();
  }
  out.storage = HostStorageDigest(*snoopy);
  const std::string rendered = registry.RenderPrometheus();
  size_t begin = 0;
  while (begin < rendered.size()) {
    const size_t end = rendered.find('\n', begin);
    const std::string line = rendered.substr(begin, end - begin);
    for (const char* family :
         {"snoopy_stripe_", "snoopy_retries_total", "snoopy_recoveries_total"}) {
      if (line.rfind(family, 0) == 0) {
        out.counters += line + "\n";
      }
    }
    begin = end == std::string::npos ? rendered.size() : end + 1;
  }
  for (const FaultInjector::FiredDecision& d : injector.fired_log()) {
    if (d.target.ends_with("/stripe")) {
      out.stripe_faults[d.target].push_back(d.action);
    }
  }
  return out;
}

// Pooled push rounds, with a crashed peer recovered inside the one task that targets it,
// make a chaos run's stored bytes, counters, fault draws and enclave trace independent
// of the thread count, with one replica and with two data chunks plus parity.
TEST(SealBoundary, PooledPushesMatchAcrossThreadCountsUnderFaults) {
  for (const bool xor_parity : {false, true}) {
    const ChaosOutcome one = SealBoundaryUnderFaults(1, xor_parity);
    const ChaosOutcome four = SealBoundaryUnderFaults(4, xor_parity);
    EXPECT_EQ(one.storage, four.storage) << "parity=" << xor_parity;
    EXPECT_EQ(one.counters, four.counters) << "parity=" << xor_parity;
    EXPECT_EQ(one.trace, four.trace) << "parity=" << xor_parity;
    EXPECT_EQ(one.stripe_faults, four.stripe_faults) << "parity=" << xor_parity;
    // Not vacuous: every fault kind hit a stripe endpoint, so pushes were retried,
    // corrupted in flight and recovered a crashed peer, and they stored bytes.
    std::map<FaultAction, int> kinds;
    for (const auto& [target, actions] : one.stripe_faults) {
      for (const FaultAction a : actions) {
        ++kinds[a];
      }
    }
    for (const FaultAction a : {FaultAction::kDrop, FaultAction::kCorruptRequest,
                                FaultAction::kCrashBeforeReply, FaultAction::kDelay}) {
      EXPECT_GT(kinds[a], 0) << "parity=" << xor_parity << " action=" << static_cast<int>(a);
    }
    EXPECT_NE(one.counters.find("snoopy_stripe_push_bytes_total"), std::string::npos);
    EXPECT_NE(one.counters.find("snoopy_recoveries_total"), std::string::npos);
    EXPECT_NE(one.counters.find("endpoint=\"suboram/1/stripe\""), std::string::npos)
        << one.counters;
  }
}

}  // namespace
}  // namespace snoopy
