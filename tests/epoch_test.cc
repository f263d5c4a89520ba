// The epoch module's seam (src/core/epoch.h). RunEpochProtocol runs here over a fake
// exchange that calls each partition's SubOram::ProcessBatch directly -- no Network,
// no AEAD, no retries -- and must:
//   1. match a full Snoopy deployment on the same seed and requests, record for
//      record, at widths 1 and 4 (byte-identical matched batches and traces across
//      the widths),
//   2. stand placeholders in for unavailable and lost partitions, whose requests come
//      back with resp = 0, the requeue flag,
//   3. report a loss and any other exchange failure per partition, without matching
//      when an exchange failed.

#include "src/core/epoch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/core/snoopy.h"
#include "src/core/suboram.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"

namespace snoopy {
namespace {

constexpr uint32_t kLbs = 2;
constexpr uint32_t kSos = 3;
constexpr size_t kValueSize = 16;
constexpr uint64_t kObjects = 48;
constexpr uint64_t kSeed = 71;

std::vector<uint8_t> Val(uint64_t tag) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &tag, 8);
  return v;
}

SnoopyConfig Config(int epoch_threads) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = kLbs;
  cfg.num_suborams = kSos;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = epoch_threads;
  return cfg;
}

// Load balancers and subORAMs built from one seed, without enclaves or links: the
// partition key, then one base seed per load balancer, then one seed per subORAM.
struct Bare {
  explicit Bare(uint64_t seed) : rng(seed), partition_key(rng.NextSipKey()) {
    for (uint32_t lb = 0; lb < kLbs; ++lb) {
      LoadBalancerConfig lbc;
      lbc.id = lb;
      lbc.num_suborams = kSos;
      lbc.value_size = kValueSize;
      lbc.lambda = 40;
      lbc.sort_strategy = SortStrategy::kAuto;
      base_seeds.push_back(rng.Next64());
      lbs.push_back(std::make_unique<LoadBalancer>(lbc, partition_key, base_seeds.back()));
      pending.emplace_back(kValueSize);
    }
    std::vector<std::vector<std::pair<uint64_t, std::vector<uint8_t>>>> parts(kSos);
    for (uint64_t k = 0; k < kObjects; ++k) {
      parts[lbs[0]->SubOramOf(k)].emplace_back(k, Val(k + 1));
    }
    for (uint32_t so = 0; so < kSos; ++so) {
      SubOramConfig soc;
      soc.id = so;
      soc.value_size = kValueSize;
      soc.lambda = 40;
      soc.sort_strategy = SortStrategy::kAuto;
      suborams.push_back(std::make_unique<SubOram>(soc, rng.Next64()));
      suborams.back()->Initialize(parts[so]);
    }
  }

  EpochResult Run(uint64_t epoch, int threads, const std::vector<bool>& available,
                  const SubOramExchange& exchange) {
    std::vector<uint64_t> seeds;
    for (uint32_t lb = 0; lb < kLbs; ++lb) {
      seeds.push_back(EpochSeed(base_seeds[lb], epoch));
    }
    const EpochTelemetry telemetry{epoch, nullptr};
    return RunEpochProtocol(lbs, pending, seeds, available, threads, telemetry, exchange);
  }

  // The fake transport: the prepared batch goes straight into the backend.
  SubOramExchange Direct() {
    return [this](uint32_t lb, uint32_t so,
                  const std::vector<LoadBalancer::PreparedEpoch>& prepared) {
      return suborams[so]->ProcessBatch(RequestBatch(prepared[lb].suboram_batches[so]));
    };
  }

  Rng rng;
  SipKey partition_key;
  std::vector<uint64_t> base_seeds;
  std::vector<std::unique_ptr<LoadBalancer>> lbs;
  std::vector<std::unique_ptr<SubOram>> suborams;
  std::vector<RequestBatch> pending;
};

using Record = std::tuple<uint64_t, uint64_t, uint64_t, uint8_t, std::vector<uint8_t>>;

Record RecordOf(const RequestBatch& batch, size_t i) {
  const RequestHeader& h = batch.Header(i);
  return {h.client_id, h.client_seq, h.key, h.op,
          std::vector<uint8_t>(batch.Value(i), batch.Value(i) + kValueSize)};
}

// The workload of epoch e: reads and writes of random keys, pinned to random load
// balancers, identical for every caller.
template <typename Submit>
void Workload(uint64_t e, Submit submit) {
  Rng rng(kSeed * 1000 + e);
  for (uint64_t i = 0; i < 24; ++i) {
    const auto lb = static_cast<uint32_t>(rng.Uniform(kLbs));
    const uint64_t key = rng.Uniform(kObjects);
    const bool write = rng.Uniform(2) == 0;
    submit(lb, e * 100 + i, key, write);
  }
}

struct SeamRun {
  std::vector<std::vector<uint8_t>> matched;  // serialized, per (epoch, lb)
  std::vector<Record> records;                // every matched record, in order
  uint64_t trace_digest = 0;
};

SeamRun RunSeam(int threads) {
  Bare bare(kSeed);
  SeamRun out;
  TraceScope scope;
  for (uint64_t e = 0; e < 3; ++e) {
    Workload(e, [&](uint32_t lb, uint64_t seq, uint64_t key, bool write) {
      RequestHeader h;
      h.key = key;
      h.op = write ? kOpWrite : kOpRead;
      h.client_id = 1;
      h.client_seq = seq;
      const std::vector<uint8_t> value = write ? Val(seq + 5000) : std::vector<uint8_t>{};
      bare.pending[lb].Append(h, value);
    });
    EpochResult result = bare.Run(e, threads, std::vector<bool>(kSos, true), bare.Direct());
    EXPECT_EQ(result.lost, std::vector<uint8_t>(kSos, 0));
    for (const RequestBatch& batch : result.matched) {
      out.matched.push_back(batch.Serialize());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch.Header(i).resp, 1);
        out.records.push_back(RecordOf(batch, i));
      }
    }
  }
  out.trace_digest = MemoryTraceDigest(scope.Events());
  return out;
}

// The same seed and requests through a full deployment at `epoch_threads`: every
// response, in delivery order.
std::vector<Record> RunDeployment(int epoch_threads) {
  Snoopy store(Config(epoch_threads), kSeed);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kObjects; ++k) {
    objects.emplace_back(k, Val(k + 1));
  }
  store.Initialize(objects);
  std::vector<Record> deployed;
  for (uint64_t e = 0; e < 3; ++e) {
    Workload(e, [&](uint32_t lb, uint64_t seq, uint64_t key, bool write) {
      if (write) {
        store.SubmitWriteWithLb(lb, 1, seq, key, Val(seq + 5000));
      } else {
        store.SubmitReadWithLb(lb, 1, seq, key);
      }
    });
    for (const ClientResponse& r : store.RunEpoch()) {
      deployed.emplace_back(r.client_id, r.client_seq, r.key, r.op, r.value);
    }
  }
  return deployed;
}

TEST(Epoch, FakeExchangeMatchesFullDeploymentAtWidthsOneAndFour) {
  const SeamRun sequential = RunSeam(1);
  ASSERT_EQ(sequential.records.size(), 3u * 24u);
  EXPECT_NE(sequential.trace_digest, MemoryTraceDigest({}));
  for (const int threads : {1, 4}) {
    const SeamRun seam = threads == 1 ? sequential : RunSeam(threads);
    EXPECT_EQ(seam.records, RunDeployment(threads))
        << "the seam diverged from the deployment at width " << threads;
    EXPECT_EQ(seam.matched, sequential.matched) << "matched batches differ at width " << threads;
    EXPECT_EQ(seam.trace_digest, sequential.trace_digest) << "trace differs at width " << threads;
  }
}

// Submits one read per key through load balancer key % kLbs.
void ReadEveryKey(Bare& bare) {
  for (uint64_t k = 0; k < kObjects; ++k) {
    RequestHeader h;
    h.key = k;
    h.client_id = 1;
    h.client_seq = k + 1;
    bare.pending[k % kLbs].Append(h, {});
  }
}

TEST(Epoch, UnavailableAndLostPartitionsGetPlaceholders) {
  for (const int threads : {1, 4}) {
    Bare bare(kSeed);
    ReadEveryKey(bare);
    const uint32_t down = 0;
    const uint32_t dies = 2;
    std::vector<bool> available(kSos, true);
    available[down] = false;
    const SubOramExchange direct = bare.Direct();
    EpochResult result = bare.Run(0, threads, available,
                                  [&](uint32_t lb, uint32_t so,
                                      const std::vector<LoadBalancer::PreparedEpoch>& p) {
      EXPECT_NE(so, down) << "an unavailable partition must not be called";
      if (so == dies && lb == 1) {
        throw NodeLostError("suboram/2/from/1");
      }
      return direct(lb, so, p);
    });
    EXPECT_EQ(result.lost, (std::vector<uint8_t>{0, 0, 1}));
    ASSERT_EQ(result.matched.size(), kLbs);
    ASSERT_NE(result.match_timer, nullptr);
    size_t answered = 0;
    for (const RequestBatch& batch : result.matched) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const RequestHeader& h = batch.Header(i);
        const uint32_t so = bare.lbs[0]->SubOramOf(h.key);
        EXPECT_EQ(h.resp, so == down || so == dies ? 0 : 1) << "key " << h.key;
        if (h.resp == 1) {
          uint64_t tag = 0;
          std::memcpy(&tag, batch.Value(i), 8);
          EXPECT_EQ(tag, h.key + 1);
          ++answered;
        }
      }
    }
    EXPECT_GT(answered, 0u);
  }
}

TEST(Epoch, ExchangeFailureIsReportedPerPartitionAndSkipsTheMatch) {
  for (const int threads : {1, 4}) {
    Bare bare(kSeed);
    ReadEveryKey(bare);
    const SubOramExchange direct = bare.Direct();
    EpochResult result =
        bare.Run(0, threads, std::vector<bool>(kSos, true),
                 [&](uint32_t lb, uint32_t so,
                     const std::vector<LoadBalancer::PreparedEpoch>& p) -> RequestBatch {
      if (so == 1) {
        throw std::runtime_error("partition 1 failed");
      }
      if (so == 2) {
        throw NodeLostError("suboram/2/from/0");
      }
      return direct(lb, so, p);
    });
    EXPECT_EQ(result.lost, (std::vector<uint8_t>{0, 0, 1}));
    ASSERT_EQ(result.failures.size(), kSos);
    EXPECT_EQ(result.failures[0], nullptr);
    EXPECT_NE(result.failures[1], nullptr);
    EXPECT_EQ(result.failures[2], nullptr) << "a loss is not a failure";
    EXPECT_THROW(std::rethrow_exception(result.failures[1]), std::runtime_error);
    // Nothing is answered: each load balancer gets back its requests as prepared, in
    // submission order and all unanswered, for the caller to requeue.
    ASSERT_EQ(result.matched.size(), static_cast<size_t>(kLbs));
    for (uint32_t lb = 0; lb < kLbs; ++lb) {
      const RequestBatch& matched = result.matched[lb];
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < matched.size(); ++i) {
        EXPECT_EQ(matched.Header(i).resp, 0u);
        keys.push_back(matched.Header(i).key);
      }
      std::vector<uint64_t> submitted;
      for (uint64_t k = lb; k < kObjects; k += kLbs) {
        submitted.push_back(k);
      }
      EXPECT_EQ(keys, submitted) << "lb=" << lb;
    }
    EXPECT_EQ(result.match_timer, nullptr);
    for (const RequestBatch& queue : bare.pending) {
      EXPECT_EQ(queue.size(), 0u) << "preparation drains every pending queue";
    }
  }
}

}  // namespace
}  // namespace snoopy
