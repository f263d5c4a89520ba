#include "src/baseline/oblix_backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

#include "src/core/snoopy.h"
#include "src/net/fault.h"

namespace snoopy {
namespace {

constexpr size_t kValueSize = 32;

std::vector<uint8_t> ValueFor(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

std::unique_ptr<Snoopy> MakeSnoopyOblix(uint32_t lbs, uint32_t sos, uint64_t n,
                                        int epoch_threads = 1) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = lbs;
  cfg.num_suborams = sos;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = epoch_threads;
  const OblixBackendFactory factory(/*capacity_per_shard=*/n + 16, kValueSize);
  auto store = std::make_unique<Snoopy>(cfg, /*seed=*/21, factory);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < n; ++k) {
    objects.emplace_back(k, ValueFor(k));
  }
  store->Initialize(objects);
  return store;
}

TEST(OblixBackend, SnoopyOblixReadsAndWrites) {
  // The Figure 10 configuration, functional: Snoopy's load balancer over Oblix shards.
  auto store = MakeSnoopyOblix(2, 3, 120);
  for (uint64_t i = 0; i < 15; ++i) {
    store->SubmitRead(1, i, i * 7 % 120);
  }
  std::map<uint64_t, std::vector<uint8_t>> by_seq;
  for (const ClientResponse& r : store->RunEpoch()) {
    by_seq[r.client_seq] = r.value;
  }
  ASSERT_EQ(by_seq.size(), 15u);
  for (uint64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(by_seq[i], ValueFor(i * 7 % 120));
  }

  store->SubmitWrite(1, 100, 5, ValueFor(5, 9));
  store->RunEpoch();
  store->SubmitRead(1, 101, 5);
  const auto resp = store->RunEpoch();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].value, ValueFor(5, 9));
}

TEST(OblixBackend, DuplicateAndSkewedRequests) {
  auto store = MakeSnoopyOblix(1, 2, 60);
  for (uint64_t i = 0; i < 30; ++i) {
    store->SubmitRead(1, i, 42);  // all for one object: dedup handles it
  }
  const auto resp = store->RunEpoch();
  ASSERT_EQ(resp.size(), 30u);
  for (const ClientResponse& r : resp) {
    EXPECT_EQ(r.value, ValueFor(42));
  }
}

// Oblix shards do not seal, so a failed epoch cannot return them to the boundary and
// its requests are dropped. The undelivered batch still left its links out of step;
// they are rekeyed anyway, so the next epochs answer every request.
TEST(OblixBackend, FailedEpochDropsItsRequestsAndDoesNotWedge) {
  for (const int threads : {1, 4}) {
    auto store = MakeSnoopyOblix(2, 2, 60, threads);
    FaultInjector injector(21);
    store->set_fault_injector(&injector);
    uint64_t seq = 0;
    const auto submit = [&] {
      for (uint64_t i = 0; i < 8; ++i, ++seq) {
        store->SubmitReadWithLb(static_cast<uint32_t>(i % 2), 1, seq, seq * 7 % 60);
      }
    };

    submit();
    FaultProfile dark;
    dark.drop = 1.0;
    injector.SetProfile("suboram/1", dark);
    EXPECT_THROW(store->RunEpoch(), DeadlineExceededError) << "threads=" << threads;
    EXPECT_EQ(store->pending_requests(), 0u) << "threads=" << threads;
    injector.SetProfile("suboram/1", FaultProfile{});

    for (int epoch = 0; epoch < 3; ++epoch) {
      submit();
      std::vector<ClientResponse> resp;
      ASSERT_NO_THROW(resp = store->RunEpoch()) << "threads=" << threads << " epoch=" << epoch;
      ASSERT_EQ(resp.size(), 8u) << "threads=" << threads << " epoch=" << epoch;
      for (const ClientResponse& r : resp) {
        EXPECT_EQ(r.value, ValueFor(r.client_seq * 7 % 60)) << "seq " << r.client_seq;
      }
    }
  }
}

TEST(OblixBackend, StandaloneBatchContract) {
  OblixSubOramBackend backend(64, kValueSize, 3);
  backend.Initialize({{1, ValueFor(1)}, {2, ValueFor(2)}});
  EXPECT_EQ(backend.num_objects(), 2u);
  RequestBatch batch(kValueSize);
  RequestHeader rd;
  rd.key = 1;
  batch.Append(rd, {});
  RequestHeader wr;
  wr.key = 2;
  wr.op = kOpWrite;
  wr.client_seq = 1;
  batch.Append(wr, ValueFor(2, 5));
  RequestHeader dummy;
  dummy.key = kDummyKeyBase | 7;
  dummy.client_seq = 2;
  batch.Append(dummy, {});
  RequestBatch out = backend.ProcessBatch(std::move(batch));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.Header(0).resp, 1);
  EXPECT_EQ(std::vector<uint8_t>(out.Value(0), out.Value(0) + kValueSize), ValueFor(1));
  // The write's response is the pre-state.
  EXPECT_EQ(std::vector<uint8_t>(out.Value(1), out.Value(1) + kValueSize), ValueFor(2));
  // The dummy's response is null.
  EXPECT_EQ(std::vector<uint8_t>(out.Value(2), out.Value(2) + kValueSize),
            std::vector<uint8_t>(kValueSize, 0));
}

}  // namespace
}  // namespace snoopy
