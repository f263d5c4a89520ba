#include "src/core/suboram.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <vector>

#include "src/crypto/rng.h"
#include "src/enclave/trace.h"

namespace snoopy {
namespace {

constexpr size_t kValueSize = 32;

std::vector<uint8_t> ValueFor(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

SubOram MakeStore(size_t n_objects, uint64_t seed = 1) {
  SubOramConfig cfg;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  SubOram so(cfg, seed);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < n_objects; ++k) {
    objects.emplace_back(k, ValueFor(k));
  }
  so.Initialize(objects);
  return so;
}

RequestBatch MakeBatch(const std::vector<std::tuple<uint64_t, uint8_t, std::vector<uint8_t>>>&
                           reqs /* key, op, value */) {
  RequestBatch batch(kValueSize);
  uint64_t seq = 0;
  for (const auto& [key, op, value] : reqs) {
    RequestHeader h;
    h.key = key;
    h.op = op;
    h.client_seq = seq++;
    batch.Append(h, value);
  }
  return batch;
}

std::map<uint64_t, std::vector<uint8_t>> ResponsesByKey(RequestBatch& out) {
  std::map<uint64_t, std::vector<uint8_t>> m;
  for (size_t i = 0; i < out.size(); ++i) {
    m[out.Header(i).key] =
        std::vector<uint8_t>(out.Value(i), out.Value(i) + kValueSize);
  }
  return m;
}

TEST(SubOram, ReadsReturnStoredValues) {
  SubOram so = MakeStore(100);
  RequestBatch batch = MakeBatch({{5, kOpRead, {}}, {42, kOpRead, {}}, {99, kOpRead, {}}});
  RequestBatch out = so.ProcessBatch(std::move(batch));
  ASSERT_EQ(out.size(), 3u);
  auto by_key = ResponsesByKey(out);
  EXPECT_EQ(by_key[5], ValueFor(5));
  EXPECT_EQ(by_key[42], ValueFor(42));
  EXPECT_EQ(by_key[99], ValueFor(99));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.Header(i).resp, 1);
  }
}

TEST(SubOram, WriteUpdatesStoreAndReturnsPreState) {
  SubOram so = MakeStore(50);
  RequestBatch w = MakeBatch({{7, kOpWrite, ValueFor(7, 9)}});
  RequestBatch out = so.ProcessBatch(std::move(w));
  ASSERT_EQ(out.size(), 1u);
  // The write's response carries the value *before* the write (Appendix C: reads
  // serialize before writes within a batch).
  EXPECT_EQ(ResponsesByKey(out)[7], ValueFor(7, 0));
  // The store itself was updated.
  std::vector<uint8_t> now;
  ASSERT_TRUE(so.DebugRead(7, &now));
  EXPECT_EQ(now, ValueFor(7, 9));
  // A later batch reads the new value.
  RequestBatch r = MakeBatch({{7, kOpRead, {}}});
  RequestBatch out2 = so.ProcessBatch(std::move(r));
  EXPECT_EQ(ResponsesByKey(out2)[7], ValueFor(7, 9));
}

TEST(SubOram, ReadAndWriteInSameBatchReadGetsPreState) {
  SubOram so = MakeStore(50);
  RequestBatch batch = MakeBatch({{3, kOpRead, {}}, {4, kOpWrite, ValueFor(4, 1)}});
  RequestBatch out = so.ProcessBatch(std::move(batch));
  auto by_key = ResponsesByKey(out);
  EXPECT_EQ(by_key[3], ValueFor(3));
  EXPECT_EQ(by_key[4], ValueFor(4, 0));
}

TEST(SubOram, DummyRequestsMatchNothingAndComeBack) {
  SubOram so = MakeStore(20);
  const uint64_t dummy_key = kDummyKeyBase | 12345;
  RequestBatch batch = MakeBatch({{2, kOpRead, {}}, {dummy_key, kOpRead, {}}});
  RequestBatch out = so.ProcessBatch(std::move(batch));
  ASSERT_EQ(out.size(), 2u);
  auto by_key = ResponsesByKey(out);
  EXPECT_EQ(by_key[2], ValueFor(2));
  EXPECT_EQ(by_key[dummy_key], std::vector<uint8_t>(kValueSize, 0));
}

TEST(SubOram, RejectsDuplicateKeys) {
  SubOram so = MakeStore(20);
  RequestBatch batch = MakeBatch({{2, kOpRead, {}}, {2, kOpRead, {}}});
  EXPECT_THROW(so.ProcessBatch(std::move(batch)), std::invalid_argument);
}

TEST(SubOram, DeniedWriteIsDroppedAndDeniedReadReturnsNull) {
  SubOram so = MakeStore(20);
  RequestBatch batch(kValueSize);
  RequestHeader wr;
  wr.key = 5;
  wr.op = kOpWrite;
  wr.granted = 0;
  batch.Append(wr, ValueFor(5, 7));
  RequestHeader rd;
  rd.key = 6;
  rd.op = kOpRead;
  rd.granted = 0;
  rd.client_seq = 1;
  batch.Append(rd, {});
  RequestBatch out = so.ProcessBatch(std::move(batch));
  auto by_key = ResponsesByKey(out);
  EXPECT_EQ(by_key[6], std::vector<uint8_t>(kValueSize, 0));  // denied read: null
  std::vector<uint8_t> v;
  ASSERT_TRUE(so.DebugRead(5, &v));
  EXPECT_EQ(v, ValueFor(5, 0));  // denied write: unchanged
}

TEST(SubOram, RandomizedAgainstReferenceMap) {
  Rng rng(77);
  SubOram so = MakeStore(128, 3);
  std::map<uint64_t, std::vector<uint8_t>> model;
  for (uint64_t k = 0; k < 128; ++k) {
    model[k] = ValueFor(k);
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<std::tuple<uint64_t, uint8_t, std::vector<uint8_t>>> reqs;
    std::map<uint64_t, std::vector<uint8_t>> expected;
    std::map<uint64_t, std::vector<uint8_t>> writes;
    std::vector<uint64_t> used;
    const size_t n = 1 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      uint64_t key = rng.Uniform(128);
      bool dup = false;
      for (uint64_t u : used) {
        dup = dup || (u == key);
      }
      if (dup) {
        continue;
      }
      used.push_back(key);
      if (rng.Uniform(2) == 0) {
        reqs.push_back({key, kOpRead, {}});
        expected[key] = model[key];
      } else {
        auto nv = ValueFor(key, static_cast<uint8_t>(round + 1));
        reqs.push_back({key, kOpWrite, nv});
        expected[key] = model[key];  // pre-state comes back
        writes[key] = nv;
      }
    }
    RequestBatch out = so.ProcessBatch(MakeBatch(reqs));
    auto by_key = ResponsesByKey(out);
    for (const auto& [key, want] : expected) {
      ASSERT_EQ(by_key[key], want) << "round=" << round << " key=" << key;
    }
    for (const auto& [key, nv] : writes) {
      model[key] = nv;
    }
  }
}

TEST(SubOram, TraceIndependentOfRequestContents) {
  // Two batches of the same size against the same store, different keys/ops: the
  // memory access trace must be identical (the paper's Definition 2 simulator).
  auto trace_for = [](std::vector<std::tuple<uint64_t, uint8_t, std::vector<uint8_t>>> reqs) {
    SubOram so = MakeStore(64, /*seed=*/9);  // same seed: same table randomness
    RequestBatch batch = MakeBatch(reqs);
    TraceScope scope;
    so.ProcessBatch(std::move(batch));
    return scope.Digest();
  };
  const uint64_t d1 = trace_for({{1, kOpRead, {}}, {2, kOpRead, {}}, {3, kOpRead, {}}});
  const uint64_t d2 = trace_for({{60, kOpWrite, ValueFor(60, 1)},
                                 {5, kOpRead, {}},
                                 {33, kOpWrite, ValueFor(33, 2)}});
  EXPECT_EQ(d1, d2);
}

TEST(SubOram, EmptyBatchIsFine) {
  SubOram so = MakeStore(10);
  RequestBatch out = so.ProcessBatch(RequestBatch(kValueSize));
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace snoopy
