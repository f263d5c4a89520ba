#include "src/core/request.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/core/snoopy.h"
#include "src/crypto/rng.h"

namespace snoopy {
namespace {

TEST(RequestBatch, SerializeDeserializeRoundTrip) {
  RequestBatch batch(24);
  Rng rng(1);
  for (int i = 0; i < 17; ++i) {
    RequestHeader h;
    h.key = rng.Next64() >> 1;
    h.op = static_cast<uint8_t>(i % 2);
    h.client_id = static_cast<uint64_t>(i);
    h.client_seq = static_cast<uint64_t>(i * 10);
    std::vector<uint8_t> value(24);
    rng.Fill(value.data(), value.size());
    batch.Append(h, value);
  }
  const std::vector<uint8_t> wire = batch.Serialize();
  RequestBatch copy = RequestBatch::Deserialize(wire);
  ASSERT_EQ(copy.size(), batch.size());
  ASSERT_EQ(copy.value_size(), batch.value_size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(copy.Header(i).key, batch.Header(i).key);
    EXPECT_EQ(copy.Header(i).client_seq, batch.Header(i).client_seq);
    EXPECT_EQ(0, std::memcmp(copy.Value(i), batch.Value(i), 24));
  }
}

TEST(RequestBatch, EmptySerializeRoundTrip) {
  RequestBatch batch(160);
  RequestBatch copy = RequestBatch::Deserialize(batch.Serialize());
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(copy.value_size(), 160u);
}

// Deserialize reads host- and client-supplied bytes: every input whose length is not
// exactly 16 + count * (48 + value_size) is refused with the typed error, including
// counts and value sizes whose naive product wraps to the real length.
TEST(RequestBatch, DeserializeRejectsMalformed) {
  RequestBatch batch(160);
  RequestHeader h;
  h.key = 3;
  batch.Append(h, {});
  const std::vector<uint8_t> good = batch.Serialize();
  ASSERT_EQ(good.size(), 16u + 208u);
  ASSERT_EQ(RequestBatch::Deserialize(good).size(), 1u);
  const auto with = [&](uint64_t value_size, uint64_t count, size_t len) {
    std::vector<uint8_t> bytes(good.begin(), good.end());
    bytes.resize(len);
    std::memcpy(bytes.data(), &value_size, 8);
    std::memcpy(bytes.data() + 8, &count, 8);
    return bytes;
  };
  for (size_t len = 0; len < 16; ++len) {  // short
    EXPECT_THROW(RequestBatch::Deserialize(std::vector<uint8_t>(good.begin(), good.begin() + len)),
                 MalformedBatchError)
        << len;
  }
  for (const size_t len : {size_t{16}, good.size() - 1, good.size() + 1}) {  // ragged
    EXPECT_THROW(RequestBatch::Deserialize(with(160, 1, len)), MalformedBatchError) << len;
  }
  EXPECT_THROW(RequestBatch::Deserialize(with(160, 0, good.size())), MalformedBatchError);
  EXPECT_THROW(RequestBatch::Deserialize(with(160, 3, good.size())), MalformedBatchError);
  // 2^61 records of 208 bytes wrap to 0 bytes, and 2^61 + 1 to one record's worth.
  const uint64_t wrap = uint64_t{1} << 61;
  EXPECT_THROW(RequestBatch::Deserialize(with(160, wrap, 16)), MalformedBatchError);
  EXPECT_THROW(RequestBatch::Deserialize(with(160, wrap + 1, good.size())), MalformedBatchError);
  // Value sizes whose record size is huge or wraps past 2^64.
  for (const uint64_t vs : {uint64_t{1} << 62, ~uint64_t{0} - 47, ~uint64_t{0}}) {
    EXPECT_THROW(RequestBatch::Deserialize(with(vs, 1, good.size())), MalformedBatchError) << vs;
  }
  EXPECT_THROW(RequestBatch::Deserialize(with(~uint64_t{0}, 0, 16)), MalformedBatchError);
  EXPECT_EQ(RequestBatch::Deserialize(with(160, 0, 16)).size(), 0u) << "empty batch is fine";
}

TEST(RequestBatch, ValueTruncationOnAppend) {
  RequestBatch batch(8);
  RequestHeader h;
  std::vector<uint8_t> big(20, 0xAA);
  batch.Append(h, big);  // larger than value_size: truncated, no overflow
  EXPECT_EQ(batch.Value(0)[7], 0xAA);
}

TEST(RequestHeader, FieldOffsetsMatchSchemas) {
  // The oblivious routines address fields by byte offset; a layout change must break
  // loudly here rather than silently corrupt batches.
  EXPECT_EQ(offsetof(RequestHeader, key), kRequestOhtSchema.key_offset);
  EXPECT_EQ(offsetof(RequestHeader, bin), kRequestBinSchema.bin_offset);
  EXPECT_EQ(offsetof(RequestHeader, dummy), kRequestBinSchema.dummy_offset);
  EXPECT_EQ(offsetof(RequestHeader, order), kRequestBinSchema.order_offset);
  EXPECT_EQ(offsetof(RequestHeader, dedup), kRequestBinSchema.dedup_offset);
  EXPECT_EQ(sizeof(RequestHeader), RequestBatch::kHeaderBytes);
}

TEST(ObliviousInit, MatchesPlainInitBehaviour) {
  // Both initialization paths must produce identical stores: every key readable with
  // its value, partitioned to the same subORAMs.
  for (const bool oblivious : {false, true}) {
    SnoopyConfig cfg;
    cfg.num_suborams = 3;
    cfg.value_size = 16;
    cfg.lambda = 40;
    cfg.oblivious_init = oblivious;
    auto store = std::make_unique<Snoopy>(cfg, /*seed=*/42);  // same seed: same hash key
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 200; ++k) {
      objects.emplace_back(k, std::vector<uint8_t>(16, static_cast<uint8_t>(k)));
    }
    store->Initialize(objects);
    for (uint64_t k = 0; k < 200; k += 17) {
      store->SubmitRead(1, k, k);
    }
    for (const ClientResponse& resp : store->RunEpoch()) {
      EXPECT_EQ(resp.value, std::vector<uint8_t>(16, static_cast<uint8_t>(resp.key)))
          << "oblivious=" << oblivious << " key=" << resp.key;
    }
  }
}

}  // namespace
}  // namespace snoopy
