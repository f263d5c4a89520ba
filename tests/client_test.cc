#include "src/core/client.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace snoopy {
namespace {

constexpr size_t kValueSize = 32;

std::vector<uint8_t> ValueFor(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

std::unique_ptr<Snoopy> MakeDeployment(uint32_t lbs, uint32_t sos) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = lbs;
  cfg.num_suborams = sos;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 8);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 80; ++k) {
    objects.emplace_back(k, ValueFor(k));
  }
  store->Initialize(objects);
  return store;
}

TEST(SnoopyClient, EncryptedRoundTrip) {
  auto store = MakeDeployment(2, 2);
  SnoopyClient alice(*store, /*client_id=*/100, /*seed=*/1);
  const uint64_t s1 = alice.Read(7);
  const uint64_t s2 = alice.Write(9, ValueFor(9, 3));
  EXPECT_TRUE(alice.FetchResponses().empty()) << "nothing before the epoch executes";

  EXPECT_TRUE(store->RunEpoch().empty()) << "registered clients' responses go sealed";
  std::map<uint64_t, std::vector<uint8_t>> by_seq;
  for (const auto& resp : alice.FetchResponses()) {
    by_seq[resp.client_seq] = resp.value;
  }
  ASSERT_EQ(by_seq.size(), 2u);
  EXPECT_EQ(by_seq[s1], ValueFor(7));
  EXPECT_EQ(by_seq[s2], ValueFor(9)) << "write returns pre-state";

  // Next epoch sees the write.
  const uint64_t s3 = alice.Read(9);
  store->RunEpoch();
  const auto resp = alice.FetchResponses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].client_seq, s3);
  EXPECT_EQ(resp[0].value, ValueFor(9, 3));
}

TEST(SnoopyClient, MultipleClientsGetTheirOwnMail) {
  auto store = MakeDeployment(2, 3);
  SnoopyClient alice(*store, 1, 1);
  SnoopyClient bob(*store, 2, 2);
  alice.Read(10);
  bob.Read(20);
  bob.Read(10);  // same object as Alice: dedup inside the balancer if co-located
  store->RunEpoch();
  const auto a = alice.FetchResponses();
  const auto b = bob.FetchResponses();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].value, ValueFor(10));
  for (const auto& resp : b) {
    EXPECT_EQ(resp.value, ValueFor(resp.key));
  }
  EXPECT_TRUE(alice.FetchResponses().empty()) << "mailbox drains on fetch";
}

TEST(SnoopyClient, DuplicateRegistrationRejected) {
  auto store = MakeDeployment(1, 1);
  SnoopyClient alice(*store, 5, 1);
  EXPECT_THROW(SnoopyClient(*store, 5, 2), std::invalid_argument);
}

TEST(SnoopyClient, UnregisteredSubmissionsStillReturnPlainly) {
  // Mixing the low-level Submit* API (tests, embedding) with registered clients.
  auto store = MakeDeployment(1, 2);
  SnoopyClient alice(*store, 100, 1);
  alice.Read(3);
  store->SubmitRead(/*client_id=*/999, /*client_seq=*/0, /*key=*/4);  // unregistered
  const auto plain = store->RunEpoch();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].client_id, 999u);
  EXPECT_EQ(plain[0].value, ValueFor(4));
  ASSERT_EQ(alice.FetchResponses().size(), 1u);
}

// The client endpoint decodes client-controlled plaintext. A malformed batch (ragged,
// too many records, a foreign value size) is refused whole and leaves the epoch queue
// untouched; a forged client id is answered into the sender's own mailbox.
TEST(SnoopyClient, MalformedOrForgedRequestIsContained) {
  auto store = MakeDeployment(1, 2);
  SnoopyClient alice(*store, 100, 1);
  SnoopyClient bob(*store, 200, 2);
  const auto send = [&](uint64_t client_id, const std::vector<uint8_t>& plain) {
    const std::vector<uint8_t> sealed = store->client_link(client_id, 0).a_to_b().Seal(plain);
    return store->network_mutable().Call("client/" + std::to_string(client_id),
                                         "lb/0/client/" + std::to_string(client_id), sealed);
  };
  RequestHeader h;
  h.key = 7;
  h.client_id = 100;  // Alice's id, sent over Bob's session below
  h.client_seq = 5;
  RequestBatch one(kValueSize);
  one.Append(h, {});
  std::vector<uint8_t> ragged = one.Serialize();
  ragged.push_back(0);
  std::vector<uint8_t> too_many = one.Serialize();
  too_many[8] = 3;  // count field claims three records
  RequestBatch foreign(kValueSize * 2);
  foreign.Append(h, {});
  for (const std::vector<uint8_t>& plain : {ragged, too_many, foreign.Serialize()}) {
    EXPECT_THROW(send(200, plain), MalformedBatchError);
    EXPECT_EQ(store->pending_requests(), 0u);
  }

  const std::vector<uint8_t> ack = send(200, one.Serialize());
  ASSERT_EQ(ack, std::vector<uint8_t>{1});
  EXPECT_EQ(store->pending_requests(), 1u);
  store->RunEpoch();
  EXPECT_TRUE(alice.FetchResponses().empty()) << "a forged id reaches no other mailbox";
  const auto b = bob.FetchResponses();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].client_seq, 5u);
  EXPECT_EQ(b[0].value, ValueFor(7));
}

// The mailbox is host storage and its balancer id is plaintext. A blob that is too
// short or names a balancer the deployment does not have is refused like a malformed
// entry, before the id picks a link; a genuine blob relabelled with another real
// balancer fails authentication. None of them costs the client its genuine response.
TEST(SnoopyClient, HostForgedMailboxBlobIsRefused) {
  auto store = MakeDeployment(2, 2);
  SnoopyClient alice(*store, 100, 1);
  const uint64_t seq = alice.Read(7);
  store->RunEpoch();
  std::vector<std::vector<uint8_t>> mail = store->TakeMailbox(100);
  ASSERT_EQ(mail.size(), 1u);
  const std::vector<uint8_t> genuine = mail[0];
  uint32_t lb = 0;
  std::memcpy(&lb, genuine.data(), 4);
  ASSERT_LT(lb, 2u);

  const auto relabelled = [&](uint32_t id) {
    std::vector<uint8_t> blob = genuine;
    std::memcpy(blob.data(), &id, 4);
    return blob;
  };
  const std::vector<std::vector<uint8_t>> forged = {
      {}, {0, 0, 0}, relabelled(2), relabelled(1000), relabelled(0xFFFFFFFFu),
      relabelled(1 - lb)};
  for (const std::vector<uint8_t>& blob : forged) {
    store->host_append_mailbox(100, blob);
    EXPECT_THROW(alice.FetchResponses(), std::runtime_error) << blob.size();
  }

  store->host_append_mailbox(100, genuine);
  const auto resp = alice.FetchResponses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].client_seq, seq);
  EXPECT_EQ(resp[0].value, ValueFor(7));
}

}  // namespace
}  // namespace snoopy
