#include "src/net/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/net/network.h"

namespace snoopy {
namespace {

Aead::Key TestKey() {
  Aead::Key key{};
  Rng rng(55);
  rng.Fill(key.data(), key.size());
  return key;
}

TEST(SecureChannel, RoundTripsMessagesInOrder) {
  const Aead::Key key = TestKey();
  SecureChannel sender(key, 1);
  SecureChannel receiver(key, 1);
  for (int i = 0; i < 10; ++i) {
    std::vector<uint8_t> msg(100, static_cast<uint8_t>(i));
    const std::vector<uint8_t> sealed = sender.Seal(msg);
    std::vector<uint8_t> opened;
    ASSERT_TRUE(receiver.Open(sealed, opened));
    EXPECT_EQ(opened, msg);
  }
  EXPECT_EQ(sender.messages_sealed(), 10u);
  EXPECT_EQ(receiver.messages_opened(), 10u);
}

TEST(SecureChannel, RejectsReplay) {
  const Aead::Key key = TestKey();
  SecureChannel sender(key, 2);
  SecureChannel receiver(key, 2);
  const std::vector<uint8_t> msg = {1, 2, 3};
  const std::vector<uint8_t> sealed = sender.Seal(msg);
  std::vector<uint8_t> opened;
  ASSERT_TRUE(receiver.Open(sealed, opened));
  // Replaying the same ciphertext must fail: the receiver's counter moved on.
  EXPECT_FALSE(receiver.Open(sealed, opened));
}

TEST(SecureChannel, RejectsReorder) {
  const Aead::Key key = TestKey();
  SecureChannel sender(key, 3);
  SecureChannel receiver(key, 3);
  const std::vector<uint8_t> m1 = sender.Seal(std::vector<uint8_t>{1});
  const std::vector<uint8_t> m2 = sender.Seal(std::vector<uint8_t>{2});
  std::vector<uint8_t> opened;
  EXPECT_FALSE(receiver.Open(m2, opened));  // out of order
  EXPECT_TRUE(receiver.Open(m1, opened));
  EXPECT_TRUE(receiver.Open(m2, opened));  // now in order
}

TEST(SecureChannel, DirectionsAreDomainSeparated) {
  const Aead::Key key = TestKey();
  SecureLink link(key, 7);
  const std::vector<uint8_t> sealed = link.a_to_b().Seal(std::vector<uint8_t>{9});
  std::vector<uint8_t> opened;
  // A message sealed for the a->b direction must not open on b->a.
  SecureLink link2(key, 7);
  EXPECT_FALSE(link2.b_to_a().Open(sealed, opened));
  EXPECT_TRUE(link2.a_to_b().Open(sealed, opened));
}

TEST(Network, RoutesAndCounts) {
  Network net;
  net.Register("echo", [](std::span<const uint8_t> in) {
    return std::vector<uint8_t>(in.begin(), in.end());
  });
  EXPECT_TRUE(net.HasEndpoint("echo"));
  EXPECT_FALSE(net.HasEndpoint("nope"));
  const std::vector<uint8_t> payload(32, 7);
  const std::vector<uint8_t> reply = net.Call("client", "echo", payload);
  EXPECT_EQ(reply, payload);
  EXPECT_EQ(net.stats().messages, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 32u);
  EXPECT_EQ(net.stats().bytes_received, 32u);
  // Unknown endpoints surface as the typed, non-retryable wiring error.
  try {
    net.Call("client", "nope", payload);
    FAIL() << "expected EndpointNotFoundError";
  } catch (const EndpointNotFoundError& e) {
    EXPECT_EQ(e.endpoint(), "nope");
    EXPECT_FALSE(e.retryable());
  }
}

// A gathered call (head + body, never joined by the caller) is the contiguous call of
// head ++ body in every observable: the bytes the handler sees, the byte counts, the
// kMsgSend size in the enclave trace, and, under an injected request corruption with
// the same seed, the flipped bit. A plain handler gets the two parts joined.
TEST(Network, GatheredCallMatchesContiguousFrame) {
  std::vector<uint8_t> frame(300);
  Rng(9).Fill(frame);
  const std::span<const uint8_t> head = std::span<const uint8_t>(frame).first(77);
  const std::span<const uint8_t> body = std::span<const uint8_t>(frame).subspan(77);

  // What the endpoints received, one joined buffer per delivery.
  using Received = std::vector<std::vector<uint8_t>>;
  const auto wire = [](Network& net, Received& got) {
    net.Register("gather", [&got](std::span<const uint8_t> h, std::span<const uint8_t> b) {
      std::vector<uint8_t> joined(h.begin(), h.end());
      joined.insert(joined.end(), b.begin(), b.end());
      got.push_back(joined);
      return std::vector<uint8_t>{1};
    });
    net.Register("plain", [&got](std::span<const uint8_t> in) {
      got.emplace_back(in.begin(), in.end());
      return std::vector<uint8_t>{1};
    });
  };

  for (const char* endpoint : {"gather", "plain"}) {
    Network contiguous_net;
    Network gathered_net;
    Received contiguous;
    Received gathered;
    wire(contiguous_net, contiguous);
    wire(gathered_net, gathered);
    std::vector<TraceEvent> contiguous_trace;
    std::vector<TraceEvent> gathered_trace;
    {
      TraceScope scope;
      contiguous_net.Call("owner", endpoint, frame);
      contiguous_trace = scope.Events();
    }
    {
      TraceScope scope;
      gathered_net.Call("owner", endpoint, head, body);
      gathered_trace = scope.Events();
    }
    ASSERT_EQ(gathered.size(), 1u);
    EXPECT_EQ(gathered, contiguous) << endpoint;
    EXPECT_EQ(gathered[0], frame) << endpoint;
    EXPECT_EQ(gathered_net.stats().bytes_sent, frame.size());
    EXPECT_EQ(gathered_net.stats().bytes_sent, contiguous_net.stats().bytes_sent);
    EXPECT_EQ(gathered_net.stats().messages, contiguous_net.stats().messages);
    EXPECT_TRUE(NonVacuousTraceEq(gathered_trace, contiguous_trace)) << endpoint;
    ASSERT_FALSE(gathered_trace.empty());
    EXPECT_EQ(gathered_trace[0].op, TraceOp::kMsgSend);
    EXPECT_EQ(gathered_trace[0].b, frame.size());
  }

  // Every call corrupts (request or reply, by the stream's coin): with one seed on
  // both sides, each delivery gets the same bit flipped, and some requests are hit.
  FaultProfile corrupt_all;
  corrupt_all.corrupt = 1.0;
  FaultInjector contiguous_faults(21);
  FaultInjector gathered_faults(21);
  contiguous_faults.set_default_profile(corrupt_all);
  gathered_faults.set_default_profile(corrupt_all);
  Network contiguous_net;
  Network gathered_net;
  contiguous_net.set_fault_injector(&contiguous_faults);
  gathered_net.set_fault_injector(&gathered_faults);
  Received contiguous;
  Received gathered;
  wire(contiguous_net, contiguous);
  wire(gathered_net, gathered);
  for (int i = 0; i < 16; ++i) {
    contiguous_net.Call("owner", "gather", frame);
    gathered_net.Call("owner", "gather", head, body);
  }
  EXPECT_EQ(gathered, contiguous);
  EXPECT_EQ(gathered_net.stats().bytes_sent, contiguous_net.stats().bytes_sent);
  EXPECT_EQ(gathered_faults.fired_count(FaultAction::kCorruptRequest),
            contiguous_faults.fired_count(FaultAction::kCorruptRequest));
  const auto hit = std::count_if(gathered.begin(), gathered.end(),
                                 [&](const std::vector<uint8_t>& r) { return r != frame; });
  EXPECT_EQ(static_cast<uint64_t>(hit), gathered_faults.fired_count(FaultAction::kCorruptRequest));
  EXPECT_GT(hit, 0);
}

TEST(SecureChannelTest, RekeyResetsCountersAndSessions) {
  Rng rng(11);
  const Aead::Key key = rng.NextKey32();
  SecureLink lb_end(key, 3);
  SecureLink so_end(key, 3);
  // Advance both directions a few messages into the session.
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> opened;
    ASSERT_TRUE(so_end.a_to_b().Open(lb_end.a_to_b().Seal(std::vector<uint8_t>{1}), opened));
    ASSERT_TRUE(lb_end.b_to_a().Open(so_end.b_to_a().Seal(std::vector<uint8_t>{2}), opened));
  }
  // One end restarts: fresh key, both ends rekey, counters restart at zero and the
  // new session works; bytes sealed under the old session no longer authenticate.
  const std::vector<uint8_t> stale = lb_end.a_to_b().Seal(std::vector<uint8_t>{3});
  const Aead::Key key2 = rng.NextKey32();
  lb_end.Rekey(key2);
  so_end.Rekey(key2);
  std::vector<uint8_t> opened;
  EXPECT_FALSE(so_end.a_to_b().Open(stale, opened));
  EXPECT_TRUE(so_end.a_to_b().Open(lb_end.a_to_b().Seal(std::vector<uint8_t>{4}), opened));
  EXPECT_EQ(opened, std::vector<uint8_t>{4});
}

}  // namespace
}  // namespace snoopy
