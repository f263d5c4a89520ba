// The striping module on its own: the repair planner over hand-built manifests, a
// full encode -> store -> plan -> fetch -> reassemble round trip, and a seeded
// mutation run over every decoder that reads host-supplied stripe bytes. No
// deployment is built.

#include "src/core/striping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "src/crypto/rng.h"
#include "src/net/fault.h"

namespace snoopy {
namespace {

StripingConfig Config(uint32_t replicas, bool xor_parity) {
  StripingConfig sc;
  sc.replicas = replicas;
  sc.xor_parity = xor_parity;
  return sc;
}

StripeManifest Manifest(uint32_t peer, uint64_t seal_counter, uint32_t chunk_index,
                        uint32_t chunk_count, uint64_t blob_len) {
  StripeManifest m;
  m.peer = peer;
  m.seal_counter = seal_counter;
  m.chunk_index = chunk_index;
  m.chunk_count = chunk_count;
  m.blob_len = blob_len;
  m.chunk_len = blob_len / chunk_count + (blob_len % chunk_count != 0 ? 1 : 0);
  return m;
}

// (peer, stored chunk index) per data chunk of the plan.
std::vector<std::pair<uint32_t, uint32_t>> Sources(const RepairPlan& plan) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const StripeManifest& m : plan.sources) {
    out.emplace_back(m.peer, m.chunk_index);
  }
  return out;
}

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

TEST(StripingPlan, PicksFreshestCompleteGeneration) {
  // Replication: any one full copy of the freshest seal wins.
  const std::vector<StripeManifest> copies = {Manifest(1, 5, 0, 1, 100),
                                              Manifest(2, 7, 0, 1, 120)};
  const std::optional<RepairPlan> plan = PlanStripeRepair(copies);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(Sources(*plan), (Pairs{{2, 0}}));
  EXPECT_EQ(plan->sources[0].seal_counter, 7u);
  EXPECT_EQ(plan->parity_substituted, -1);
  ASSERT_EQ(plan->buffers.size(), 1u);
  EXPECT_EQ(plan->buffers[0].size(), 120u);
  EXPECT_EQ(plan->total_bytes(), 120u);

  // Parity: generation 9 kept only one of two data chunks and no parity, so the
  // complete generation 8 is chosen.
  const std::vector<StripeManifest> parity = {
      Manifest(1, 9, 0, 2, 99), Manifest(2, 8, 1, 2, 99), Manifest(3, 8, 2, 2, 99),
      Manifest(4, 8, 0, 2, 99)};
  const std::optional<RepairPlan> older = PlanStripeRepair(parity);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(older->sources[0].seal_counter, 8u);
  EXPECT_EQ(Sources(*older), (Pairs{{4, 0}, {2, 1}}));
  EXPECT_EQ(older->parity_substituted, -1) << "no hole, so the parity chunk is unused";
  EXPECT_EQ(older->chunk_len(), 50u);
}

TEST(StripingPlan, ParityFillsExactlyOneHole) {
  // Three data chunks; chunk 1's peer is gone, the parity chunk (index 3) stands in.
  const std::vector<StripeManifest> gen = {Manifest(1, 4, 0, 3, 300), Manifest(3, 4, 2, 3, 300),
                                           Manifest(4, 4, 3, 3, 300)};
  const std::optional<RepairPlan> plan = PlanStripeRepair(gen);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->parity_substituted, 1);
  EXPECT_EQ(Sources(*plan), (Pairs{{1, 0}, {4, 3}, {3, 2}}));
}

TEST(StripingPlan, TwoHolesGiveNoPlan) {
  EXPECT_FALSE(PlanStripeRepair(std::vector<StripeManifest>{Manifest(1, 4, 0, 3, 300),
                                                            Manifest(4, 4, 3, 3, 300)}));
  // One hole with no parity chunk to fill it.
  EXPECT_FALSE(PlanStripeRepair(std::vector<StripeManifest>{Manifest(1, 4, 0, 3, 300),
                                                            Manifest(2, 4, 1, 3, 300)}));
  EXPECT_FALSE(PlanStripeRepair(std::vector<StripeManifest>{}));
}

TEST(StripingPlan, MixedGeometryGenerationIsSkipped) {
  // Generation 6's two copies disagree on the snapshot length: host tampering, so the
  // older but consistent generation 5 is planned instead.
  const std::vector<StripeManifest> manifests = {
      Manifest(1, 6, 0, 1, 100), Manifest(2, 6, 0, 1, 101), Manifest(3, 5, 0, 1, 90)};
  const std::optional<RepairPlan> plan = PlanStripeRepair(manifests);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(Sources(*plan), (Pairs{{3, 0}}));
  EXPECT_EQ(plan->sources[0].seal_counter, 5u);

  // Parity: lengths 99 and 100 share a 50-byte chunk, so only the snapshot length
  // tells generation 6's chunks apart.
  const std::vector<StripeManifest> chunks = {
      Manifest(1, 6, 0, 2, 99), Manifest(2, 6, 1, 2, 100), Manifest(3, 5, 0, 2, 99),
      Manifest(4, 5, 1, 2, 99)};
  const std::optional<RepairPlan> older = PlanStripeRepair(chunks);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(Sources(*older), (Pairs{{3, 0}, {4, 1}}));
}

// A store request as one contiguous frame: the header, then the payload.
std::vector<uint8_t> Joined(const StripeStoreFrame& frame) {
  std::vector<uint8_t> out(frame.header.begin(), frame.header.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

// One owner's stripes on `peers` hosts, as the seal would push them: header and
// payload as the two parts of a gathered request.
std::vector<StripeStore> Stripe(const StripingConfig& sc, uint32_t owner, uint64_t counter,
                                const std::vector<uint8_t>& blob) {
  const StripeEncoding enc = EncodeStripes(sc, owner, counter, blob);
  const size_t peers = sc.replicas + (sc.xor_parity ? 1 : 0);
  std::vector<StripeStore> hosts(peers);
  for (size_t rank = 0; rank < peers; ++rank) {
    const StripeStoreFrame frame = EncodeStripeStore(sc, owner, blob, enc, rank);
    const std::vector<uint8_t> ack =
        ServeStripeRequest(hosts[rank], frame.header, frame.payload, "peer");
    EXPECT_EQ(ack, std::vector<uint8_t>{1});
  }
  return hosts;
}

TEST(StripingPlan, ReassemblesSnapshotFromSurvivingStripes) {
  Rng rng(3);
  for (const bool xor_parity : {false, true}) {
    for (const size_t blob_len : {size_t{1}, size_t{97}, size_t{1000}}) {
      const StripingConfig sc = Config(3, xor_parity);
      std::vector<uint8_t> blob(blob_len);
      rng.Fill(blob);
      const uint32_t owner = 2;
      std::vector<StripeStore> hosts = Stripe(sc, owner, 11, blob);
      hosts[1].clear();  // one peer lost its stripes
      std::vector<StripeManifest> manifests;
      for (uint32_t peer = 0; peer < hosts.size(); ++peer) {
        const std::optional<StripeManifest> m = DecodeStripeManifest(
            sc, peer, ServeStripeRequest(hosts[peer], EncodeStripeManifestQuery(owner), {}, "p"),
            blob.size());
        if (m) {
          manifests.push_back(*m);
        }
      }
      std::optional<RepairPlan> plan = PlanStripeRepair(manifests);
      ASSERT_TRUE(plan.has_value());
      EXPECT_EQ(plan->parity_substituted, xor_parity ? 1 : -1);
      // Fetch in odd-sized slices, each reply checked as the retried call checks it.
      const uint64_t total = plan->total_bytes();
      while (plan->cursor < total) {
        const size_t idx = static_cast<size_t>(plan->cursor / plan->chunk_len());
        const uint64_t off = plan->cursor % plan->chunk_len();
        const uint64_t len = std::min<uint64_t>(37, plan->chunk_len() - off);
        const StripeManifest& src = plan->sources[idx];
        const std::vector<uint8_t> request =
            EncodeStripeFetch(owner, src.seal_counter, src.chunk_index, off, len);
        const std::vector<uint8_t> reply = ServeStripeRequest(hosts[src.peer], request, {}, "p");
        CheckStripeReply(request, reply, "p");
        std::memcpy(plan->buffers[idx].data() + off, StripeFetchPayload(reply).data(), len);
        plan->cursor += len;
      }
      EXPECT_EQ(ReassembleSnapshot(*plan), blob) << xor_parity << " " << blob_len;
    }
  }
}

// --- Seeded mutation of host-supplied stripe bytes -----------------------------------

// Request header layout: op(1) owner(4) seal_counter(8) chunk_index(4)
// chunk_count(4) blob_len(8) offset(8) len(8) digest(32); op 2 is a fetch.
constexpr uint8_t kFetchOp = 2;
constexpr size_t kOffsetAt = 29;
constexpr size_t kLenAt = 37;

// Whether two fetch requests name the same owner, seal, chunk and byte range (the
// fields the reply digest covers).
bool SameAddressing(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  return a.size() >= kLenAt + 8 && b.size() >= kLenAt + 8 &&
         std::equal(a.begin() + 1, a.begin() + 17, b.begin() + 1) &&
         std::equal(a.begin() + kOffsetAt, a.begin() + kLenAt + 8, b.begin() + kOffsetAt);
}

// Two host stores hold the same stripes, field for field.
void ExpectSameStore(const StripeStore& a, const StripeStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [owner, s] : a) {
    ASSERT_EQ(b.count(owner), 1u);
    const HostStripe& t = b.at(owner);
    EXPECT_EQ(s.seal_counter, t.seal_counter);
    EXPECT_EQ(s.chunk_index, t.chunk_index);
    EXPECT_EQ(s.chunk_count, t.chunk_count);
    EXPECT_EQ(s.blob_len, t.blob_len);
    EXPECT_EQ(s.payload, t.payload);
  }
}

// Truncates, extends, flips bits, or sets the header's offset or length field near
// 2^64.
std::vector<uint8_t> Mutate(std::vector<uint8_t> frame, Rng& rng) {
  switch (rng.Uniform(5)) {
    case 0:
      frame.resize(static_cast<size_t>(rng.Uniform(frame.size())));
      break;
    case 1:
      for (uint64_t n = 1 + rng.Uniform(64); n > 0; --n) {
        frame.push_back(static_cast<uint8_t>(rng.Next64()));
      }
      break;
    case 2:
      for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
        frame[rng.Uniform(frame.size())] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      break;
    default: {
      const size_t at = rng.Uniform(2) == 0 ? kOffsetAt : kLenAt;
      if (frame.size() >= at + 8) {
        const uint64_t near = ~uint64_t{0} - rng.Uniform(2 * frame.size() + 2);
        std::memcpy(frame.data() + at, &near, 8);
      }
      break;
    }
  }
  return frame;
}

// What a decoded manifest may promise: geometry the config could have produced, for
// a snapshot no longer than the owner's sealed one.
void ExpectSaneManifest(const StripingConfig& sc, const StripeManifest& m,
                        uint64_t max_blob_len) {
  EXPECT_LE(m.blob_len, max_blob_len);
  const StripeGeometry g = StripeGeometryOf(sc, m.blob_len);
  EXPECT_EQ(m.chunk_count, g.chunk_count);
  EXPECT_LE(m.chunk_index, g.chunk_count);
  EXPECT_EQ(m.chunk_len, g.chunk_len);
}

TEST(StripingFuzz, MutatedFramesAreRefusedOrDropped) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const StripingConfig sc = Config(rng.Uniform(2) == 0 ? 1 : 2, rng.Uniform(2) == 0);
    std::vector<uint8_t> blob(1 + rng.Uniform(600));
    rng.Fill(blob);
    const uint32_t owner = static_cast<uint32_t>(rng.Uniform(8));
    const StripeEncoding enc = EncodeStripes(sc, owner, 1 + rng.Uniform(1000), blob);
    const size_t rank = rng.Uniform(sc.replicas + (sc.xor_parity ? 1 : 0));
    const std::vector<uint8_t> store_frame = Joined(EncodeStripeStore(sc, owner, blob, enc, rank));
    StripeStore host;
    ServeStripeRequest(host, store_frame, {}, "peer");
    const HostStripe& held = host.at(owner);
    const std::vector<uint8_t> manifest_frame = EncodeStripeManifestQuery(owner);
    const std::vector<uint8_t> manifest_reply =
        ServeStripeRequest(host, manifest_frame, {}, "peer");
    ASSERT_TRUE(DecodeStripeManifest(sc, 0, manifest_reply, blob.size()).has_value());
    // A host claiming a longer snapshot under consistent geometry (reply layout:
    // present(1) id(24) chunk_len(8), blob_len at byte 17) is dropped by the sealed
    // size bound alone.
    std::vector<uint8_t> inflated = manifest_reply;
    const uint64_t claimed = blob.size() + 1 + rng.Uniform(uint64_t{1} << 61);
    const uint64_t claimed_chunk = StripeGeometryOf(sc, claimed).chunk_len;
    std::memcpy(inflated.data() + 17, &claimed, 8);
    std::memcpy(inflated.data() + 25, &claimed_chunk, 8);
    EXPECT_TRUE(DecodeStripeManifest(sc, 0, inflated, claimed).has_value());
    EXPECT_FALSE(DecodeStripeManifest(sc, 0, inflated, blob.size()).has_value());
    const uint64_t off = rng.Uniform(held.payload.size());
    const std::vector<uint8_t> fetch_frame = EncodeStripeFetch(
        owner, held.seal_counter, held.chunk_index, off,
        rng.Uniform(held.payload.size() - off + 1));
    const std::vector<uint8_t> fetch_reply = ServeStripeRequest(host, fetch_frame, {}, "peer");
    ASSERT_NO_THROW(CheckStripeReply(fetch_frame, fetch_reply, "peer"));

    // Split points for the gathered path come from their own stream, so the mutation
    // sequence above and below is the contiguous-only run's.
    Rng split_rng(~seed);
    // The genuine store as a gathered request split anywhere, the header included,
    // stores exactly what the contiguous frame stored.
    {
      const size_t split = static_cast<size_t>(split_rng.Uniform(store_frame.size() + 1));
      StripeStore split_host;
      ServeStripeRequest(split_host, std::span(store_frame).first(split),
                         std::span(store_frame).subspan(split), "peer");
      ExpectSameStore(split_host, host);
    }

    for (int round = 0; round < 12; ++round) {
      // The host handler: IntegrityError, or a reply that leaves a stored stripe
      // identical in every digest-covered field and still only decodable as a sane
      // manifest. The same bytes through the gathered path, split at a random offset
      // (inside the header, or past a truncated frame's end), get the same verdict,
      // the same reply and the same store.
      for (const std::vector<uint8_t>* frame : {&store_frame, &manifest_frame, &fetch_frame}) {
        const std::vector<uint8_t> bad = Mutate(*frame, rng);
        const size_t split = static_cast<size_t>(
            split_rng.Uniform(2) == 0 ? split_rng.Uniform(kStripeHeaderBytes + 1)
                                      : split_rng.Uniform(bad.size() + 1));
        StripeStore split_copy = host;
        std::optional<std::vector<uint8_t>> split_reply;
        try {
          const std::span<const uint8_t> whole(bad);
          const size_t at = std::min(split, bad.size());
          split_reply =
              ServeStripeRequest(split_copy, whole.first(at), whole.subspan(at), "peer");
        } catch (const IntegrityError&) {
        }
        StripeStore copy = host;
        try {
          const std::vector<uint8_t> reply = ServeStripeRequest(copy, bad, {}, "peer");
          EXPECT_EQ(split_reply, std::optional(reply)) << "seed " << seed;
          for (const auto& [who, s] : copy) {
            ASSERT_EQ(who, owner) << "seed " << seed;
            EXPECT_EQ(s.seal_counter, held.seal_counter);
            EXPECT_EQ(s.chunk_index, held.chunk_index);
            EXPECT_EQ(s.payload, held.payload);
            const std::optional<StripeManifest> m = DecodeStripeManifest(
                sc, 0, ServeStripeRequest(copy, manifest_frame, {}, "peer"), blob.size());
            if (m) {
              ExpectSaneManifest(sc, *m, blob.size());
              EXPECT_EQ(m->chunk_len, s.payload.size()) << "an honest host reports what it holds";
            }
          }
          if (bad[0] == kFetchOp) {
            CheckStripeReply(bad, reply, "peer");  // a served slice always verifies
          }
        } catch (const IntegrityError&) {
          EXPECT_FALSE(split_reply.has_value()) << "seed " << seed;
        }
        ExpectSameStore(split_copy, copy);
      }
      // The manifest decoder: dropped, or sane.
      const std::optional<StripeManifest> m =
          DecodeStripeManifest(sc, 0, Mutate(manifest_reply, rng), blob.size());
      if (m) {
        ExpectSaneManifest(sc, *m, blob.size());
      }
      // The fetch-reply check: any change to the reply is an IntegrityError; a changed
      // request passes only if its addressing still matches the reply.
      const std::vector<uint8_t> bad_reply = Mutate(fetch_reply, rng);
      if (bad_reply != fetch_reply) {
        EXPECT_THROW(CheckStripeReply(fetch_frame, bad_reply, "peer"), IntegrityError)
            << "seed " << seed;
      }
      const std::vector<uint8_t> bad_request = Mutate(fetch_frame, rng);
      try {
        CheckStripeReply(bad_request, fetch_reply, "peer");
        if (!bad_request.empty() && bad_request[0] == kFetchOp) {
          EXPECT_TRUE(SameAddressing(bad_request, fetch_frame)) << "seed " << seed;
        }
      } catch (const IntegrityError&) {
      }
    }
  }
}

// Offset and length fields near 2^64 never reach past the held stripe.
TEST(StripingFuzz, FetchRangeNearTwoToTheSixtyFourIsRefused) {
  const StripingConfig sc = Config(1, false);
  const std::vector<uint8_t> blob(64, 7);
  StripeStore host;
  ServeStripeRequest(
      host, Joined(EncodeStripeStore(sc, 0, blob, EncodeStripes(sc, 0, 3, blob), 0)), {}, "peer");
  const uint64_t top = ~uint64_t{0};
  for (const auto& [offset, len] : std::vector<std::pair<uint64_t, uint64_t>>{
           {top, 2}, {top - 31, 64}, {32, top - 31}, {0, top}, {65, 0}}) {
    EXPECT_THROW(ServeStripeRequest(host, EncodeStripeFetch(0, 3, 0, offset, len), {}, "peer"),
                 IntegrityError)
        << offset << " " << len;
    // Nor does a reply whose size matches the wrapped `32 + len`.
    const uint64_t wrapped = 32 + len;
    EXPECT_THROW(CheckStripeReply(EncodeStripeFetch(0, 3, 0, offset, len),
                                  std::vector<uint8_t>(static_cast<size_t>(wrapped & 0xffff)),
                                  "peer"),
                 IntegrityError);
  }
}

// A store whose digest fails leaves the held stripe as it was; a store that passes
// overwrites the held stripe in place, reusing its payload buffer.
TEST(StripingHost, FailedStoreKeepsTheHeldStripeAndAGoodStoreReusesItsBuffer) {
  const StripingConfig sc = Config(1, false);
  std::vector<uint8_t> blob(4096);
  Rng rng(17);
  rng.Fill(blob);
  StripeStore host;
  ServeStripeRequest(
      host, Joined(EncodeStripeStore(sc, 2, blob, EncodeStripes(sc, 2, 3, blob), 0)), {}, "peer");
  const uint8_t* const buffer = host.at(2).payload.data();

  std::vector<uint8_t> next = blob;
  next[0] ^= 0xff;
  std::vector<uint8_t> corrupt =
      Joined(EncodeStripeStore(sc, 2, next, EncodeStripes(sc, 2, 4, next), 0));
  corrupt.back() ^= 1;  // the last payload byte: the digest no longer matches
  EXPECT_THROW(ServeStripeRequest(host, corrupt, {}, "peer"), IntegrityError);
  EXPECT_EQ(host.at(2).seal_counter, 3u);
  EXPECT_EQ(host.at(2).payload, blob);

  ServeStripeRequest(
      host, Joined(EncodeStripeStore(sc, 2, next, EncodeStripes(sc, 2, 4, next), 0)), {}, "peer");
  EXPECT_EQ(host.at(2).seal_counter, 4u);
  EXPECT_EQ(host.at(2).payload, next);
  EXPECT_EQ(host.at(2).payload.data(), buffer);
}

}  // namespace
}  // namespace snoopy
