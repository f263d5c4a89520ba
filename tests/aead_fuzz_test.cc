// Seeded mutation of sealed bytes through every decoder that authenticates them:
// Aead::Open, SecureChannel::Open and SealedStore::Unseal. Open decrypts while it
// authenticates, so a forged message is fully decrypted before it is refused; each
// decoder must still refuse it with empty output and must never crash. Message
// lengths straddle the AEAD's chunk size and the Poly1305 4- and 8-lane boundaries,
// and the mutations truncate, extend, flip ciphertext, tag and AAD bits, and change
// the nonce. The sanitizer build runs this too.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/rng.h"
#include "src/enclave/rollback.h"
#include "src/net/channel.h"
#include "src/obl/kernels.h"

namespace snoopy {
namespace {

// Zero and very short lengths, lengths on either side of whole 4- and 8-block runs,
// lengths around one and two AEAD chunks, and anything up to three chunks.
size_t FuzzLength(Rng& rng) {
  constexpr size_t kBlock = 16;
  switch (rng.Uniform(4)) {
    case 0:
      return rng.Uniform(2 * kBlock);
    case 1:
      return (4 * (1 + rng.Uniform(8))) * kBlock + rng.Uniform(3) - 1;
    case 2:
      return (1 + rng.Uniform(2)) * Aead::kChunkBytes + rng.Uniform(2 * kBlock + 1) - kBlock;
    default:
      return rng.Uniform(3 * Aead::kChunkBytes);
  }
}

void FlipBit(std::vector<uint8_t>& bytes, size_t lo, size_t hi, Rng& rng) {
  bytes[lo + rng.Uniform(hi - lo)] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
}

// One mutation of (nonce, aad, sealed) that always changes at least one of them.
// Returns false for a mutation the inputs cannot take (flipping an empty AAD).
bool Mutate(Aead::Nonce& nonce, std::vector<uint8_t>& aad, std::vector<uint8_t>& sealed,
            Rng& rng) {
  const size_t ct_len = sealed.size() - Aead::kTagBytes;
  switch (rng.Uniform(6)) {
    case 0:  // truncate, possibly below the tag
      sealed.resize(static_cast<size_t>(rng.Uniform(sealed.size())));
      return true;
    case 1:  // extend
      for (uint64_t n = 1 + rng.Uniform(40); n > 0; --n) {
        sealed.push_back(static_cast<uint8_t>(rng.Next64()));
      }
      return true;
    case 2:  // ciphertext bit
      if (ct_len == 0) {
        return false;
      }
      FlipBit(sealed, 0, ct_len, rng);
      return true;
    case 3:  // tag bit
      FlipBit(sealed, ct_len, sealed.size(), rng);
      return true;
    case 4:  // AAD bit
      if (aad.empty()) {
        return false;
      }
      FlipBit(aad, 0, aad.size(), rng);
      return true;
    default:  // wrong nonce
      nonce[rng.Uniform(nonce.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      return true;
  }
}

class BackendPin {
 public:
  explicit BackendPin(KernelBackend backend) : saved_(ActiveKernelBackend()) {
    SetKernelBackend(backend);
  }
  ~BackendPin() { SetKernelBackend(saved_); }
  BackendPin(const BackendPin&) = delete;
  BackendPin& operator=(const BackendPin&) = delete;

 private:
  KernelBackend saved_;
};

TEST(AeadFuzz, MutatedMessagesAreRefusedWithEmptyOutput) {
  const std::vector<KernelBackend> backends = SupportedKernelBackends();
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const BackendPin pin(backends[seed % backends.size()]);
    Aead::Key key;
    rng.Fill(key.data(), key.size());
    const Aead aead(key);
    const Aead::Nonce nonce = Aead::CounterNonce(rng.Next64(), 3);
    std::vector<uint8_t> aad(rng.Uniform(40));
    rng.Fill(aad.data(), aad.size());
    std::vector<uint8_t> msg(FuzzLength(rng));
    rng.Fill(msg.data(), msg.size());
    const std::vector<uint8_t> sealed = aead.Seal(nonce, aad, msg);
    std::vector<uint8_t> out;
    ASSERT_TRUE(aead.Open(nonce, aad, sealed, out)) << "seed " << seed;
    ASSERT_EQ(out, msg);

    for (int round = 0; round < 8; ++round) {
      Aead::Nonce bad_nonce = nonce;
      std::vector<uint8_t> bad_aad = aad;
      std::vector<uint8_t> bad = sealed;
      if (!Mutate(bad_nonce, bad_aad, bad, rng)) {
        continue;
      }
      out.assign(3, 0xee);
      EXPECT_FALSE(aead.Open(bad_nonce, bad_aad, bad, out))
          << "seed " << seed << " round " << round << " len " << msg.size();
      EXPECT_TRUE(out.empty()) << "seed " << seed << " round " << round;
    }
  }
}

TEST(AeadFuzz, MutatedChannelMessagesAreRefusedAndDoNotAdvanceTheCounter) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(100 + seed);
    Aead::Key key;
    rng.Fill(key.data(), key.size());
    SecureChannel sender(key, 4);
    SecureChannel receiver(key, 4);
    std::vector<uint8_t> msg(FuzzLength(rng));
    rng.Fill(msg.data(), msg.size());
    const std::vector<uint8_t> sealed = sender.Seal(msg);
    for (int round = 0; round < 6; ++round) {
      Aead::Nonce unused_nonce{};
      std::vector<uint8_t> unused_aad = {0};
      std::vector<uint8_t> bad = sealed;
      // The channel owns its nonce and AAD: only the wire bytes can change.
      do {
        bad = sealed;
      } while (!Mutate(unused_nonce, unused_aad, bad, rng) || bad == sealed);
      std::vector<uint8_t> out(5, 0xee);
      EXPECT_FALSE(receiver.Open(bad, out)) << "seed " << seed << " round " << round;
      EXPECT_TRUE(out.empty());
      EXPECT_EQ(receiver.messages_opened(), 0u);
    }
    std::vector<uint8_t> out;
    ASSERT_TRUE(receiver.Open(sealed, out)) << "seed " << seed;
    EXPECT_EQ(out, msg);
  }
}

TEST(AeadFuzz, MutatedSnapshotsAreCorrupt) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(200 + seed);
    Aead::Key key;
    rng.Fill(key.data(), key.size());
    MonotonicCounterService counters;
    SealedStore store(key, &counters);
    const uint64_t id = counters.Create();
    std::vector<uint8_t> payload(FuzzLength(rng));
    rng.Fill(payload.data(), payload.size());
    const std::vector<uint8_t> blob = store.Seal(id, payload);
    for (int round = 0; round < 6; ++round) {
      std::vector<uint8_t> bad = blob;
      switch (rng.Uniform(3)) {
        case 0:
          bad.resize(static_cast<size_t>(rng.Uniform(bad.size())));
          break;
        case 1:
          for (uint64_t n = 1 + rng.Uniform(40); n > 0; --n) {
            bad.push_back(static_cast<uint8_t>(rng.Next64()));
          }
          break;
        default:  // any byte: the version (nonce and AAD), payload or tag
          FlipBit(bad, 0, bad.size(), rng);
          break;
      }
      std::vector<uint8_t> out;
      EXPECT_EQ(store.Unseal(id, bad, &out), UnsealStatus::kCorrupt)
          << "seed " << seed << " round " << round;
      EXPECT_TRUE(out.empty());
    }
    std::vector<uint8_t> out;
    ASSERT_EQ(store.Unseal(id, blob, &out), UnsealStatus::kOk);
    EXPECT_EQ(out, payload);
  }
}

}  // namespace
}  // namespace snoopy
