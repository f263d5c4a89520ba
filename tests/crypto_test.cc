#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/hmac.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"
#include "src/obl/kernels.h"

namespace snoopy {
namespace {

std::string HexOf(std::span<const uint8_t> bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::vector<uint8_t> FromHex(std::string_view hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nib = [](char c) -> uint8_t {
      if (c >= '0' && c <= '9') {
        return static_cast<uint8_t>(c - '0');
      }
      return static_cast<uint8_t>(c - 'a' + 10);
    };
    out.push_back(static_cast<uint8_t>((nib(hex[i]) << 4) | nib(hex[i + 1])));
  }
  return out;
}

// ---------------------------------------------------------------- SHA-256 (FIPS 180-4)

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexOf(Sha256::Hash("", 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string two_blocks = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HexOf(Sha256::Hash(two_blocks.data(), two_blocks.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(HexOf(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::vector<uint8_t> msg(300);
  Rng rng(5);
  rng.Fill(msg.data(), msg.size());
  for (size_t split = 0; split <= msg.size(); split += 37) {
    Sha256 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Finalize(), Sha256::Hash(msg.data(), msg.size()));
  }
}

// Pins the kernel backend for one scope, restoring the previous choice on exit.
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

Sha256::Digest ScalarHash(const uint8_t* data, size_t len) {
  const BackendPin pin(KernelBackend::kGeneric);
  return Sha256::Hash(data, len);
}

// The dispatched compression (SHA-NI where the CPU has it) against the scalar one,
// at every length up to 1 KiB and at 1 MiB, from every misalignment of the input.
TEST(Sha256, DispatchedMatchesScalarAtEveryLengthAndAlignment) {
  std::vector<uint8_t> buf((1u << 20) + 16);
  Rng rng(21);
  rng.Fill(buf.data(), buf.size());
  for (size_t misalign = 0; misalign < 16; ++misalign) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Sha256::Hash(buf.data() + misalign, len),
                ScalarHash(buf.data() + misalign, len))
          << "len " << len << " misalign " << misalign;
    }
    ASSERT_EQ(Sha256::Hash(buf.data() + misalign, 1u << 20),
              ScalarHash(buf.data() + misalign, 1u << 20))
        << "1 MiB, misalign " << misalign;
  }
}

TEST(Sha256, DispatchedIncrementalMatchesScalarAtRandomSplits) {
  Rng rng(22);
  std::vector<uint8_t> msg(9000);
  rng.Fill(msg.data(), msg.size());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.Uniform(msg.size() + 1);
    Sha256 h;
    size_t pos = 0;
    while (pos < len) {
      const size_t take = std::min<size_t>(len - pos, rng.Uniform(300) + 1);
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), ScalarHash(msg.data(), len)) << "trial " << trial;
  }
}

// ------------------------------------------------------------- HMAC-SHA256 (RFC 4231)

TEST(Hmac, Rfc4231Case1) {
  const std::vector<uint8_t> key(20, 0x0b);
  const std::string data = "Hi There";
  const Mac256 mac = HmacSha256(key, std::span<const uint8_t>(
                                         reinterpret_cast<const uint8_t*>(data.data()),
                                         data.size()));
  EXPECT_EQ(HexOf(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Mac256 mac = HmacSha256(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(HexOf(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKeyPath) {
  const std::vector<uint8_t> key(131, 0xaa);  // forces the key-hashing branch
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Mac256 mac = HmacSha256(key, std::span<const uint8_t>(
                                         reinterpret_cast<const uint8_t*>(data.data()),
                                         data.size()));
  EXPECT_EQ(HexOf(mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DeriveKey, DistinctLabelsAndCountersGiveDistinctKeys) {
  const std::vector<uint8_t> root(32, 0x42);
  const Mac256 a = DeriveKey(root, "epoch-key", 0);
  const Mac256 b = DeriveKey(root, "epoch-key", 1);
  const Mac256 c = DeriveKey(root, "channel-key", 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(a, DeriveKey(root, "epoch-key", 0));
}

// ------------------------------------------------------------- ChaCha20 (RFC 8439 2.4)

TEST(ChaCha20, Rfc8439Encryption) {
  std::vector<uint8_t> key(32);
  for (int i = 0; i < 32; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  const std::vector<uint8_t> nonce = FromHex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  for (const KernelBackend backend : SupportedKernelBackends()) {
    const BackendPin pin(backend);
    std::vector<uint8_t> buf(plaintext.begin(), plaintext.end());
    ChaCha20 cipher(key, nonce, 1);
    cipher.Crypt(buf.data(), buf.size());
    EXPECT_EQ(HexOf(buf),
              "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
              "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
              "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
              "5af90bbf74a35be6b40b8eedf2785e42874d")
        << KernelBackendName(backend);
    // Decryption is the same operation.
    ChaCha20 dec(key, nonce, 1);
    dec.Crypt(buf.data(), buf.size());
    EXPECT_EQ(std::string(buf.begin(), buf.end()), plaintext) << KernelBackendName(backend);
  }
}

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  std::vector<uint8_t> key(32);
  for (int i = 0; i < 32; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  const std::vector<uint8_t> nonce = FromHex("000000090000004a00000000");
  ChaCha20 cipher(key, nonce, 1);
  std::array<uint8_t, 64> block;
  cipher.KeystreamBlock(1, block);
  EXPECT_EQ(HexOf(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// ------------------------------------------------------------- Poly1305 (RFC 8439 2.5)

TEST(Poly1305, Rfc8439Vector) {
  const std::vector<uint8_t> key =
      FromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const std::string msg = "Cryptographic Forum Research Group";
  for (const KernelBackend backend : SupportedKernelBackends()) {
    const BackendPin pin(backend);
    const Poly1305::Tag tag = Poly1305::Compute(
        key, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(HexOf(tag), "a8061dc1305136c6c22b8baf0c0127a9") << KernelBackendName(backend);
  }
}

// -------------------------------------------------- ChaCha20-Poly1305 (RFC 8439 2.8.2)

TEST(Aead, Rfc8439SealVector) {
  Aead::Key key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(0x80 + i);
  }
  Aead::Nonce nonce;
  const std::vector<uint8_t> nonce_bytes = FromHex("070000004041424344454647");
  std::memcpy(nonce.data(), nonce_bytes.data(), nonce.size());
  const std::vector<uint8_t> aad = FromHex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";

  const Aead aead(key);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    const BackendPin pin(backend);
    const std::vector<uint8_t> sealed =
        aead.Seal(nonce, aad,
                  std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(plaintext.data()),
                                           plaintext.size()));
    ASSERT_EQ(sealed.size(), plaintext.size() + Aead::kTagBytes);
    EXPECT_EQ(HexOf(std::span<const uint8_t>(sealed.data(), 16)),
              "d31a8d34648e60db7b86afbc53ef7ec2")
        << KernelBackendName(backend);
    EXPECT_EQ(HexOf(std::span<const uint8_t>(sealed.data() + plaintext.size(), 16)),
              "1ae10b594f09e26a7e902ecbd0600691")
        << KernelBackendName(backend);

    std::vector<uint8_t> opened;
    ASSERT_TRUE(aead.Open(nonce, aad, sealed, opened)) << KernelBackendName(backend);
    EXPECT_EQ(std::string(opened.begin(), opened.end()), plaintext);
  }
}

TEST(Aead, RejectsTamperingAndWrongNonce) {
  Rng rng(11);
  Aead::Key key;
  rng.Fill(key.data(), key.size());
  const Aead aead(key);
  const Aead::Nonce nonce = Aead::CounterNonce(7, 3);
  std::vector<uint8_t> msg(100);
  rng.Fill(msg.data(), msg.size());
  std::vector<uint8_t> aad = {1, 2, 3};

  std::vector<uint8_t> sealed = aead.Seal(nonce, aad, msg);
  std::vector<uint8_t> out;
  ASSERT_TRUE(aead.Open(nonce, aad, sealed, out));
  EXPECT_EQ(out, msg);

  // Flip one ciphertext bit.
  sealed[10] ^= 1;
  EXPECT_FALSE(aead.Open(nonce, aad, sealed, out));
  sealed[10] ^= 1;
  // Flip one tag bit.
  sealed[sealed.size() - 1] ^= 1;
  EXPECT_FALSE(aead.Open(nonce, aad, sealed, out));
  sealed[sealed.size() - 1] ^= 1;
  // Wrong nonce (replay under a different counter).
  EXPECT_FALSE(aead.Open(Aead::CounterNonce(8, 3), aad, sealed, out));
  // Wrong AAD.
  aad.push_back(4);
  EXPECT_FALSE(aead.Open(nonce, aad, sealed, out));
}

TEST(Aead, EmptyPlaintextAndAad) {
  Aead::Key key{};
  const Aead aead(key);
  const Aead::Nonce nonce{};
  const std::vector<uint8_t> sealed = aead.Seal(nonce, {}, {});
  EXPECT_EQ(sealed.size(), Aead::kTagBytes);
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_TRUE(aead.Open(nonce, {}, sealed, out));
  EXPECT_TRUE(out.empty());
}

TEST(Aead, SealInPlaceMatchesSealAndOpens) {
  Rng rng(12);
  Aead::Key key;
  rng.Fill(key.data(), key.size());
  const Aead aead(key);
  for (size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                     size_t{1000}, size_t{4099}}) {
    for (const std::vector<uint8_t>& aad :
         {std::vector<uint8_t>{}, std::vector<uint8_t>{1, 2, 3}}) {
      const Aead::Nonce nonce = Aead::CounterNonce(len, 9);
      std::vector<uint8_t> msg(len);
      rng.Fill(msg.data(), msg.size());
      std::vector<uint8_t> in_place = msg;
      const Aead::Tag tag = aead.SealInPlace(nonce, aad, in_place);
      in_place.insert(in_place.end(), tag.begin(), tag.end());
      EXPECT_EQ(in_place, aead.Seal(nonce, aad, msg)) << "len " << len;
      std::vector<uint8_t> opened;
      ASSERT_TRUE(aead.Open(nonce, aad, in_place, opened)) << "len " << len;
      EXPECT_EQ(opened, msg);
    }
  }
}

// ------------------------------------- ChaCha20 / Poly1305 / AEAD: every backend vs scalar
//
// The RFC 8439 vectors above are shorter than four blocks, so they never reach the
// 4-, 8- and 16-block ChaCha20 paths or the 4- and 8-lane Poly1305 kernels. These
// tests run every backend against the scalar code at every length up to 1 KiB and at
// 1 MiB, from every misalignment, and over random incremental splits.

Aead::Key TestKey(uint64_t seed) {
  Rng rng(seed);
  Aead::Key key;
  rng.Fill(key.data(), key.size());
  return key;
}

// ChaCha20 from counter 1 under `backend`, from `in` into a fresh buffer.
std::vector<uint8_t> ChaChaUnder(KernelBackend backend, const uint8_t* in, size_t len) {
  const BackendPin pin(backend);
  const Aead::Key key = TestKey(31);
  const Aead::Nonce nonce = Aead::CounterNonce(5, 6);
  ChaCha20 cipher(key, nonce, 1);
  std::vector<uint8_t> out(len);
  cipher.Crypt(in, out.data(), len);
  return out;
}

Poly1305::Tag PolyUnder(KernelBackend backend, const uint8_t* msg, size_t len) {
  const BackendPin pin(backend);
  const Aead::Key key = TestKey(32);
  return Poly1305::Compute(key, std::span<const uint8_t>(msg, len));
}

std::vector<uint8_t> SealUnder(KernelBackend backend, const uint8_t* msg, size_t len) {
  const BackendPin pin(backend);
  const Aead aead(TestKey(33));
  const std::vector<uint8_t> aad = {9, 8, 7};
  return aead.Seal(Aead::CounterNonce(len, 2), aad, std::span<const uint8_t>(msg, len));
}

// Runs `check(backend, data, len)` for every non-generic backend, every length
// 0..1024 and 1 MiB, and every misalignment 0..15 of the input.
template <typename Check>
void ForEveryBackendLengthAndAlignment(Check&& check) {
  std::vector<uint8_t> buf((1u << 20) + 16);
  Rng rng(23);
  rng.Fill(buf.data(), buf.size());
  for (const KernelBackend backend : SupportedKernelBackends()) {
    if (backend == KernelBackend::kGeneric) {
      continue;
    }
    for (size_t misalign = 0; misalign < 16; ++misalign) {
      for (size_t len = 0; len <= 1024; ++len) {
        check(backend, buf.data() + misalign, len);
      }
      check(backend, buf.data() + misalign, size_t{1} << 20);
    }
  }
}

TEST(ChaCha20, EveryBackendMatchesScalarAtEveryLengthAndAlignment) {
  ForEveryBackendLengthAndAlignment([](KernelBackend backend, const uint8_t* in, size_t len) {
    ASSERT_EQ(ChaChaUnder(backend, in, len), ChaChaUnder(KernelBackend::kGeneric, in, len))
        << KernelBackendName(backend) << " len " << len;
  });
}

// The generic backend in odd piece sizes -- pieces that start and end mid-block, so
// whole blocks go through the direct word-at-a-time path between partial blocks served
// from the buffer -- against every SIMD backend's one-shot keystream.
TEST(ChaCha20, GenericPiecesMatchEverySimdBackend) {
  Rng rng(25);
  std::vector<uint8_t> msg(4099);
  rng.Fill(msg.data(), msg.size());
  for (const size_t piece : {size_t{1}, size_t{3}, size_t{63}, size_t{65}, size_t{127},
                             size_t{191}, size_t{1001}}) {
    std::vector<uint8_t> got(msg.size());
    {
      const BackendPin pin(KernelBackend::kGeneric);
      ChaCha20 cipher(TestKey(31), Aead::CounterNonce(5, 6), 1);
      for (size_t pos = 0; pos < msg.size(); pos += piece) {
        const size_t take = std::min(piece, msg.size() - pos);
        cipher.Crypt(msg.data() + pos, got.data() + pos, take);
      }
    }
    for (const KernelBackend backend : SupportedKernelBackends()) {
      ASSERT_EQ(got, ChaChaUnder(backend, msg.data(), msg.size()))
          << KernelBackendName(backend) << " piece " << piece;
    }
  }
}

TEST(Poly1305, EveryBackendMatchesScalarAtEveryLengthAndAlignment) {
  ForEveryBackendLengthAndAlignment([](KernelBackend backend, const uint8_t* msg, size_t len) {
    ASSERT_EQ(PolyUnder(backend, msg, len), PolyUnder(KernelBackend::kGeneric, msg, len))
        << KernelBackendName(backend) << " len " << len;
  });
}

TEST(Aead, EveryBackendMatchesScalarAtEveryLengthAndAlignment) {
  ForEveryBackendLengthAndAlignment([](KernelBackend backend, const uint8_t* msg, size_t len) {
    ASSERT_EQ(SealUnder(backend, msg, len), SealUnder(KernelBackend::kGeneric, msg, len))
        << KernelBackendName(backend) << " len " << len;
  });
}

// Incremental use in random pieces -- ChaCha20::Crypt, Poly1305::Update, and
// Aead::Stream Seal/Open, in place and out of place -- against the one-shot scalar
// result, over lengths that straddle the AEAD chunk size.
TEST(Aead, EveryBackendMatchesScalarAtRandomSplits) {
  Rng rng(24);
  std::vector<uint8_t> msg(3 * Aead::kChunkBytes + 100);
  rng.Fill(msg.data(), msg.size());
  const Aead::Key key = TestKey(35);
  const Aead aead(key);
  const std::vector<uint8_t> aad = {1, 2, 3, 4, 5};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t len = rng.Uniform(msg.size() + 1);
    const Aead::Nonce nonce = Aead::CounterNonce(static_cast<uint64_t>(trial), 7);
    const std::vector<uint8_t> want_ct = ChaChaUnder(KernelBackend::kGeneric, msg.data(), len);
    const Poly1305::Tag want_tag = PolyUnder(KernelBackend::kGeneric, msg.data(), len);
    const std::vector<uint8_t> want_sealed = [&] {
      const BackendPin pin(KernelBackend::kGeneric);
      return aead.Seal(nonce, aad, std::span<const uint8_t>(msg.data(), len));
    }();
    for (const KernelBackend backend : SupportedKernelBackends()) {
      const BackendPin pin(backend);
      // Piece sizes: short ones (partial blocks and lanes) or long ones (chunks).
      std::vector<size_t> cuts;
      for (size_t pos = 0; pos < len;) {
        const uint64_t bound = rng.Uniform(2) == 0 ? 200 : 20000;
        const size_t take = std::min<size_t>(len - pos, 1 + rng.Uniform(bound));
        cuts.push_back(take);
        pos += take;
      }
      std::vector<uint8_t> ct(len);
      ChaCha20 cipher(TestKey(31), Aead::CounterNonce(5, 6), 1);
      size_t pos = 0;
      for (const size_t take : cuts) {
        cipher.Crypt(msg.data() + pos, ct.data() + pos, take);
        pos += take;
      }
      ASSERT_EQ(ct, want_ct) << KernelBackendName(backend) << " trial " << trial;

      Poly1305 mac(TestKey(32));
      pos = 0;
      for (const size_t take : cuts) {
        mac.Update(msg.data() + pos, take);
        pos += take;
      }
      ASSERT_EQ(mac.Finalize(), want_tag) << KernelBackendName(backend) << " trial " << trial;

      // Stream Seal in the same pieces, in place.
      std::vector<uint8_t> sealed(msg.begin(), msg.begin() + static_cast<ptrdiff_t>(len));
      Aead::Stream seal(aead, nonce, aad);
      pos = 0;
      for (const size_t take : cuts) {
        seal.Seal(sealed.data() + pos, sealed.data() + pos, take);
        pos += take;
      }
      const Aead::Tag tag = seal.Finish();
      sealed.insert(sealed.end(), tag.begin(), tag.end());
      ASSERT_EQ(sealed, want_sealed) << KernelBackendName(backend) << " trial " << trial;

      // Stream Open in the same pieces, out of place.
      std::vector<uint8_t> opened(len);
      Aead::Stream open(aead, nonce, aad);
      pos = 0;
      for (const size_t take : cuts) {
        open.Open(sealed.data() + pos, opened.data() + pos, take);
        pos += take;
      }
      EXPECT_EQ(open.Finish(), tag);
      ASSERT_TRUE(std::equal(opened.begin(), opened.end(), msg.begin()))
          << KernelBackendName(backend) << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------- SipHash-2-4 vectors

TEST(SipHash, ReferenceVectors) {
  SipKey key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> msg;
  for (int i = 0; i < 16; ++i) {
    msg.push_back(static_cast<uint8_t>(i));
  }
  // Vectors from the SipHash reference implementation (Aumasson & Bernstein).
  EXPECT_EQ(SipHash24(key, std::span<const uint8_t>(msg.data(), 0)), 0x726fdb47dd0e0e31ULL);
  EXPECT_EQ(SipHash24(key, std::span<const uint8_t>(msg.data(), 1)), 0x74f839c593dc67fdULL);
  EXPECT_EQ(SipHash24(key, std::span<const uint8_t>(msg.data(), 2)), 0x0d6c8009d9a94f5aULL);
  EXPECT_EQ(SipHash24(key, std::span<const uint8_t>(msg.data(), 8)), 0x93f5f5799a932462ULL);
}

TEST(SipHash, UintHelperMatchesByteForm) {
  SipKey key{};
  key[0] = 9;
  const uint64_t v = 0x1122334455667788ULL;
  uint8_t bytes[8];
  std::memcpy(bytes, &v, 8);
  EXPECT_EQ(SipHash24(key, v), SipHash24(key, std::span<const uint8_t>(bytes, 8)));
}

// --------------------------------------------------------------------------------- RNG

TEST(Rng, DeterministicWithSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next64();
    EXPECT_EQ(va, b.Next64());
    differs = differs || (va != c.Next64());
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(9);
  for (const uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    std::vector<uint64_t> hist(bound, 0);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t v = rng.Uniform(bound);
      ASSERT_LT(v, bound);
      ++hist[v];
    }
    if (bound > 1 && bound <= 10) {
      for (uint64_t b = 0; b < bound; ++b) {
        EXPECT_GT(hist[b], 0u) << "bound=" << bound;
      }
    }
  }
}

TEST(Rng, FillCoversUnalignedLengths) {
  Rng rng(77);
  std::vector<uint8_t> buf(129, 0);
  rng.Fill(buf.data(), buf.size());
  int nonzero = 0;
  for (uint8_t b : buf) {
    nonzero += (b != 0);
  }
  EXPECT_GT(nonzero, 100);  // overwhelmingly likely for a working generator
}

}  // namespace
}  // namespace snoopy
