#include "src/crypto/aead.h"

#include <cstring>

#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"

namespace snoopy {

namespace {

// Computes the RFC 8439 Poly1305 tag over aad || pad || ct || pad || len(aad) || len(ct).
Poly1305::Tag ComputeTag(const Aead::Key& key, const Aead::Nonce& nonce,
                         std::span<const uint8_t> aad, std::span<const uint8_t> ct) {
  // One-time Poly1305 key: first 32 bytes of the ChaCha20 keystream with counter 0.
  ChaCha20 cipher(std::span<const uint8_t>(key.data(), key.size()),
                  std::span<const uint8_t>(nonce.data(), nonce.size()), 0);
  std::array<uint8_t, ChaCha20::kBlockBytes> block;
  cipher.KeystreamBlock(0, block);

  Poly1305 mac(std::span<const uint8_t>(block.data(), 32));
  static constexpr uint8_t kZeros[16] = {};
  mac.Update(aad.data(), aad.size());
  if (aad.size() % 16 != 0) {
    mac.Update(kZeros, 16 - aad.size() % 16);
  }
  mac.Update(ct.data(), ct.size());
  if (ct.size() % 16 != 0) {
    mac.Update(kZeros, 16 - ct.size() % 16);
  }
  uint8_t lens[16];
  const uint64_t aad_len = aad.size();
  const uint64_t ct_len = ct.size();
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<uint8_t>(aad_len >> (8 * i));
    lens[8 + i] = static_cast<uint8_t>(ct_len >> (8 * i));
  }
  mac.Update(lens, 16);
  return mac.Finalize();
}

}  // namespace

std::vector<uint8_t> Aead::Seal(const Nonce& nonce, std::span<const uint8_t> aad,
                                std::span<const uint8_t> plaintext) const {
  std::vector<uint8_t> out(plaintext.size() + kTagBytes);
  if (!plaintext.empty()) {
    std::memcpy(out.data(), plaintext.data(), plaintext.size());
  }
  const Tag tag = SealInPlace(nonce, aad, std::span<uint8_t>(out.data(), plaintext.size()));
  std::memcpy(out.data() + plaintext.size(), tag.data(), kTagBytes);
  return out;
}

Aead::Tag Aead::SealInPlace(const Nonce& nonce, std::span<const uint8_t> aad,
                            std::span<uint8_t> data) const {
  ChaCha20 cipher(std::span<const uint8_t>(key_.data(), key_.size()),
                  std::span<const uint8_t>(nonce.data(), nonce.size()), 1);
  cipher.Crypt(data.data(), data.size());
  return ComputeTag(key_, nonce, aad, data);
}

// SNOOPY_OBLIVIOUS_BEGIN(aead_open)
// ct-public: sealed kTagBytes ct_len

bool Aead::Open(const Nonce& nonce, std::span<const uint8_t> aad, std::span<const uint8_t> sealed,
                std::vector<uint8_t>& plaintext_out) const {
  plaintext_out.clear();
  if (sealed.size() < kTagBytes) {
    return false;
  }
  const size_t ct_len = sealed.size() - kTagBytes;
  const Poly1305::Tag expected =
      ComputeTag(key_, nonce, aad, std::span<const uint8_t>(sealed.data(), ct_len));
  // The comparison runs over the full tag regardless of where bytes differ; only the
  // accept/reject verdict leaves the taint domain (that bit is the function's output).
  const SecretBool tag_ok =
      SecretEqualBytes(expected.data(), sealed.data() + ct_len, kTagBytes);
  if (!tag_ok.Declassify("aead.tag_ok")) {
    return false;
  }
  plaintext_out.assign(sealed.begin(), sealed.begin() + static_cast<ptrdiff_t>(ct_len));
  ChaCha20 cipher(std::span<const uint8_t>(key_.data(), key_.size()),
                  std::span<const uint8_t>(nonce.data(), nonce.size()), 1);
  cipher.Crypt(plaintext_out.data(), ct_len);
  return true;
}

// SNOOPY_OBLIVIOUS_END(aead_open)

Aead::Nonce Aead::CounterNonce(uint64_t counter, uint32_t channel) {
  Nonce n{};
  for (int i = 0; i < 8; ++i) {
    n[static_cast<size_t>(i)] = static_cast<uint8_t>(counter >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    n[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(channel >> (8 * i));
  }
  return n;
}

}  // namespace snoopy
