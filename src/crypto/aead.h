// ChaCha20-Poly1305 AEAD (RFC 8439).
//
// All Snoopy wire traffic -- client to load balancer, load balancer to subORAM -- is
// protected with this AEAD; nonces are per-channel counters so replays fail to
// authenticate (paper section 3.1).

#ifndef SNOOPY_SRC_CRYPTO_AEAD_H_
#define SNOOPY_SRC_CRYPTO_AEAD_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace snoopy {

class Aead {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kNonceBytes = 12;
  static constexpr size_t kTagBytes = 16;

  using Key = std::array<uint8_t, kKeyBytes>;
  using Nonce = std::array<uint8_t, kNonceBytes>;
  using Tag = std::array<uint8_t, kTagBytes>;

  explicit Aead(const Key& key) : key_(key) {}

  // Returns ciphertext || tag (plaintext.size() + kTagBytes bytes).
  std::vector<uint8_t> Seal(const Nonce& nonce, std::span<const uint8_t> aad,
                            std::span<const uint8_t> plaintext) const;

  // Encrypts `data` in place and returns the tag over (aad, ciphertext): the same
  // bytes Seal produces, without its copies. `data` must not overlap `aad`.
  Tag SealInPlace(const Nonce& nonce, std::span<const uint8_t> aad,
                  std::span<uint8_t> data) const;

  // Verifies and decrypts ciphertext || tag. Returns false on authentication failure
  // (in which case `plaintext_out` is left empty).
  bool Open(const Nonce& nonce, std::span<const uint8_t> aad, std::span<const uint8_t> sealed,
            std::vector<uint8_t>& plaintext_out) const;

  // Helper: little-endian counter nonce.
  static Nonce CounterNonce(uint64_t counter, uint32_t channel = 0);

 private:
  Key key_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_AEAD_H_
