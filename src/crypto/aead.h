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

#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"

namespace snoopy {

class Aead {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kNonceBytes = 12;
  static constexpr size_t kTagBytes = 16;
  // Seal and Open work through the message in chunks of this many bytes: each chunk
  // is encrypted and authenticated while it is still in L1, so the message is read
  // and written once.
  static constexpr size_t kChunkBytes = 16 * 1024;

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

  // One message sealed or opened in a single pass, handed over in any number of
  // pieces: Seal encrypts each kChunkBytes chunk and then absorbs its ciphertext into
  // Poly1305; Open absorbs each chunk and then decrypts it. Any split of a message
  // gives the same bytes and the same tag. Seal, SealInPlace and Open all run on it.
  class Stream {
   public:
    Stream(const Aead& aead, const Nonce& nonce, std::span<const uint8_t> aad);

    // Encrypts `len` bytes from `in` into `out` (`in == out` is allowed).
    void Seal(const uint8_t* in, uint8_t* out, size_t len);
    // Decrypts `len` ciphertext bytes from `in` into `out` (`in == out` is allowed).
    void Open(const uint8_t* in, uint8_t* out, size_t len);
    // The tag over the AAD and every ciphertext byte passed; call once, last.
    Tag Finish();

   private:
    ChaCha20 cipher_;
    Poly1305 mac_;
    uint64_t aad_len_;
    uint64_t ct_len_ = 0;
  };

 private:
  Key key_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_AEAD_H_
