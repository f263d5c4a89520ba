// ChaCha20 stream cipher (RFC 8439). Keystream generation and in-place XOR encryption.
//
// Together with Poly1305 this forms the AEAD protecting all inter-enclave and
// client-enclave traffic (paper section 3.1: "all communication is encrypted using an
// authenticated encryption scheme with a nonce to prevent replay attacks").

#ifndef SNOOPY_SRC_CRYPTO_CHACHA20_H_
#define SNOOPY_SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace snoopy {

class ChaCha20 {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kNonceBytes = 12;
  static constexpr size_t kBlockBytes = 64;

  ChaCha20(std::span<const uint8_t> key, std::span<const uint8_t> nonce, uint32_t counter = 0);

  // Writes `in` XOR the next `len` keystream bytes to `out`. `in == out` (in place)
  // is allowed; partial overlap is not. Successive calls continue one stream, so any
  // split of the input gives the same bytes.
  void Crypt(const uint8_t* in, uint8_t* out, size_t len);
  void Crypt(uint8_t* data, size_t len) { Crypt(data, data, len); }

  // Produces one 64-byte keystream block for the given counter without advancing state.
  void KeystreamBlock(uint32_t counter, std::array<uint8_t, kBlockBytes>& out) const;

 private:
  std::array<uint32_t, 16> state_;
  std::array<uint8_t, kBlockBytes> partial_;
  size_t partial_used_ = kBlockBytes;  // no buffered keystream initially
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_CHACHA20_H_
