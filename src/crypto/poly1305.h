// Poly1305 one-time authenticator (RFC 8439).

#ifndef SNOOPY_SRC_CRYPTO_POLY1305_H_
#define SNOOPY_SRC_CRYPTO_POLY1305_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace snoopy {

class Poly1305 {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kTagBytes = 16;
  static constexpr size_t kBlockBytes = 16;
  using Tag = std::array<uint8_t, kTagBytes>;

  explicit Poly1305(std::span<const uint8_t> key);

  // Absorbs `len` more message bytes; any split of a message gives the same tag.
  // Runs of whole blocks go through the multi-lane kernel of the active kernel
  // backend (8 lanes on AVX-512, 4 on AVX2), which folds its lanes back into the
  // scalar accumulator before returning.
  void Update(const uint8_t* data, size_t len);
  Tag Finalize();

  static Tag Compute(std::span<const uint8_t> key, std::span<const uint8_t> msg);

 private:
  void Blocks(const uint8_t* data, size_t blocks);

  uint64_t r_[3];  // clamped r, radix 2^44
  uint64_t h_[3];  // accumulator, radix 2^44
  uint64_t pad_[2];
  // r^1 .. r^8 in radix 2^26 for the lane kernels, filled on their first use.
  uint32_t r_powers_[8][5];
  bool r_powers_ready_ = false;
  std::array<uint8_t, kBlockBytes> buffer_;
  size_t buffer_len_ = 0;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_POLY1305_H_
