// ChaCha20-based CSPRNG.
//
// Used wherever the protocol needs fresh secret randomness: per-batch hash keys,
// Path ORAM leaf assignments, dummy-request identifiers. Deterministic seeding is
// supported for reproducible tests and simulations.

#ifndef SNOOPY_SRC_CRYPTO_RNG_H_
#define SNOOPY_SRC_CRYPTO_RNG_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

#include "src/crypto/chacha20.h"
#include "src/crypto/siphash.h"

namespace snoopy {

class Rng {
 public:
  // Seeded from the OS entropy source.
  Rng();
  // Deterministic stream for tests / simulations.
  explicit Rng(uint64_t seed);

  void Fill(uint8_t* out, size_t len);
  void Fill(std::span<uint8_t> out) { Fill(out.data(), out.size()); }

  uint64_t Next64();
  // Uniform in [0, bound) via rejection sampling; bound must be nonzero.
  uint64_t Uniform(uint64_t bound);

  SipKey NextSipKey();
  std::array<uint8_t, 32> NextKey32();

  // UniformRandomBitGenerator interface, so Rng works with <random> and std::shuffle.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }
  result_type operator()() { return Next64(); }

 private:
  void Refill();

  std::array<uint8_t, 32> key_{};
  uint64_t block_counter_ = 0;
  std::array<uint8_t, ChaCha20::kBlockBytes> pool_{};
  size_t pool_used_ = ChaCha20::kBlockBytes;
};

// The splitmix64 finalizer: a fast bijective mix deriving decorrelated seeds from
// structured inputs (per-epoch preparation seeds, per-target fault streams, dummy-key
// prefixes). Not a source of secret randomness; Rng is.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_RNG_H_
