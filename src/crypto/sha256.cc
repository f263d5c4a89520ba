#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/obl/kernels.h"

namespace snoopy {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The two compression functions are straight-line ARX (scalar) or SHA-extension
// code over the secret chaining state and message: loop trip counts, indices and
// addresses depend only on the public block count.

// SNOOPY_OBLIVIOUS_BEGIN(sha256_compress)
// ct-public: blocks i g
// ct-calls: Rotr __attribute__ target reinterpret_cast

// Scalar FIPS 180-4 compression over `blocks` consecutive 64-byte blocks.
void Sha256BlocksGeneric(uint32_t* state, const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockBytes) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];
    uint32_t f = state[5];
    uint32_t g = state[6];
    uint32_t h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if SNOOPY_KERNELS_X86

// The same compression on the SHA extensions. The hardware keeps the state as two
// lane-packed halves, ABEF and CDGH; each sha256rnds2 runs two rounds, so one
// 4-word message group takes two of them, and sha256msg1/msg2 extend the message
// schedule four words at a time, three groups ahead of use. Control flow and
// addresses depend only on the public block count.
__attribute__((target("sha,sse4.1"))) void Sha256BlocksShaNi(uint32_t* state,
                                                              const uint8_t* data,
                                                              size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockBytes) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // Finish W[4(g+1) .. 4(g+1)+3]: add W[t-7] and apply the sigma1 terms.
        const __m128i w7 = _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4);
        w[(g + 1) % 4] =
            _mm_sha256msg2_epu32(_mm_add_epi32(w[(g + 1) % 4], w7), w[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) {
        // Start W[4(g+3) ..]: W[t-16] + sigma0(W[t-15]).
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // SNOOPY_KERNELS_X86

// SNOOPY_OBLIVIOUS_END(sha256_compress)

// The dispatch branch reads only public state: the CPUID feature bits and the
// kernel backend (SNOOPY_FORCE_GENERIC_KERNELS=1 pins the scalar code).
void Sha256Blocks(uint32_t* state, const uint8_t* data, size_t blocks) {
#if SNOOPY_KERNELS_X86
  static const bool cpu_has_sha = __builtin_cpu_supports("sha") != 0 &&
                                  __builtin_cpu_supports("sse4.1") != 0;
  if (cpu_has_sha && ActiveKernelBackend() != KernelBackend::kGeneric) {
    Sha256BlocksShaNi(state, data, blocks);
    return;
  }
#endif
  Sha256BlocksGeneric(state, data, blocks);
}

}  // namespace

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  while (len > 0) {
    if (buffer_len_ == 0 && len >= kBlockBytes) {
      const size_t blocks = len / kBlockBytes;
      Sha256Blocks(state_.data(), p, blocks);
      p += blocks * kBlockBytes;
      len -= blocks * kBlockBytes;
      continue;
    }
    const size_t take = std::min(len, kBlockBytes - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == kBlockBytes) {
      Sha256Blocks(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
}

Sha256::Digest Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  const uint8_t pad_byte = 0x80;
  Update(&pad_byte, 1);
  const uint8_t zero = 0;
  while (buffer_len_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Bypass total_len_ accounting for the length block itself.
  std::memcpy(buffer_.data() + buffer_len_, len_bytes, 8);
  Sha256Blocks(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

}  // namespace snoopy
