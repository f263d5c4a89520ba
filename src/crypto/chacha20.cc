#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obl/kernels.h"

namespace snoopy {

namespace {

// Every function in this region is straight-line ARX over the secret key, nonce and
// data: loop trip counts, indices and addresses depend only on the public block
// count, and the counter word is public (a function of the byte offset).

// SNOOPY_OBLIVIOUS_BEGIN(chacha20_blocks)
// ct-public: counter round w g j k hb blk i
// ct-calls: Rotl QuarterRound __attribute__ target reinterpret_cast ChaChaBlockWords
// ct-calls: SNOOPY_CHACHA_QR_AVX2 SNOOPY_CHACHA_QR_AVX512

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

inline uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32Le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// The scalar RFC 8439 block function: the 16 keystream words for `counter`.
void ChaChaBlockWords(const uint32_t* state, uint32_t counter, uint32_t* words) {
  uint32_t init[16];
  for (int w = 0; w < 16; ++w) {
    init[w] = state[w];
  }
  init[12] = counter;
  uint32_t x[16];
  for (int w = 0; w < 16; ++w) {
    x[w] = init[w];
  }
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) {
    words[w] = x[w] + init[w];
  }
}

// The 64-byte keystream block for `counter`.
void ChaChaBlockGeneric(const uint32_t* state, uint32_t counter, uint8_t* out) {
  uint32_t words[16];
  ChaChaBlockWords(state, counter, words);
  for (int w = 0; w < 16; ++w) {
    Store32Le(out + 4 * w, words[w]);
  }
}

// Writes `in` XOR the keystream block for `counter` to `out` (which may equal `in`), a
// 32-bit word at a time straight from the block function's words.
void CryptBlockGeneric(const uint32_t* state, uint32_t counter, const uint8_t* in,
                       uint8_t* out) {
  uint32_t words[16];
  ChaChaBlockWords(state, counter, words);
  for (int w = 0; w < 16; ++w) {
    Store32Le(out + 4 * w, Load32Le(in + 4 * w) ^ words[w]);
  }
}

#if SNOOPY_KERNELS_X86

// Multi-block keystream in the lane-broadcast formulation: vector word w holds
// ChaCha state word w for L consecutive blocks, one block per 32-bit lane. The
// counter word gets per-lane offsets 0..L-1 (epi32 adds wrap mod 2^32 exactly
// like the scalar ++counter). After the 20 rounds and the feed-forward add,
// a 4x4 (per 128-bit lane) word transpose turns lane-major vectors back into
// contiguous 64-byte blocks, which are XORed with the input straight into the
// output. L is 8 (AVX2) or 16 (AVX-512).
//
// ChaCha is data-oblivious by construction (pure ARX on uniform-trip loops),
// so the vector forms below change only throughput, never the access pattern.

#define SNOOPY_CHACHA_QR_AVX2(a, b, c, d)                                      \
  do {                                                                         \
    a = _mm256_add_epi32(a, b);                                                \
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);                    \
    c = _mm256_add_epi32(c, d);                                                \
    b = _mm256_xor_si256(b, c);                                                \
    b = _mm256_or_si256(_mm256_slli_epi32(b, 12), _mm256_srli_epi32(b, 20));   \
    a = _mm256_add_epi32(a, b);                                                \
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);                     \
    c = _mm256_add_epi32(c, d);                                                \
    b = _mm256_xor_si256(b, c);                                                \
    b = _mm256_or_si256(_mm256_slli_epi32(b, 7), _mm256_srli_epi32(b, 25));    \
  } while (0)

// Writes `in` XOR eight consecutive keystream blocks (counter .. counter+7) to `out`,
// which may equal `in`.
__attribute__((target("avx2"))) void CryptBlocks8Avx2(const uint32_t* state, const uint8_t* in,
                                                      uint8_t* out) {
  // Byte-shuffle rotates for the 16- and 8-bit cases (one shuffle beats two
  // shifts plus an or); the masks repeat per 128-bit lane as shuffle_epi8 does.
  const __m256i rot16 = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                                         2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  __m256i v[16];
  __m256i init[16];
  for (int w = 0; w < 16; ++w) {
    v[w] = _mm256_set1_epi32(static_cast<int>(state[w]));
  }
  v[12] = _mm256_add_epi32(v[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int w = 0; w < 16; ++w) {
    init[w] = v[w];
  }
  for (int round = 0; round < 10; ++round) {
    SNOOPY_CHACHA_QR_AVX2(v[0], v[4], v[8], v[12]);
    SNOOPY_CHACHA_QR_AVX2(v[1], v[5], v[9], v[13]);
    SNOOPY_CHACHA_QR_AVX2(v[2], v[6], v[10], v[14]);
    SNOOPY_CHACHA_QR_AVX2(v[3], v[7], v[11], v[15]);
    SNOOPY_CHACHA_QR_AVX2(v[0], v[5], v[10], v[15]);
    SNOOPY_CHACHA_QR_AVX2(v[1], v[6], v[11], v[12]);
    SNOOPY_CHACHA_QR_AVX2(v[2], v[7], v[8], v[13]);
    SNOOPY_CHACHA_QR_AVX2(v[3], v[4], v[9], v[14]);
  }
  for (int w = 0; w < 16; ++w) {
    v[w] = _mm256_add_epi32(v[w], init[w]);
  }
  // Per-group transpose leaves u[g][j] = [block j words 4g..4g+3 | block j+4
  // words 4g..4g+3]; permute2x128 stitches the halves into contiguous blocks.
  __m256i u[4][4];
  for (int g = 0; g < 4; ++g) {
    const __m256i t0 = _mm256_unpacklo_epi32(v[4 * g], v[4 * g + 1]);
    const __m256i t1 = _mm256_unpackhi_epi32(v[4 * g], v[4 * g + 1]);
    const __m256i t2 = _mm256_unpacklo_epi32(v[4 * g + 2], v[4 * g + 3]);
    const __m256i t3 = _mm256_unpackhi_epi32(v[4 * g + 2], v[4 * g + 3]);
    u[g][0] = _mm256_unpacklo_epi64(t0, t2);
    u[g][1] = _mm256_unpackhi_epi64(t0, t2);
    u[g][2] = _mm256_unpacklo_epi64(t1, t3);
    u[g][3] = _mm256_unpackhi_epi64(t1, t3);
  }
  for (int j = 0; j < 4; ++j) {
    const __m256i rows[2][2] = {
        {_mm256_permute2x128_si256(u[0][j], u[1][j], 0x20),
         _mm256_permute2x128_si256(u[2][j], u[3][j], 0x20)},
        {_mm256_permute2x128_si256(u[0][j], u[1][j], 0x31),
         _mm256_permute2x128_si256(u[2][j], u[3][j], 0x31)}};
    for (int hb = 0; hb < 2; ++hb) {
      const size_t off = (j + 4 * hb) * ChaCha20::kBlockBytes;
      const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + off));
      const __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + off + 32));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + off),
                          _mm256_xor_si256(d0, rows[hb][0]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + off + 32),
                          _mm256_xor_si256(d1, rows[hb][1]));
    }
  }
}

#undef SNOOPY_CHACHA_QR_AVX2

// GCC 12's AVX-512 headers seed rotates and unpacks with a self-initialized
// _mm512_undefined_epi32(), which -Wuninitialized misreports (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define SNOOPY_CHACHA_QR_AVX512(a, b, c, d)             \
  do {                                                  \
    a = _mm512_add_epi32(a, b);                         \
    d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);   \
    c = _mm512_add_epi32(c, d);                         \
    b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);   \
    a = _mm512_add_epi32(a, b);                         \
    d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);    \
    c = _mm512_add_epi32(c, d);                         \
    b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);    \
  } while (0)

// Writes `in` XOR sixteen consecutive keystream blocks (counter .. counter+15) to
// `out`, which may equal `in`. Rotates are single vprold instructions. The
// 16x16 word transpose runs in registers in two stages: the per-128-bit-lane 4x4
// transpose of the narrower paths leaves u[g][j] holding, in 128-bit lane k, words
// 4g..4g+3 of block 4k+j; a 4x4 transpose of 128-bit lanes (two rounds of
// vshufi32x4) then gathers words 0..15 of each block into one register.
__attribute__((target("avx512f"))) void CryptBlocks16Avx512(const uint32_t* state,
                                                            const uint8_t* in, uint8_t* out) {
  // The input words are re-broadcast for the feed-forward add rather than kept, so
  // only the sixteen state vectors stay live across the rounds.
  const __m512i lanes =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m512i v[16];
#pragma GCC unroll 16
  for (int w = 0; w < 16; ++w) {
    v[w] = _mm512_set1_epi32(static_cast<int>(state[w]));
  }
  v[12] = _mm512_add_epi32(v[12], lanes);
  for (int round = 0; round < 10; ++round) {
    SNOOPY_CHACHA_QR_AVX512(v[0], v[4], v[8], v[12]);
    SNOOPY_CHACHA_QR_AVX512(v[1], v[5], v[9], v[13]);
    SNOOPY_CHACHA_QR_AVX512(v[2], v[6], v[10], v[14]);
    SNOOPY_CHACHA_QR_AVX512(v[3], v[7], v[11], v[15]);
    SNOOPY_CHACHA_QR_AVX512(v[0], v[5], v[10], v[15]);
    SNOOPY_CHACHA_QR_AVX512(v[1], v[6], v[11], v[12]);
    SNOOPY_CHACHA_QR_AVX512(v[2], v[7], v[8], v[13]);
    SNOOPY_CHACHA_QR_AVX512(v[3], v[4], v[9], v[14]);
  }
#pragma GCC unroll 16
  for (int w = 0; w < 16; ++w) {
    v[w] = _mm512_add_epi32(v[w], _mm512_set1_epi32(static_cast<int>(state[w])));
  }
  v[12] = _mm512_add_epi32(v[12], lanes);
  __m512i u[4][4];
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    const __m512i t0 = _mm512_unpacklo_epi32(v[4 * g], v[4 * g + 1]);
    const __m512i t1 = _mm512_unpackhi_epi32(v[4 * g], v[4 * g + 1]);
    const __m512i t2 = _mm512_unpacklo_epi32(v[4 * g + 2], v[4 * g + 3]);
    const __m512i t3 = _mm512_unpackhi_epi32(v[4 * g + 2], v[4 * g + 3]);
    u[g][0] = _mm512_unpacklo_epi64(t0, t2);
    u[g][1] = _mm512_unpackhi_epi64(t0, t2);
    u[g][2] = _mm512_unpacklo_epi64(t1, t3);
    u[g][3] = _mm512_unpackhi_epi64(t1, t3);
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    // lo01 = [u0.L0 u0.L1 u1.L0 u1.L1], lo23 likewise for u2/u3; hi* hold lanes 2, 3.
    const __m512i lo01 = _mm512_shuffle_i32x4(u[0][j], u[1][j], 0x44);
    const __m512i lo23 = _mm512_shuffle_i32x4(u[2][j], u[3][j], 0x44);
    const __m512i hi01 = _mm512_shuffle_i32x4(u[0][j], u[1][j], 0xEE);
    const __m512i hi23 = _mm512_shuffle_i32x4(u[2][j], u[3][j], 0xEE);
    const __m512i rows[4] = {_mm512_shuffle_i32x4(lo01, lo23, 0x88),
                             _mm512_shuffle_i32x4(lo01, lo23, 0xDD),
                             _mm512_shuffle_i32x4(hi01, hi23, 0x88),
                             _mm512_shuffle_i32x4(hi01, hi23, 0xDD)};
#pragma GCC unroll 4
    for (int k = 0; k < 4; ++k) {
      const size_t off = (4 * k + j) * ChaCha20::kBlockBytes;
      const __m512i d = _mm512_loadu_si512(in + off);
      _mm512_storeu_si512(out + off, _mm512_xor_si512(d, rows[k]));
    }
  }
}

#undef SNOOPY_CHACHA_QR_AVX512

#pragma GCC diagnostic pop

#endif  // SNOOPY_KERNELS_X86

// SNOOPY_OBLIVIOUS_END(chacha20_blocks)

}  // namespace

ChaCha20::ChaCha20(std::span<const uint8_t> key, std::span<const uint8_t> nonce,
                   uint32_t counter) {
  assert(key.size() == kKeyBytes);
  assert(nonce.size() == kNonceBytes);
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = Load32Le(key.data() + 4 * i);
  }
  state_[12] = counter;
  state_[13] = Load32Le(nonce.data());
  state_[14] = Load32Le(nonce.data() + 4);
  state_[15] = Load32Le(nonce.data() + 8);
}

void ChaCha20::KeystreamBlock(uint32_t counter, std::array<uint8_t, kBlockBytes>& out) const {
  ChaChaBlockGeneric(state_.data(), counter, out.data());
}

void ChaCha20::Crypt(const uint8_t* in, uint8_t* out, size_t len) {
  size_t i = 0;
  // Drain buffered keystream from a previous partial block first so the SIMD
  // fast path always starts on a block boundary.
  if (partial_used_ < kBlockBytes) {
    const size_t take = std::min(len, kBlockBytes - partial_used_);
    for (size_t j = 0; j < take; ++j) {
      out[j] = in[j] ^ partial_[partial_used_ + j];
    }
    partial_used_ += take;
    i = take;
  }
#if SNOOPY_KERNELS_X86
  // Whole-block batches via the vector keystream, widest first. The batch widths
  // are picked by the public kernel backend; counter arithmetic wraps mod 2^32
  // exactly like the scalar per-block increment.
  {
    const KernelBackend backend = ActiveKernelBackend();
    if (backend == KernelBackend::kAVX512) {
      while (len - i >= 16 * kBlockBytes) {
        CryptBlocks16Avx512(state_.data(), in + i, out + i);
        state_[12] += 16;
        i += 16 * kBlockBytes;
      }
    }
    if (backend >= KernelBackend::kAVX2) {
      while (len - i >= 8 * kBlockBytes) {
        CryptBlocks8Avx2(state_.data(), in + i, out + i);
        state_[12] += 8;
        i += 8 * kBlockBytes;
      }
    }
  }
#endif
  // Remaining whole blocks go straight from the scalar block function's words into
  // the output; only a trailing partial block is buffered in `partial_`.
  for (; len - i >= kBlockBytes; i += kBlockBytes) {
    CryptBlockGeneric(state_.data(), state_[12], in + i, out + i);
    ++state_[12];
  }
  while (i < len) {
    if (partial_used_ == kBlockBytes) {
      ChaChaBlockGeneric(state_.data(), state_[12], partial_.data());
      ++state_[12];
      partial_used_ = 0;
    }
    const size_t take = std::min(len - i, kBlockBytes - partial_used_);
    for (size_t j = 0; j < take; ++j) {
      out[i + j] = in[i + j] ^ partial_[partial_used_ + j];
    }
    partial_used_ += take;
    i += take;
  }
}

}  // namespace snoopy
