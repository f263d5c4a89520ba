#include "src/crypto/poly1305.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obl/kernels.h"

namespace snoopy {

namespace {

using U128 = unsigned __int128;

constexpr uint64_t kMask26 = (uint64_t{1} << 26) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
// The 2^128 bit every full block carries, at its place in the top radix-2^44 limb.
constexpr uint64_t kFullBlockBit = uint64_t{1} << 40;

// Every function in this region is straight-line multiply/add/shift arithmetic over
// the secret key and message: loop trip counts, indices and addresses depend only
// on the public block count.

// SNOOPY_OBLIVIOUS_BEGIN(poly1305_blocks)
// ct-public: blocks groups g i k kLanes hibit
// ct-calls: MulReduce44 Radix44To26 Radix26To44 LoadLanes4 LoadLanes8 MulReduceLanes4
// ct-calls: MulReduceLanes8 AbsorbLanes4 AbsorbLanes8
// ct-calls: __attribute__ target always_inline reinterpret_cast

inline uint64_t LoadLe64(const uint8_t* p) {
  return static_cast<uint64_t>(p[0]) | (static_cast<uint64_t>(p[1]) << 8) |
         (static_cast<uint64_t>(p[2]) << 16) | (static_cast<uint64_t>(p[3]) << 24) |
         (static_cast<uint64_t>(p[4]) << 32) | (static_cast<uint64_t>(p[5]) << 40) |
         (static_cast<uint64_t>(p[6]) << 48) | (static_cast<uint64_t>(p[7]) << 56);
}

// h = h * r mod 2^130 - 5 in radix 2^44, partially reduced: on return h0, h1 < 2^44
// + 2^11 and h2 < 2^42. 2^132 = 4 * 2^130 = 20 (mod p), hence the factor 20.
inline void MulReduce44(uint64_t* h, const uint64_t* r) {
  const uint64_t s1 = r[1] * 20;
  const uint64_t s2 = r[2] * 20;
  const U128 d0 = static_cast<U128>(h[0]) * r[0] + static_cast<U128>(h[1]) * s2 +
                  static_cast<U128>(h[2]) * s1;
  U128 d1 = static_cast<U128>(h[0]) * r[1] + static_cast<U128>(h[1]) * r[0] +
            static_cast<U128>(h[2]) * s2;
  U128 d2 = static_cast<U128>(h[0]) * r[2] + static_cast<U128>(h[1]) * r[1] +
            static_cast<U128>(h[2]) * r[0];
  uint64_t c = static_cast<uint64_t>(d0 >> 44);
  h[0] = static_cast<uint64_t>(d0) & kMask44;
  d1 += c;
  c = static_cast<uint64_t>(d1 >> 44);
  h[1] = static_cast<uint64_t>(d1) & kMask44;
  d2 += c;
  c = static_cast<uint64_t>(d2 >> 42);
  h[2] = static_cast<uint64_t>(d2) & kMask42;
  h[0] += c * 5;
  c = h[0] >> 44;
  h[0] &= kMask44;
  h[1] += c;
}

// The one scalar Poly1305: absorbs `blocks` 16-byte blocks, each with the 2^128 bit
// `hibit` (kFullBlockBit, or 0 for the padded final partial block).
void Poly1305BlocksGeneric(uint64_t* h, const uint64_t* r, const uint8_t* m, size_t blocks,
                           uint64_t hibit) {
  // Local copies: `m` is a byte pointer and may alias h and r, which would otherwise
  // force a reload and store of every limb per block.
  uint64_t acc[3] = {h[0], h[1], h[2]};
  const uint64_t key[3] = {r[0], r[1], r[2]};
  for (; blocks > 0; --blocks, m += Poly1305::kBlockBytes) {
    const uint64_t t0 = LoadLe64(m);
    const uint64_t t1 = LoadLe64(m + 8);
    acc[0] += t0 & kMask44;
    acc[1] += ((t0 >> 44) | (t1 << 20)) & kMask44;
    acc[2] += (t1 >> 24) | hibit;
    MulReduce44(acc, key);
  }
  h[0] = acc[0];
  h[1] = acc[1];
  h[2] = acc[2];
}

// Radix 2^44 -> radix 2^26 with the same value. The sums absorb any limb excess, so
// a partially reduced h (the form MulReduce44 leaves) converts exactly; the top limb
// then exceeds 2^26 by at most a few units.
inline void Radix44To26(const uint64_t* h, uint32_t* out) {
  U128 acc = static_cast<U128>(h[0]) + (static_cast<U128>(h[1]) << 44);
  out[0] = static_cast<uint32_t>(acc & kMask26);
  acc >>= 26;
  out[1] = static_cast<uint32_t>(acc & kMask26);
  acc >>= 26;
  acc += static_cast<U128>(h[2]) << 36;
  out[2] = static_cast<uint32_t>(acc & kMask26);
  acc >>= 26;
  out[3] = static_cast<uint32_t>(acc & kMask26);
  acc >>= 26;
  out[4] = static_cast<uint32_t>(acc);
}

// Radix 2^26 (limbs below 2^32, value below 2^136) -> radix 2^44, partially
// reduced mod 2^130 - 5.
inline void Radix26To44(const uint64_t* l, uint64_t* h) {
  U128 acc = static_cast<U128>(l[0]) + (static_cast<U128>(l[1]) << 26) +
             (static_cast<U128>(l[2]) << 52);
  h[0] = static_cast<uint64_t>(acc) & kMask44;
  acc >>= 44;
  acc += (static_cast<U128>(l[3]) << 34) + (static_cast<U128>(l[4]) << 60);
  h[1] = static_cast<uint64_t>(acc) & kMask44;
  acc >>= 44;
  h[2] = static_cast<uint64_t>(acc) & kMask42;
  h[0] += static_cast<uint64_t>(acc >> 42) * 5;
}

// r^1 .. r^8 in radix 2^26: the lane multipliers of the vector kernels.
void Poly1305Powers(const uint64_t* r, uint32_t powers[][5]) {
  uint64_t p[3] = {r[0], r[1], r[2]};
  Radix44To26(p, powers[0]);
  for (int k = 1; k < 8; ++k) {
    MulReduce44(p, r);
    Radix44To26(p, powers[k]);
  }
}

#if SNOOPY_KERNELS_X86

// The lane kernels. With L lanes, lane j absorbs blocks j, j+L, j+2L, ... of a run
// of n = L * groups blocks: it adds its block and multiplies by r^L, except in the
// last group, where lane j multiplies by r^(L-j) instead. Lane 0 starts from the
// scalar accumulator h, the others from 0. Block t then carries r^(n-t) and h
// carries r^n, exactly the Horner sum of the scalar loop, so the lane sum is the
// scalar accumulator after the run. Each 64-bit lane holds a radix-2^26 limb in its
// low half, which vpmuludq multiplies 32x32 -> 64; limbs stay below 2^27.1 and
// r, 5r below 2^28.4, so the five-term column sums stay below 2^59.

#define SNOOPY_POLY_AVX2 __attribute__((target("avx2"), always_inline)) inline

// Splits four consecutive blocks into radix-2^26 limbs, block j in 64-bit lane j.
SNOOPY_POLY_AVX2 void LoadLanes4(const uint8_t* m, __m256i* t) {
  const __m256i mask = _mm256_set1_epi64x(kMask26);
  const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m));
  const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 32));
  // unpack leaves blocks in lane order 0, 2, 1, 3; the permute restores 0, 1, 2, 3.
  const __m256i lo = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(x0, x1), 0xD8);
  const __m256i hi = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(x0, x1), 0xD8);
  t[0] = _mm256_and_si256(lo, mask);
  t[1] = _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask);
  t[2] = _mm256_and_si256(_mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)),
                          mask);
  t[3] = _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask);
  t[4] = _mm256_or_si256(_mm256_srli_epi64(hi, 40), _mm256_set1_epi64x(1 << 24));
}

// a = a * r mod 2^130 - 5 per lane (s = 5r), then one carry pass that leaves every
// limb below 2^26 + 2^9.
SNOOPY_POLY_AVX2 void MulReduceLanes4(__m256i* a, const __m256i* r, const __m256i* s) {
  const __m256i mask = _mm256_set1_epi64x(kMask26);
  // Column k sums a[i] * r^(k-i), with the wrapped terms (i > k) taking 5r.
  __m256i d[5];
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    d[k] = _mm256_mul_epu32(a[0], r[k]);
#pragma GCC unroll 4
    for (int i = 1; i < 5; ++i) {
      d[k] = _mm256_add_epi64(d[k], _mm256_mul_epu32(a[i], i <= k ? r[k - i] : s[k - i + 5]));
    }
  }
  __m256i c = _mm256_srli_epi64(d[0], 26);
  d[0] = _mm256_and_si256(d[0], mask);
  d[1] = _mm256_add_epi64(d[1], c);
  c = _mm256_srli_epi64(d[3], 26);
  d[3] = _mm256_and_si256(d[3], mask);
  d[4] = _mm256_add_epi64(d[4], c);
  c = _mm256_srli_epi64(d[1], 26);
  d[1] = _mm256_and_si256(d[1], mask);
  d[2] = _mm256_add_epi64(d[2], c);
  c = _mm256_srli_epi64(d[4], 26);
  d[4] = _mm256_and_si256(d[4], mask);
  d[0] = _mm256_add_epi64(d[0], _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)));
  c = _mm256_srli_epi64(d[2], 26);
  d[2] = _mm256_and_si256(d[2], mask);
  d[3] = _mm256_add_epi64(d[3], c);
  c = _mm256_srli_epi64(d[0], 26);
  d[0] = _mm256_and_si256(d[0], mask);
  d[1] = _mm256_add_epi64(d[1], c);
  c = _mm256_srli_epi64(d[3], 26);
  d[3] = _mm256_and_si256(d[3], mask);
  d[4] = _mm256_add_epi64(d[4], c);
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    a[i] = d[i];
  }
}

// Adds the next 4 blocks to the lanes and multiplies each lane by its power of r.
SNOOPY_POLY_AVX2 void AbsorbLanes4(__m256i* a, const uint8_t* m, const __m256i* r,
                                   const __m256i* s) {
  __m256i t[5];
  LoadLanes4(m, t);
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    a[i] = _mm256_add_epi64(a[i], t[i]);
  }
  MulReduceLanes4(a, r, s);
}

// Absorbs `blocks` blocks (a positive multiple of 4) in four lanes.
__attribute__((target("avx2"))) void Poly1305BlocksAvx2(uint64_t* h, const uint32_t powers[][5],
                                                        const uint8_t* m, size_t blocks) {
  constexpr size_t kLanes = 4;
  uint32_t h26[5];
  Radix44To26(h, h26);
  __m256i r[5];
  __m256i s[5];
  __m256i a[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r[i] = _mm256_set1_epi64x(powers[kLanes - 1][i]);
    s[i] = _mm256_add_epi64(r[i], _mm256_slli_epi64(r[i], 2));
    a[i] = _mm256_setr_epi64x(h26[i], 0, 0, 0);
  }
  const size_t groups = blocks / kLanes;
  for (size_t g = 0; g + 1 < groups; ++g, m += kLanes * Poly1305::kBlockBytes) {
    AbsorbLanes4(a, m, r, s);
  }
  // The last group: lane j multiplies by r^(kLanes - j).
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r[i] = _mm256_setr_epi64x(powers[3][i], powers[2][i], powers[1][i], powers[0][i]);
    s[i] = _mm256_add_epi64(r[i], _mm256_slli_epi64(r[i], 2));
  }
  AbsorbLanes4(a, m, r, s);
  uint64_t lanes[5][kLanes];
  uint64_t sum[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes[i]), a[i]);
    sum[i] = lanes[i][0] + lanes[i][1] + lanes[i][2] + lanes[i][3];
  }
  Radix26To44(sum, h);
}

#undef SNOOPY_POLY_AVX2

// GCC 12's AVX-512 headers seed shifts and permutes with a self-initialized
// _mm512_undefined_epi32(), which -Wuninitialized misreports (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define SNOOPY_POLY_AVX512 __attribute__((target("avx512f"), always_inline)) inline

// Splits eight consecutive blocks into radix-2^26 limbs, block j in 64-bit lane j.
SNOOPY_POLY_AVX512 void LoadLanes8(const uint8_t* m, __m512i* t) {
  const __m512i mask = _mm512_set1_epi64(kMask26);
  const __m512i x0 = _mm512_loadu_si512(m);
  const __m512i x1 = _mm512_loadu_si512(m + 64);
  const __m512i lo =
      _mm512_permutex2var_epi64(x0, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), x1);
  const __m512i hi =
      _mm512_permutex2var_epi64(x0, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), x1);
  t[0] = _mm512_and_si512(lo, mask);
  t[1] = _mm512_and_si512(_mm512_srli_epi64(lo, 26), mask);
  t[2] = _mm512_and_si512(_mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)),
                          mask);
  t[3] = _mm512_and_si512(_mm512_srli_epi64(hi, 14), mask);
  t[4] = _mm512_or_si512(_mm512_srli_epi64(hi, 40), _mm512_set1_epi64(1 << 24));
}

// MulReduceLanes4 on eight lanes.
SNOOPY_POLY_AVX512 void MulReduceLanes8(__m512i* a, const __m512i* r, const __m512i* s) {
  const __m512i mask = _mm512_set1_epi64(kMask26);
  // Column k sums a[i] * r^(k-i), with the wrapped terms (i > k) taking 5r.
  __m512i d[5];
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    d[k] = _mm512_mul_epu32(a[0], r[k]);
#pragma GCC unroll 4
    for (int i = 1; i < 5; ++i) {
      d[k] = _mm512_add_epi64(d[k], _mm512_mul_epu32(a[i], i <= k ? r[k - i] : s[k - i + 5]));
    }
  }
  __m512i c = _mm512_srli_epi64(d[0], 26);
  d[0] = _mm512_and_si512(d[0], mask);
  d[1] = _mm512_add_epi64(d[1], c);
  c = _mm512_srli_epi64(d[3], 26);
  d[3] = _mm512_and_si512(d[3], mask);
  d[4] = _mm512_add_epi64(d[4], c);
  c = _mm512_srli_epi64(d[1], 26);
  d[1] = _mm512_and_si512(d[1], mask);
  d[2] = _mm512_add_epi64(d[2], c);
  c = _mm512_srli_epi64(d[4], 26);
  d[4] = _mm512_and_si512(d[4], mask);
  d[0] = _mm512_add_epi64(d[0], _mm512_add_epi64(c, _mm512_slli_epi64(c, 2)));
  c = _mm512_srli_epi64(d[2], 26);
  d[2] = _mm512_and_si512(d[2], mask);
  d[3] = _mm512_add_epi64(d[3], c);
  c = _mm512_srli_epi64(d[0], 26);
  d[0] = _mm512_and_si512(d[0], mask);
  d[1] = _mm512_add_epi64(d[1], c);
  c = _mm512_srli_epi64(d[3], 26);
  d[3] = _mm512_and_si512(d[3], mask);
  d[4] = _mm512_add_epi64(d[4], c);
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    a[i] = d[i];
  }
}

// Adds the next 8 blocks to the lanes and multiplies each lane by its power of r.
SNOOPY_POLY_AVX512 void AbsorbLanes8(__m512i* a, const uint8_t* m, const __m512i* r,
                                     const __m512i* s) {
  __m512i t[5];
  LoadLanes8(m, t);
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    a[i] = _mm512_add_epi64(a[i], t[i]);
  }
  MulReduceLanes8(a, r, s);
}

// Absorbs `blocks` blocks (a positive multiple of 8) in eight lanes.
__attribute__((target("avx512f"))) void Poly1305BlocksAvx512(uint64_t* h,
                                                             const uint32_t powers[][5],
                                                             const uint8_t* m, size_t blocks) {
  constexpr size_t kLanes = 8;
  uint32_t h26[5];
  Radix44To26(h, h26);
  __m512i r[5];
  __m512i s[5];
  __m512i a[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r[i] = _mm512_set1_epi64(powers[kLanes - 1][i]);
    s[i] = _mm512_add_epi64(r[i], _mm512_slli_epi64(r[i], 2));
    a[i] = _mm512_setr_epi64(h26[i], 0, 0, 0, 0, 0, 0, 0);
  }
  const size_t groups = blocks / kLanes;
  for (size_t g = 0; g + 1 < groups; ++g, m += kLanes * Poly1305::kBlockBytes) {
    AbsorbLanes8(a, m, r, s);
  }
  // The last group: lane j multiplies by r^(kLanes - j).
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r[i] = _mm512_setr_epi64(powers[7][i], powers[6][i], powers[5][i], powers[4][i],
                             powers[3][i], powers[2][i], powers[1][i], powers[0][i]);
    s[i] = _mm512_add_epi64(r[i], _mm512_slli_epi64(r[i], 2));
  }
  AbsorbLanes8(a, m, r, s);
  uint64_t sum[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    sum[i] = static_cast<uint64_t>(_mm512_reduce_add_epi64(a[i]));
  }
  Radix26To44(sum, h);
}

#undef SNOOPY_POLY_AVX512

#pragma GCC diagnostic pop

#endif  // SNOOPY_KERNELS_X86

// SNOOPY_OBLIVIOUS_END(poly1305_blocks)

}  // namespace

Poly1305::Poly1305(std::span<const uint8_t> key) {
  assert(key.size() == kKeyBytes);
  // r with clamping, split into 44-bit limbs (poly1305-donna-64 layout).
  const uint64_t t0 = LoadLe64(key.data());
  const uint64_t t1 = LoadLe64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = LoadLe64(key.data() + 16);
  pad_[1] = LoadLe64(key.data() + 24);
}

// The dispatch reads only public state: the kernel backend and the block count.
void Poly1305::Blocks(const uint8_t* data, size_t blocks) {
#if SNOOPY_KERNELS_X86
  const KernelBackend backend = ActiveKernelBackend();
  const size_t lanes = backend == KernelBackend::kAVX512 ? 8
                       : backend == KernelBackend::kAVX2 ? 4
                                                         : 0;
  if (lanes != 0 && blocks >= lanes) {
    if (!r_powers_ready_) {
      Poly1305Powers(r_, r_powers_);
      r_powers_ready_ = true;
    }
    const size_t run = blocks - blocks % lanes;
    if (lanes == 8) {
      Poly1305BlocksAvx512(h_, r_powers_, data, run);
    } else {
      Poly1305BlocksAvx2(h_, r_powers_, data, run);
    }
    data += run * kBlockBytes;
    blocks -= run;
  }
#endif
  Poly1305BlocksGeneric(h_, r_, data, blocks, kFullBlockBit);
}

void Poly1305::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, kBlockBytes - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockBytes) {
      return;
    }
    Blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t blocks = len / kBlockBytes;
  if (blocks > 0) {
    Blocks(data, blocks);
  }
  buffer_len_ = len - blocks * kBlockBytes;
  if (buffer_len_ > 0) {
    std::memcpy(buffer_.data(), data + blocks * kBlockBytes, buffer_len_);
  }
}

// SNOOPY_OBLIVIOUS_BEGIN(poly1305_finalize)
// ct-public: buffer_len_ kBlockBytes i w
// ct-calls: Poly1305BlocksGeneric

Poly1305::Tag Poly1305::Finalize() {
  if (buffer_len_ > 0) {
    buffer_[buffer_len_] = 1;
    for (size_t i = buffer_len_ + 1; i < kBlockBytes; ++i) {
      buffer_[i] = 0;
    }
    Poly1305BlocksGeneric(h_, r_, buffer_.data(), 1, /*hibit=*/0);
    buffer_len_ = 0;
  }

  uint64_t h0 = h_[0];
  uint64_t h1 = h_[1];
  uint64_t h2 = h_[2];

  // Full carry: h0, h1 < 2^44 and h2 < 2^42 (h below 2^130, not yet below p).
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + -p (i.e., h - (2^130 - 5)) and select it if non-negative.
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  const uint64_t g2 = h2 + c - (uint64_t{1} << 42);

  const uint64_t mask = (g2 >> 63) - 1;  // all-ones if g2 >= 0 (h >= p)
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // h + pad mod 2^128, serialized little-endian.
  h0 += pad_[0] & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((pad_[0] >> 44) | (pad_[1] << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += (pad_[1] >> 24) + c;
  h2 &= kMask42;
  const uint64_t words[2] = {h0 | (h1 << 44), (h1 >> 20) | (h2 << 24)};

  Tag tag;
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 8; ++i) {
      tag[8 * w + i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
  return tag;
}

// SNOOPY_OBLIVIOUS_END(poly1305_finalize)

Poly1305::Tag Poly1305::Compute(std::span<const uint8_t> key, std::span<const uint8_t> msg) {
  Poly1305 p(key);
  p.Update(msg.data(), msg.size());
  return p.Finalize();
}

}  // namespace snoopy
