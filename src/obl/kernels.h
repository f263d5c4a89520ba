// Vectorized oblivious kernels with one-time runtime dispatch.
//
// primitives.h defines the oblivious compare-and-set contract with scalar 8-byte mask
// arithmetic; this header provides AVX2/AVX-512 implementations of the hot
// byte-level operators (conditional swap, equality, and the fused compare-and-set
// access run of the subORAM scan and the load balancer's response propagation) behind
// a single public dispatch decision.
// The Snoopy paper (section 8.1) instantiates its oblivious operators with AVX-512
// masked moves inside SGX; the AVX-512 backend here is that construction literally
// (`vpblendmb` under an all-ones/all-zeros k-mask), while the AVX2 backend uses the
// and/andnot/or select and masked xor-swap forms. There is no SSE2 tier: every
// SGX-capable Xeon has AVX2, so inputs below one AVX2 vector take the scalar code.
//
// Obliviousness argument, per backend:
//  - The secret mask enters a vector register through a broadcast and a value barrier
//    (KernelVecBarrier / ValueBarrier), so the compiler cannot specialize on it and no
//    instruction's *control flow* depends on it.
//  - Every load and store is full-width and unconditional: a kernel touches exactly the
//    same addresses whether the mask is all-ones or all-zeros. Masked *stores* are
//    deliberately not used for suppression -- the AVX-512 access blends in registers
//    and then stores the full cache line, so the written byte set is mask-independent.
//  - Loop trip counts depend only on the public length n (and, for an access run, on
//    its public record count).
// The kernels therefore sit *below* trace granularity: the adversary-visible trace
// (enclave/trace.h) records logical events like kCondSwap(i, j), and every backend
// executes the identical logical sequence (tests/kernels_test.cc pins byte-identical
// traces across backends).
//
// Dispatch is public state: the backend is chosen once from CPUID (overridable with
// SNOOPY_KERNEL_BACKEND=generic|avx2|avx512, or pinned programmatically via
// SetKernelBackend for tests), cached in an atomic, and never depends on data.
// Branching on it leaks nothing.
//
// The crypto layer follows the same decision. Per backend:
//   generic  scalar ChaCha20, scalar (radix-2^44) Poly1305, scalar SHA-256
//   avx2     ChaCha20 8 blocks at a time, Poly1305 in 4 lanes
//   avx512   ChaCha20 16 blocks at a time, Poly1305 in 8 lanes
// Every backend but generic compresses SHA-256 with SHA-NI when the CPU has it
// (src/crypto/chacha20.cc, poly1305.cc, sha256.cc).

#ifndef SNOOPY_SRC_OBL_KERNELS_H_
#define SNOOPY_SRC_OBL_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/obl/primitives.h"
#include "src/obl/secret.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SNOOPY_KERNELS_X86 1
#include <immintrin.h>
#else
#define SNOOPY_KERNELS_X86 0
#endif

namespace snoopy {

// Widest-first preference order; numeric order is the preference order.
enum class KernelBackend : int { kGeneric = 0, kAVX2 = 1, kAVX512 = 2 };

// Human-readable name, also the SNOOPY_KERNEL_BACKEND spelling.
constexpr const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kGeneric:
      return "generic";
    case KernelBackend::kAVX2:
      return "avx2";
    case KernelBackend::kAVX512:
      return "avx512";
  }
  return "unknown";
}

// kernels.cc: the backends this CPU can run (always includes kGeneric), for benches and
// test parameterization.
std::vector<KernelBackend> SupportedKernelBackends();

inline bool KernelBackendSupported(KernelBackend backend) {
  if (backend == KernelBackend::kGeneric) {
    return true;
  }
#if SNOOPY_KERNELS_X86
  if (backend == KernelBackend::kAVX2) {
    return __builtin_cpu_supports("avx2") != 0;
  }
  if (backend == KernelBackend::kAVX512) {
    return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
  }
#endif
  return false;
}

namespace kernel_internal {

// -1 = not yet resolved. A racing first call resolves twice to the same value, which
// is benign; SetKernelBackend is for tests/benches and is not meant to race kernels.
inline std::atomic<int>& BackendState() {
  static std::atomic<int> state{-1};
  return state;
}

inline KernelBackend ResolveKernelBackend() {
  if (const char* named = std::getenv("SNOOPY_KERNEL_BACKEND")) {
    // An unknown or unsupported name falls through to CPUID.
    for (const KernelBackend b :
         {KernelBackend::kGeneric, KernelBackend::kAVX2, KernelBackend::kAVX512}) {
      if (std::strcmp(named, KernelBackendName(b)) == 0 && KernelBackendSupported(b)) {
        return b;
      }
    }
  }
  KernelBackend best = KernelBackend::kGeneric;
  if (KernelBackendSupported(KernelBackend::kAVX2)) {
    best = KernelBackend::kAVX2;
  }
  if (KernelBackendSupported(KernelBackend::kAVX512)) {
    best = KernelBackend::kAVX512;
  }
  return best;
}

}  // namespace kernel_internal

// The active backend: resolved once (env override, then widest CPUID-supported) and
// cached. Public state -- dispatching on it is not a secret-dependent branch.
inline KernelBackend ActiveKernelBackend() {
  std::atomic<int>& state = kernel_internal::BackendState();
  int v = state.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(kernel_internal::ResolveKernelBackend());
    state.store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelBackend>(v);
}

// Pins the backend (tests, benches). Pinning an unsupported backend would execute
// illegal instructions; callers gate on KernelBackendSupported.
inline void SetKernelBackend(KernelBackend backend) {
  kernel_internal::BackendState().store(static_cast<int>(backend), std::memory_order_relaxed);
}

// Drops the cached decision; the next ActiveKernelBackend() re-reads env + CPUID.
inline void ResetKernelBackend() {
  kernel_internal::BackendState().store(-1, std::memory_order_relaxed);
}

// One record's masks for KernelAccessRun, computed by the caller's functor from the
// record's own (secret) fields.
struct AccessMasks {
  SecretBool write;   // state <- the record's value
  SecretBool match;   // the record's value <- the old state (or zeros, see reveal)
  SecretBool reveal;  // under match: old state if set, zeros if not
};

// A run's masks from per-record match columns instead of a functor: four words per
// record, written once per table by the caller (the subORAM scan's BuildScanColumns,
// src/core/suboram.h), each pointer at the run's first record. Against the public
// `obj_key`, record r gets
//   match = (key[r] == obj_key) & live[r], write = match & wr[r], keep = match & gr[r],
// where live, wr and gr hold all-ones/all-zeros words. KernelAccessRun builds each
// block's masks from the columns with the widest compare the backend has.
struct AccessColumns {
  const uint64_t* key;
  const uint64_t* live;
  const uint64_t* wr;
  const uint64_t* gr;
  uint64_t obj_key;
};

// SNOOPY_OBLIVIOUS_BEGIN(kernels)
// ct-public: i n r j c off len base block count stride value_offset last kRegs chunking
// ct-public: backend vector first values stash chunks extra kAccessRunBlock KernelBackend
// ct-public: kAVX512 kAVX2 max_bytes left
// ct-calls: ValueBarrier __attribute__ target GenericDiffWord GenericAccessSlot alignas
// ct-calls: masks KernelAccessReg32 KernelAccessReg64 SplitRun Offset Length
// ct-calls: KernelBroadcast256 KernelAvx2ColumnMasks KernelAvx512ColumnMasks
// ct-calls: GenericColumnMasks ColumnMasksOn

namespace kernel_internal {

// Generic diff accumulator (the word the equality kernels reduce to): OR of all byte
// differences. Mirrors CtEqualBytes/SecretEqualBytes so both can share the backends.
inline uint64_t GenericDiffWord(const uint8_t* a, const uint8_t* b, size_t n) {
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    acc |= wa ^ wb;
  }
  for (; i < n; ++i) {
    acc |= static_cast<uint64_t>(a[i] ^ b[i]);
  }
  return acc;
}

// Generic fused access of one (state, slot) pair (the per-record contract of
// KernelAccessRun below): per word,
//   old = state; state = write ? slot : state; slot = match ? (reveal ? old : 0) : slot.
// `keep` is reveal & match, so the response lane is old & keep | slot & ~match. The
// masks are re-barriered every word, like CtCondCopyBytesMask, to keep this loop in its
// audited scalar form rather than the autovectorizer's.
inline void GenericAccessSlot(uint64_t write, uint64_t match, uint64_t reveal,
                              uint8_t* state, uint8_t* slot, size_t n) {
  const uint64_t keep = reveal & match;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t w = ValueBarrier(write);
    const uint64_t m = ValueBarrier(match);
    const uint64_t k = ValueBarrier(keep);
    uint64_t sw;
    uint64_t lw;
    std::memcpy(&sw, state + i, 8);
    std::memcpy(&lw, slot + i, 8);
    const uint64_t new_state = (lw & w) | (sw & ~w);
    const uint64_t new_slot = (sw & k) | (lw & ~m);
    std::memcpy(state + i, &new_state, 8);
    std::memcpy(slot + i, &new_slot, 8);
  }
  const auto w8 = static_cast<uint8_t>(write);
  const auto m8 = static_cast<uint8_t>(match);
  const auto k8 = static_cast<uint8_t>(keep);
  for (; i < n; ++i) {
    const uint8_t sb = state[i];
    const uint8_t lb = slot[i];
    state[i] = static_cast<uint8_t>((lb & w8) | (sb & static_cast<uint8_t>(~w8)));
    slot[i] = static_cast<uint8_t>((sb & k8) | (lb & static_cast<uint8_t>(~m8)));
  }
}

// A record's masks as words; keep = reveal & match, the response lane's select.
struct AccessWords {
  uint64_t write;
  uint64_t match;
  uint64_t keep;
};

// Records per block of a run: a block's masks are computed first into a stash of
// kAccessRunBlock entries (the functor once per record, in run order, or the column
// compare several records at a time); then the block kernel carries the value through
// the block (the SIMD ones once per register chunk) and reads each record's masks back
// from the stash. A multiple of 8, so the column producers' whole-vector stores of a
// block's last partial group stay inside the stash.
inline constexpr size_t kAccessRunBlock = 64;

// The generic column producer: the scalar compare once per record.
inline void GenericColumnMasks(const uint64_t* key, const uint64_t* live, const uint64_t* wr,
                               const uint64_t* gr, uint64_t obj_key, size_t count,
                               AccessWords* stash) {
  for (size_t r = 0; r < count; ++r) {
    const uint64_t match = (SecretU64(key[r]) == SecretU64(obj_key)).mask() & live[r];
    stash[r] = AccessWords{match & wr[r], match, match & gr[r]};
  }
}

// Chunk geometry of a SIMD run: n split into the fewest chunks of at most max_bytes,
// as evenly as possible, so every chunk is at least one vector wide whenever n is.
// Public arithmetic on the public n.
struct RunChunking {
  size_t chunks;
  size_t base;
  size_t extra;  // the first `extra` chunks are one byte longer than `base`

  size_t Offset(size_t c) const { return c * base + (c < extra ? c : extra); }
  size_t Length(size_t c) const { return base + (c < extra ? 1 : 0); }
};

inline RunChunking SplitRun(size_t n, size_t max_bytes) {
  if (n <= max_bytes) {
    return RunChunking{1, n, 0};
  }
  const size_t chunks = (n + max_bytes - 1) / max_bytes;
  return RunChunking{chunks, n / chunks, n % chunks};
}

#if SNOOPY_KERNELS_X86

// Vector value barriers: like ValueBarrier but for xmm/ymm/zmm registers, so the
// compiler cannot prove the broadcast mask constant and lift it into a branch. The
// 128-bit form serves the AVX2 and AVX-512 kernels' 16-byte tails.
inline __m128i KernelVecBarrier(__m128i v) {
  __asm__ volatile("" : "+x"(v));
  return v;
}

__attribute__((target("avx2"))) inline __m256i KernelVecBarrier256(__m256i v) {
  __asm__ volatile("" : "+x"(v));
  return v;
}

__attribute__((target("avx512f"))) inline __m512i KernelVecBarrier512(__m512i v) {
  __asm__ volatile("" : "+v"(v));
  return v;
}

// A mask word broadcast to every lane, then barriered (the access kernels' masks).
__attribute__((target("avx2"))) inline __m256i KernelBroadcast256(uint64_t w) {
  return KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(w)));
}

// ---- AVX2: 32-byte lanes, and/andnot/or select, masked xor-swap ----

__attribute__((target("avx2"))) inline void KernelAvx2CondSwap(uint64_t mask, uint8_t* a,
                                                               uint8_t* b, size_t n) {
  const __m256i vm = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(mask)));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i diff = _mm256_and_si256(_mm256_xor_si256(av, bv), vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), _mm256_xor_si256(av, diff));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + i), _mm256_xor_si256(bv, diff));
  }
  if (i + 16 <= n) {
    const __m128i vm128 = _mm256_castsi256_si128(vm);
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i diff = _mm_and_si128(_mm_xor_si128(av, bv), vm128);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_xor_si128(av, diff));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b + i), _mm_xor_si128(bv, diff));
    i += 16;
  }
  CtCondSwapBytesMask(mask, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) inline uint64_t KernelAvx2DiffWord(const uint8_t* a,
                                                                   const uint8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(av, bv));
  }
  __m128i acc128 =
      _mm_or_si128(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  if (i + 16 <= n) {
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc128 = _mm_or_si128(acc128, _mm_xor_si128(av, bv));
    i += 16;
  }
  uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc128);
  return lanes[0] | lanes[1] | GenericDiffWord(a + i, b + i, n - i);
}

// One 32-byte step of the fused access with the carried value `s` held in a register
// and the slot's bytes `lv` already loaded: vw/vm/vk are the broadcast write, match
// and keep (reveal & match) masks. The slot is stored in full whatever the masks.
__attribute__((target("avx2"))) inline void KernelAccessReg32(__m256i vw, __m256i vm,
                                                              __m256i vk, __m256i lv,
                                                              __m256i& s, uint8_t* slot) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(slot),
                      _mm256_or_si256(_mm256_and_si256(s, vk), _mm256_andnot_si256(vm, lv)));
  s = _mm256_or_si256(_mm256_and_si256(lv, vw), _mm256_andnot_si256(vw, s));
}

// ---- AVX-512: 64-byte lanes; the access is the paper's masked-move construction ----

__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512CondSwap(
    uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  const __m512i vm = KernelVecBarrier512(_mm512_set1_epi64(static_cast<long long>(mask)));
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i av = _mm512_loadu_si512(a + i);
    const __m512i bv = _mm512_loadu_si512(b + i);
    const __m512i diff = _mm512_and_si512(_mm512_xor_si512(av, bv), vm);
    _mm512_storeu_si512(a + i, _mm512_xor_si512(av, diff));
    _mm512_storeu_si512(b + i, _mm512_xor_si512(bv, diff));
  }
  // Tails re-broadcast the mask at ymm/xmm width rather than narrowing vm: GCC 12's
  // maskless _mm512_castsi512_si* wrappers trip -Wmaybe-uninitialized on their
  // self-initialized merge operands when inlined into non-avx512 TUs.
  if (i + 32 <= n) {
    const __m256i vm256 = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(mask)));
    const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i diff = _mm256_and_si256(_mm256_xor_si256(av, bv), vm256);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), _mm256_xor_si256(av, diff));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + i), _mm256_xor_si256(bv, diff));
    i += 32;
  }
  if (i + 16 <= n) {
    const __m128i vm128 = KernelVecBarrier(_mm_set1_epi64x(static_cast<long long>(mask)));
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i diff = _mm_and_si128(_mm_xor_si128(av, bv), vm128);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_xor_si128(av, diff));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b + i), _mm_xor_si128(bv, diff));
    i += 16;
  }
  CtCondSwapBytesMask(mask, a + i, b + i, n - i);
}

__attribute__((target("avx512f,avx512bw"))) inline uint64_t KernelAvx512DiffWord(
    const uint8_t* a, const uint8_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i av = _mm512_loadu_si512(a + i);
    const __m512i bv = _mm512_loadu_si512(b + i);
    acc = _mm512_or_si512(acc, _mm512_xor_si512(av, bv));
  }
  // Reduce the 512-bit accumulator through memory: GCC 12's maskless
  // _mm512_extracti64x4_epi64 wrapper self-initializes its merge operand and trips
  // -Wuninitialized when inlined into a TU not compiled with -mavx512f. One spill
  // on a once-per-call reduction costs nothing.
  alignas(64) uint64_t wide[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(wide), acc);
  const uint64_t wide_or = wide[0] | wide[1] | wide[2] | wide[3] | wide[4] | wide[5] |
                           wide[6] | wide[7];
  __m128i acc128 = _mm_setzero_si128();
  if (i + 32 <= n) {
    const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i d = _mm256_xor_si256(av, bv);
    acc128 = _mm_or_si128(acc128,
                          _mm_or_si128(_mm256_castsi256_si128(d), _mm256_extracti128_si256(d, 1)));
    i += 32;
  }
  if (i + 16 <= n) {
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc128 = _mm_or_si128(acc128, _mm_xor_si128(av, bv));
    i += 16;
  }
  uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc128);
  return wide_or | lanes[0] | lanes[1] | GenericDiffWord(a + i, b + i, n - i);
}

// ---- Register-resident blocks: one carried value against a block of records ----
//
// Each backend holds the carried value (up to 256 bytes in AVX2 or AVX-512 registers;
// a wider value is split into even chunks of at most that) in vector registers across
// a whole block of records: one load of the chunk, then per record one full-width
// load, select and store of each slot vector and a register-only select of the state,
// then one store of the chunk. A chunk whose length is not a multiple of the vector
// width ends in a full-width vector that overlaps the one before it; the record's
// bytes under it are loaded before any store, so both vectors compute the same bytes
// and the overlap is written twice with equal values. Nothing is byte-masked. The
// vector count is a template argument so the chunk array is register-allocated; it and
// the chunk geometry depend only on the public n. The masks come in as words, never
// from the functor: these functions need no stack frame, which in an AVX function
// would be realigned and so opaque to the binary taint audit.

template <int kRegs>
__attribute__((target("avx2"))) inline void KernelAvx2RunChunk(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t len,
    const AccessWords* masks) {
  const size_t last = len - 32;
  __m256i s[kRegs];
#pragma GCC unroll 8
  for (int j = 0; j + 1 < kRegs; ++j) {
    s[j] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 32 * j));
  }
  s[kRegs - 1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + last));
  for (size_t r = 0; r < count; ++r) {
    uint8_t* slot = values + r * stride;
    // Broadcast straight from the stash: a mask word passed through a general register
    // may be spilled and reloaded, and these functions must keep no stack frame.
    const __m256i vw = KernelBroadcast256(masks[r].write);
    const __m256i vm = KernelBroadcast256(masks[r].match);
    const __m256i vk = KernelBroadcast256(masks[r].keep);
    // Loaded before any store: the last vector may overlap the one before it.
    const __m256i lv_last = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slot + last));
#pragma GCC unroll 8
    for (int j = 0; j + 1 < kRegs; ++j) {
      const __m256i lv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slot + 32 * j));
      KernelAccessReg32(vw, vm, vk, lv, s[j], slot + 32 * j);
    }
    KernelAccessReg32(vw, vm, vk, lv_last, s[kRegs - 1], slot + last);
  }
#pragma GCC unroll 8
  for (int j = 0; j + 1 < kRegs; ++j) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 32 * j), s[j]);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + last), s[kRegs - 1]);
}

// One chunk, with its vector count (ceil(len / 32)) as the template argument.
template <int kRegs = 1>
__attribute__((target("avx2"))) inline void KernelAvx2Chunk(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t len,
    const AccessWords* masks) {
  if constexpr (kRegs < 8) {
    if (len > 32 * kRegs) {
      KernelAvx2Chunk<kRegs + 1>(state, values, count, stride, len, masks);
      return;
    }
  }
  KernelAvx2RunChunk<kRegs>(state, values, count, stride, len, masks);
}

// A block of `count` records whose n-byte values (n >= 32) start at `values`,
// `stride` bytes apart, with their masks in `masks`.
__attribute__((target("avx2"))) inline void KernelAvx2AccessBlock(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t n,
    const AccessWords* masks) {
  const RunChunking chunking = SplitRun(n, 256);
  for (size_t c = 0; c < chunking.chunks; ++c) {
    const size_t off = chunking.Offset(c);
    KernelAvx2Chunk(state + off, values + off, count, stride, chunking.Length(c), masks);
  }
}

// The AVX2 column producer: 4 records per _mm256_cmpeq_epi64, the and-masks beside it,
// then the three mask vectors interleaved into 4 stash entries (3 vectors) with lane
// permutes and dword blends, all in registers. A last partial group loads its columns
// under a public lane mask; its lanes past `count` read as zeros, so their stash
// entries get all-zero masks.
__attribute__((target("avx2"))) inline void KernelAvx2ColumnMasks(
    const uint64_t* key, const uint64_t* live, const uint64_t* wr, const uint64_t* gr,
    uint64_t obj_key, size_t count, AccessWords* stash) {
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(obj_key));
  const __m256i lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
  // A block is at most 16 groups: unrolled in full when the count is a constant.
#pragma GCC unroll 16
  for (size_t r = 0; r < count; r += 4) {
    const __m256i lanes =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(count - r)), lane_ids);
    const __m256i k = _mm256_maskload_epi64(reinterpret_cast<const long long*>(key + r), lanes);
    const __m256i lv = _mm256_maskload_epi64(reinterpret_cast<const long long*>(live + r), lanes);
    const __m256i wv = _mm256_maskload_epi64(reinterpret_cast<const long long*>(wr + r), lanes);
    const __m256i gv = _mm256_maskload_epi64(reinterpret_cast<const long long*>(gr + r), lanes);
    const __m256i m = _mm256_and_si256(_mm256_cmpeq_epi64(k, vkey), lv);
    const __m256i w = _mm256_and_si256(m, wv);
    const __m256i kp = _mm256_and_si256(m, gv);
    // Entries (w0 m0 k0 w1) (m1 k1 w2 m2) (k2 w3 m3 k3): each vector takes its lanes
    // from lane-broadcasts of w, m and k; blend 0x0C picks qword 1, 0x30 qword 2.
    auto* out = reinterpret_cast<__m256i*>(stash + r);
    _mm256_storeu_si256(
        out, _mm256_blend_epi32(_mm256_blend_epi32(_mm256_permute4x64_epi64(w, 0x40),
                                                   _mm256_permute4x64_epi64(m, 0x00), 0x0C),
                                _mm256_permute4x64_epi64(kp, 0x00), 0x30));
    _mm256_storeu_si256(
        out + 1, _mm256_blend_epi32(_mm256_blend_epi32(_mm256_permute4x64_epi64(m, 0x95),
                                                       _mm256_permute4x64_epi64(kp, 0x55), 0x0C),
                                    _mm256_permute4x64_epi64(w, 0xAA), 0x30));
    _mm256_storeu_si256(
        out + 2, _mm256_blend_epi32(_mm256_blend_epi32(_mm256_permute4x64_epi64(kp, 0xEA),
                                                       _mm256_permute4x64_epi64(w, 0xFF), 0x0C),
                                    _mm256_permute4x64_epi64(m, 0xFF), 0x30));
  }
}

// The 64-byte step, the paper's masked-move construction: k-masks pick bytes in
// registers (vpblendmb, vmovdqu8 with zeroing) and the slot store is full-width, so the
// written byte set is mask-independent.
__attribute__((target("avx512f,avx512bw"))) inline void KernelAccessReg64(
    __mmask64 kw, __mmask64 km, __mmask64 kk, __m512i lv, __m512i& s, uint8_t* slot) {
  _mm512_storeu_si512(slot, _mm512_mask_blend_epi8(km, lv, _mm512_maskz_mov_epi8(kk, s)));
  s = _mm512_mask_blend_epi8(kw, s, lv);
}

template <int kRegs>
__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512RunChunk(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t len,
    const AccessWords* masks) {
  const size_t last = len - 64;
  __m512i s[kRegs];
#pragma GCC unroll 4
  for (int j = 0; j + 1 < kRegs; ++j) {
    s[j] = _mm512_loadu_si512(state + 64 * j);
  }
  s[kRegs - 1] = _mm512_loadu_si512(state + last);
  for (size_t r = 0; r < count; ++r) {
    uint8_t* slot = values + r * stride;
    const __mmask64 kw = _cvtu64_mask64(ValueBarrier(masks[r].write));
    const __mmask64 km = _cvtu64_mask64(ValueBarrier(masks[r].match));
    const __mmask64 kk = _cvtu64_mask64(ValueBarrier(masks[r].keep));
    // Loaded before any store: the last vector may overlap the one before it.
    const __m512i lv_last = _mm512_loadu_si512(slot + last);
#pragma GCC unroll 4
    for (int j = 0; j + 1 < kRegs; ++j) {
      KernelAccessReg64(kw, km, kk, _mm512_loadu_si512(slot + 64 * j), s[j], slot + 64 * j);
    }
    KernelAccessReg64(kw, km, kk, lv_last, s[kRegs - 1], slot + last);
  }
#pragma GCC unroll 4
  for (int j = 0; j + 1 < kRegs; ++j) {
    _mm512_storeu_si512(state + 64 * j, s[j]);
  }
  _mm512_storeu_si512(state + last, s[kRegs - 1]);
}

// One chunk, with its vector count (ceil(len / 64)) as the template argument.
template <int kRegs = 1>
__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512Chunk(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t len,
    const AccessWords* masks) {
  if constexpr (kRegs < 4) {
    if (len > 64 * kRegs) {
      KernelAvx512Chunk<kRegs + 1>(state, values, count, stride, len, masks);
      return;
    }
  }
  KernelAvx512RunChunk<kRegs>(state, values, count, stride, len, masks);
}

// A block of `count` records whose n-byte values (n >= 64) start at `values`,
// `stride` bytes apart, with their masks in `masks`.
__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512AccessBlock(
    uint8_t* state, uint8_t* values, size_t count, size_t stride, size_t n,
    const AccessWords* masks) {
  const RunChunking chunking = SplitRun(n, 256);
  for (size_t c = 0; c < chunking.chunks; ++c) {
    const size_t off = chunking.Offset(c);
    KernelAvx512Chunk(state + off, values + off, count, stride, chunking.Length(c), masks);
  }
}

// The AVX-512 column producer: 8 records per _mm512_cmpeq_epi64_mask, the k-mask
// widened over the live column with _mm512_maskz_mov_epi64, the and-masks beside it,
// then the three mask vectors interleaved into 8 stash entries (3 vectors): a
// two-source permute places the write and match lanes and a masked permute drops the
// keep lanes in, all in registers. A last partial group loads its columns under a
// public lane k-mask; its lanes past `count` read as zeros, so their stash entries get
// all-zero masks.
__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512ColumnMasks(
    const uint64_t* key, const uint64_t* live, const uint64_t* wr, const uint64_t* gr,
    uint64_t obj_key, size_t count, AccessWords* stash) {
  const __m512i vkey = _mm512_set1_epi64(static_cast<long long>(obj_key));
  // Entries (w0 m0 k0 w1 m1 k1 w2 m2) (k2 w3 m3 k3 w4 m4 k4 w5) (m5 k5 w6 m6 k6 w7 m7 k7):
  // write/match sources (w = 0..7, m = 8..15), then the keep lanes and their sources.
  const __m512i wm0 = _mm512_setr_epi64(0, 8, 0, 1, 9, 0, 2, 10);
  const __m512i wm1 = _mm512_setr_epi64(0, 3, 11, 0, 4, 12, 0, 5);
  const __m512i wm2 = _mm512_setr_epi64(13, 0, 6, 14, 0, 7, 15, 0);
  const __m512i k0 = _mm512_setr_epi64(0, 0, 0, 0, 0, 1, 0, 0);
  const __m512i k1 = _mm512_setr_epi64(2, 0, 0, 3, 0, 0, 4, 0);
  const __m512i k2 = _mm512_setr_epi64(0, 5, 0, 0, 6, 0, 0, 7);
  for (size_t r = 0; r < count; r += 8) {
    const size_t left = count - r;
    const auto lanes = static_cast<__mmask8>(left < 8 ? (1u << left) - 1 : 0xFFu);
    const __m512i k = _mm512_maskz_loadu_epi64(lanes, key + r);
    const __m512i m = _mm512_maskz_mov_epi64(_mm512_cmpeq_epi64_mask(k, vkey),
                                             _mm512_maskz_loadu_epi64(lanes, live + r));
    const __m512i w = _mm512_and_si512(m, _mm512_maskz_loadu_epi64(lanes, wr + r));
    const __m512i kp = _mm512_and_si512(m, _mm512_maskz_loadu_epi64(lanes, gr + r));
    auto* out = reinterpret_cast<uint64_t*>(stash + r);
    _mm512_storeu_si512(out, _mm512_mask_permutexvar_epi64(
                                 _mm512_permutex2var_epi64(w, wm0, m), 0x24, k0, kp));
    _mm512_storeu_si512(out + 8, _mm512_mask_permutexvar_epi64(
                                     _mm512_permutex2var_epi64(w, wm1, m), 0x49, k1, kp));
    _mm512_storeu_si512(out + 16, _mm512_mask_permutexvar_epi64(
                                      _mm512_permutex2var_epi64(w, wm2, m), 0x92, k2, kp));
  }
}

#endif  // SNOOPY_KERNELS_X86

// The generic block: the audited scalar GenericAccessSlot once per record, with the
// carried value in memory.
inline void GenericAccessBlock(uint8_t* state, uint8_t* values, size_t count, size_t stride,
                               size_t n, const AccessWords* masks) {
  for (size_t r = 0; r < count; ++r) {
    GenericAccessSlot(masks[r].write, masks[r].match, masks[r].keep, state,
                      values + r * stride, n);
  }
}

// Masks of `count` records from their columns (starting `base` records into the run),
// with the widest compare `backend` has.
inline void ColumnMasksOn(KernelBackend backend, const AccessColumns& columns, size_t base,
                          size_t count, AccessWords* stash) {
  const uint64_t* key = columns.key + base;
  const uint64_t* live = columns.live + base;
  const uint64_t* wr = columns.wr + base;
  const uint64_t* gr = columns.gr + base;
#if SNOOPY_KERNELS_X86
  if (backend == KernelBackend::kAVX512) {
    KernelAvx512ColumnMasks(key, live, wr, gr, columns.obj_key, count, stash);
    return;
  }
  if (backend == KernelBackend::kAVX2) {
    KernelAvx2ColumnMasks(key, live, wr, gr, columns.obj_key, count, stash);
    return;
  }
#endif
  GenericColumnMasks(key, live, wr, gr, columns.obj_key, count, stash);
}

// The run, block by block: the block's masks into the stash (the functor once per
// record, in run order, or AccessColumns through ColumnMasksOn), then the block kernel
// of the widest vector `backend` has that fits in the value (under 32 bytes, the
// generic block).
template <class Masks>
inline void AccessRunOn(KernelBackend backend, uint8_t* state, uint8_t* run, size_t count,
                        size_t stride, size_t value_offset, size_t n, const Masks& masks) {
  KernelBackend vector = KernelBackend::kGeneric;
#if SNOOPY_KERNELS_X86
  if (backend >= KernelBackend::kAVX512 && n >= 64) {
    vector = KernelBackend::kAVX512;
  } else if (backend >= KernelBackend::kAVX2 && n >= 32) {
    vector = KernelBackend::kAVX2;
  }
#endif
  AccessWords stash[kAccessRunBlock];
  for (size_t base = 0; base < count; base += kAccessRunBlock) {
    const size_t block = count - base < kAccessRunBlock ? count - base : kAccessRunBlock;
    uint8_t* first = run + base * stride;
    if constexpr (std::is_same_v<Masks, AccessColumns>) {
      ColumnMasksOn(backend, masks, base, block, stash);
    } else {
      for (size_t r = 0; r < block; ++r) {
        const AccessMasks m = masks(first + r * stride);
        stash[r].write = m.write.mask();
        stash[r].match = m.match.mask();
        stash[r].keep = (m.reveal & m.match).mask();
      }
    }
    uint8_t* values = first + value_offset;
#if SNOOPY_KERNELS_X86
    if (vector == KernelBackend::kAVX512) {
      KernelAvx512AccessBlock(state, values, block, stride, n, stash);
      continue;
    }
    if (vector == KernelBackend::kAVX2) {
      KernelAvx2AccessBlock(state, values, block, stride, n, stash);
      continue;
    }
#endif
    GenericAccessBlock(state, values, block, stride, n, stash);
  }
}

}  // namespace kernel_internal

// SNOOPY_OBLIVIOUS_END(kernels)

// ---- Dispatching entry points ----
//
// The branches below are on ActiveKernelBackend() -- public, CPUID-derived state -- so
// they are not secret-dependent branches. Each backend handles any n (the vector loop
// may run zero iterations; the scalar code finishes the tail), so small operands are
// correct everywhere and pay only the dispatch load. KernelAccessRun's backend choice
// also reads the public n (AccessRunOn).

inline void KernelCondSwapBytesMask(uint64_t mask, void* a, void* b, size_t n) {
#if SNOOPY_KERNELS_X86
  auto* pa = static_cast<uint8_t*>(a);
  auto* pb = static_cast<uint8_t*>(b);
  const KernelBackend backend = ActiveKernelBackend();
  if (backend == KernelBackend::kAVX512) {
    kernel_internal::KernelAvx512CondSwap(mask, pa, pb, n);
    return;
  }
  if (backend == KernelBackend::kAVX2) {
    kernel_internal::KernelAvx2CondSwap(mask, pa, pb, n);
    return;
  }
#endif
  CtCondSwapBytesMask(mask, a, b, n);
}

// Fused oblivious access of one carried value `state` (n bytes) against a run of
// `count` records `stride` bytes apart, each holding an n-byte value at
// `value_offset`. `masks` is either AccessColumns (the run's match columns) or a
// functor: `masks(record)` returns the record's AccessMasks; it is called once per
// record, in run order, before that record's value is touched, and may read or write
// the record's bytes outside its value. Per record, with all-ones/all-zeros
// masks,
//   old = state; state = write ? value : state; value = match ? (reveal ? old : 0) : value,
// which equals staging `old` with a memcpy and then three conditional copies. Every
// byte of every record's value and of `state` is read and written whatever the masks;
// the SIMD backends hold `state` in vector registers across each block of up to
// kAccessRunBlock records. The subORAM scan (object value = state, one OHT bucket =
// the run) and the load balancer's response propagation (carried response = state,
// the merged batch = the run) both run on it.
template <class Masks>
inline void KernelAccessRun(void* state, void* run, size_t count, size_t stride,
                            size_t value_offset, size_t n, const Masks& masks) {
  kernel_internal::AccessRunOn(ActiveKernelBackend(), static_cast<uint8_t*>(state),
                               static_cast<uint8_t*>(run), count, stride, value_offset, n,
                               masks);
}

// OR of all byte differences between a and b (zero iff equal); the shared core of the
// bool- and Secret-typed equality entry points.
inline uint64_t KernelDiffBytesWord(const void* a, const void* b, size_t n) {
  const auto* pa = static_cast<const uint8_t*>(a);
  const auto* pb = static_cast<const uint8_t*>(b);
#if SNOOPY_KERNELS_X86
  const KernelBackend backend = ActiveKernelBackend();
  if (backend == KernelBackend::kAVX512) {
    return kernel_internal::KernelAvx512DiffWord(pa, pb, n);
  }
  if (backend == KernelBackend::kAVX2) {
    return kernel_internal::KernelAvx2DiffWord(pa, pb, n);
  }
#endif
  return kernel_internal::GenericDiffWord(pa, pb, n);
}

inline bool KernelEqualBytes(const void* a, const void* b, size_t n) {
  return CtIsZero64(KernelDiffBytesWord(a, b, n));
}

inline SecretBool KernelSecretEqualBytes(const void* a, const void* b, size_t n) {
  return !SecretBool::FromWord(KernelDiffBytesWord(a, b, n));
}

// SecretBool-conditioned forms: the mask is extracted exactly once per secret
// condition and fed straight to the mask kernels (no bool round-trip).
inline void KernelCondSwapBytes(SecretBool c, void* a, void* b, size_t n) {
  KernelCondSwapBytesMask(c.mask(), a, b, n);
}

// ---- Cache-tile geometry for the depth-first bitonic sort (public) ----

// L1 data-cache budget per sort tile. 32 KiB is the common x86 L1d size; the sim's
// CostModelConfig carries the same default so the model and the real sort agree.
inline constexpr size_t kL1TileBytes = 32 * 1024;

// Records per L1-resident sort block, as a power of two (>= 4). A compare-swap
// touches two records, so each side gets half the tile; rounding down to a power of
// two keeps tile boundaries aligned with the bitonic network's merge strides. For the
// paper's 208-byte records and a 32 KiB tile: 32768 / (2*208) = 78 -> 64 records.
inline size_t SortBlockRecords(size_t record_bytes, size_t l1_tile_bytes = kL1TileBytes) {
  const size_t rb = record_bytes == 0 ? 1 : record_bytes;
  const size_t budget = l1_tile_bytes / (2 * rb);
  size_t block = 4;
  while (block * 2 <= budget) {
    block *= 2;
  }
  return block;
}

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_KERNELS_H_
