// Vectorized oblivious kernels with one-time runtime dispatch.
//
// primitives.h defines the oblivious compare-and-set contract with scalar 8-byte mask
// arithmetic; this header provides SSE2/AVX2/AVX-512 implementations of the hot
// byte-level operators (conditional swap, equality, and the fused compare-and-set
// access of the subORAM scan) behind a single public dispatch decision.
// The Snoopy paper (section 8.1) instantiates its oblivious operators with AVX-512
// masked moves inside SGX; the AVX-512 backend here is that construction literally
// (`vpblendmb` under an all-ones/all-zeros k-mask), while the AVX2/SSE2 backends use
// the and/andnot/or select and masked xor-swap forms.
//
// Obliviousness argument, per backend:
//  - The secret mask enters a vector register through a broadcast and a value barrier
//    (KernelVecBarrier / ValueBarrier), so the compiler cannot specialize on it and no
//    instruction's *control flow* depends on it.
//  - Every load and store is full-width and unconditional: a kernel touches exactly the
//    same addresses whether the mask is all-ones or all-zeros. Masked *stores* are
//    deliberately not used for suppression -- the AVX-512 access blends in registers
//    and then stores the full cache line, so the written byte set is mask-independent.
//  - Loop trip counts depend only on the public length n.
// The kernels therefore sit *below* trace granularity: the adversary-visible trace
// (enclave/trace.h) records logical events like kCondSwap(i, j), and every backend
// executes the identical logical sequence (tests/kernels_test.cc pins byte-identical
// traces across backends).
//
// Dispatch is public state: the backend is chosen once from CPUID (overridable with
// SNOOPY_FORCE_GENERIC_KERNELS=1 or SNOOPY_KERNEL_BACKEND=generic|sse2|avx2|avx512,
// or pinned programmatically via SetKernelBackend for tests), cached in an atomic, and
// never depends on data. Branching on it leaks nothing.

#ifndef SNOOPY_SRC_OBL_KERNELS_H_
#define SNOOPY_SRC_OBL_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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
enum class KernelBackend : int { kGeneric = 0, kSSE2 = 1, kAVX2 = 2, kAVX512 = 3 };

// kernels.cc: human-readable name ("generic", "sse2", ...) and the list of backends
// this CPU can run (always includes kGeneric), for benches and test parameterization.
const char* KernelBackendName(KernelBackend backend);
std::vector<KernelBackend> SupportedKernelBackends();

inline bool KernelBackendSupported(KernelBackend backend) {
  if (backend == KernelBackend::kGeneric) {
    return true;
  }
#if SNOOPY_KERNELS_X86
  if (backend == KernelBackend::kSSE2) {
    return __builtin_cpu_supports("sse2") != 0;
  }
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

inline bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

inline KernelBackend ResolveKernelBackend() {
  if (EnvFlagSet("SNOOPY_FORCE_GENERIC_KERNELS")) {
    return KernelBackend::kGeneric;
  }
  if (const char* named = std::getenv("SNOOPY_KERNEL_BACKEND")) {
    const KernelBackend requested =
        std::strcmp(named, "sse2") == 0     ? KernelBackend::kSSE2
        : std::strcmp(named, "avx2") == 0   ? KernelBackend::kAVX2
        : std::strcmp(named, "avx512") == 0 ? KernelBackend::kAVX512
                                            : KernelBackend::kGeneric;
    if (KernelBackendSupported(requested)) {
      return requested;  // an unsupported or unknown name falls through to CPUID
    }
  }
  KernelBackend best = KernelBackend::kGeneric;
  if (KernelBackendSupported(KernelBackend::kSSE2)) {
    best = KernelBackend::kSSE2;
  }
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

// SNOOPY_OBLIVIOUS_BEGIN(kernels)
// ct-public: i n
// ct-calls: ValueBarrier __attribute__ target GenericDiffWord GenericAccessSlot alignas

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

// Generic fused access (the contract of KernelAccessSlotMask below): per word,
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

#if SNOOPY_KERNELS_X86

// Vector value barriers: like ValueBarrier but for xmm/ymm/zmm registers, so the
// compiler cannot prove the broadcast mask constant and lift it into a branch.
__attribute__((target("sse2"))) inline __m128i KernelVecBarrier(__m128i v) {
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

// ---- SSE2: 16-byte lanes, and/andnot/or select, masked xor-swap ----

__attribute__((target("sse2"))) inline void KernelSse2CondSwap(uint64_t mask, uint8_t* a,
                                                               uint8_t* b, size_t n) {
  const __m128i vm = KernelVecBarrier(_mm_set1_epi64x(static_cast<long long>(mask)));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i diff = _mm_and_si128(_mm_xor_si128(av, bv), vm);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_xor_si128(av, diff));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b + i), _mm_xor_si128(bv, diff));
  }
  CtCondSwapBytesMask(mask, a + i, b + i, n - i);
}

__attribute__((target("sse2"))) inline uint64_t KernelSse2DiffWord(const uint8_t* a,
                                                                   const uint8_t* b, size_t n) {
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i av = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc = _mm_or_si128(acc, _mm_xor_si128(av, bv));
  }
  uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc);
  return lanes[0] | lanes[1] | GenericDiffWord(a + i, b + i, n - i);
}

// One 16-byte step of the fused access: vw/vm/vk are the broadcast write, match and
// reveal&match masks. Shared by the SSE2 loop and the AVX2/AVX-512 16-byte tails.
__attribute__((target("sse2"))) inline void KernelAccessStep16(__m128i vw, __m128i vm,
                                                               __m128i vk, uint8_t* state,
                                                               uint8_t* slot) {
  const __m128i sv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i lv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slot));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_or_si128(_mm_and_si128(lv, vw), _mm_andnot_si128(vw, sv)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(slot),
                   _mm_or_si128(_mm_and_si128(sv, vk), _mm_andnot_si128(vm, lv)));
}

__attribute__((target("sse2"))) inline void KernelSse2AccessSlot(uint64_t write, uint64_t match,
                                                                 uint64_t reveal, uint8_t* state,
                                                                 uint8_t* slot, size_t n) {
  const __m128i vw = KernelVecBarrier(_mm_set1_epi64x(static_cast<long long>(write)));
  const __m128i vm = KernelVecBarrier(_mm_set1_epi64x(static_cast<long long>(match)));
  const __m128i vk =
      KernelVecBarrier(_mm_set1_epi64x(static_cast<long long>(reveal & match)));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    KernelAccessStep16(vw, vm, vk, state + i, slot + i);
  }
  GenericAccessSlot(write, match, reveal, state + i, slot + i, n - i);
}

// ---- AVX2: 32-byte lanes ----

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

// One 32-byte step of the fused access; shared by the AVX2 loop and the AVX-512 tail.
__attribute__((target("avx2"))) inline void KernelAccessStep32(__m256i vw, __m256i vm,
                                                               __m256i vk, uint8_t* state,
                                                               uint8_t* slot) {
  const __m256i sv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state));
  const __m256i lv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slot));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state),
                      _mm256_or_si256(_mm256_and_si256(lv, vw), _mm256_andnot_si256(vw, sv)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(slot),
                      _mm256_or_si256(_mm256_and_si256(sv, vk), _mm256_andnot_si256(vm, lv)));
}

__attribute__((target("avx2"))) inline void KernelAvx2AccessSlot(uint64_t write, uint64_t match,
                                                                 uint64_t reveal, uint8_t* state,
                                                                 uint8_t* slot, size_t n) {
  const __m256i vw = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(write)));
  const __m256i vm = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(match)));
  const __m256i vk =
      KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(reveal & match)));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    KernelAccessStep32(vw, vm, vk, state + i, slot + i);
  }
  if (i + 16 <= n) {
    KernelAccessStep16(_mm256_castsi256_si128(vw), _mm256_castsi256_si128(vm),
                       _mm256_castsi256_si128(vk), state + i, slot + i);
    i += 16;
  }
  GenericAccessSlot(write, match, reveal, state + i, slot + i, n - i);
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

__attribute__((target("avx512f,avx512bw"))) inline void KernelAvx512AccessSlot(
    uint64_t write, uint64_t match, uint64_t reveal, uint8_t* state, uint8_t* slot,
    size_t n) {
  // The paper's masked moves: the k-masks pick bytes in registers and both stores
  // are full-width, so the written byte set is mask-independent.
  const __mmask64 kw = _cvtu64_mask64(ValueBarrier(write));
  const __mmask64 km = _cvtu64_mask64(ValueBarrier(match));
  const __mmask64 kk = _cvtu64_mask64(ValueBarrier(reveal & match));
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i sv = _mm512_loadu_si512(state + i);
    const __m512i lv = _mm512_loadu_si512(slot + i);
    _mm512_storeu_si512(state + i, _mm512_mask_blend_epi8(kw, sv, lv));
    _mm512_storeu_si512(slot + i, _mm512_mask_blend_epi8(km, lv, _mm512_maskz_mov_epi8(kk, sv)));
  }
  // Sub-64-byte tails at AVX2/SSE2 width, with the masks re-broadcast rather than
  // narrowed (see KernelAvx512CondSwap).
  if (i + 16 <= n) {
    const __m256i vw = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(write)));
    const __m256i vm = KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(match)));
    const __m256i vk =
        KernelVecBarrier256(_mm256_set1_epi64x(static_cast<long long>(reveal & match)));
    if (i + 32 <= n) {
      KernelAccessStep32(vw, vm, vk, state + i, slot + i);
      i += 32;
    }
    if (i + 16 <= n) {
      KernelAccessStep16(_mm256_castsi256_si128(vw), _mm256_castsi256_si128(vm),
                         _mm256_castsi256_si128(vk), state + i, slot + i);
      i += 16;
    }
  }
  GenericAccessSlot(write, match, reveal, state + i, slot + i, n - i);
}

#endif  // SNOOPY_KERNELS_X86

}  // namespace kernel_internal

// SNOOPY_OBLIVIOUS_END(kernels)

// ---- Dispatching entry points ----
//
// The branch below is on ActiveKernelBackend() -- public, CPUID-derived state -- so it
// is not a secret-dependent branch. Each backend handles any n (the vector loop may
// run zero iterations; the scalar code finishes the tail), so small operands are
// correct everywhere and pay only the dispatch load.

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
  if (backend == KernelBackend::kSSE2) {
    kernel_internal::KernelSse2CondSwap(mask, pa, pb, n);
    return;
  }
#endif
  CtCondSwapBytesMask(mask, a, b, n);
}

// Fused oblivious access of one (state, slot) pair, one load and one store of each per
// word. With all-ones/all-zeros masks it computes
//   old = state; state = write ? slot : state; slot = match ? (reveal ? old : 0) : slot,
// which equals staging `old` with a memcpy and then three conditional copies:
// state <- slot under write, slot <- old under match, slot <- zeros under
// match & !reveal. Every byte of both operands is read and written whatever the masks.
// The subORAM scan (object value = state, request slot = slot) and the load balancer's
// response propagation (carried response = state, request = slot) both run on it.
inline void KernelAccessSlotMask(uint64_t write, uint64_t match, uint64_t reveal, void* state,
                                 void* slot, size_t n) {
  auto* ps = static_cast<uint8_t*>(state);
  auto* pl = static_cast<uint8_t*>(slot);
#if SNOOPY_KERNELS_X86
  const KernelBackend backend = ActiveKernelBackend();
  if (backend == KernelBackend::kAVX512) {
    kernel_internal::KernelAvx512AccessSlot(write, match, reveal, ps, pl, n);
    return;
  }
  if (backend == KernelBackend::kAVX2) {
    kernel_internal::KernelAvx2AccessSlot(write, match, reveal, ps, pl, n);
    return;
  }
  if (backend == KernelBackend::kSSE2) {
    kernel_internal::KernelSse2AccessSlot(write, match, reveal, ps, pl, n);
    return;
  }
#endif
  kernel_internal::GenericAccessSlot(write, match, reveal, ps, pl, n);
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
  if (backend == KernelBackend::kSSE2) {
    return kernel_internal::KernelSse2DiffWord(pa, pb, n);
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

inline void KernelAccessSlot(SecretBool write, SecretBool match, SecretBool reveal, void* state,
                             void* slot, size_t n) {
  KernelAccessSlotMask(write.mask(), match.mask(), reveal.mask(), state, slot, n);
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
