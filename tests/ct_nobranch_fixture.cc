// Fixture for the objdump-based no-branch smoke test (tools/check_nobranch.py).
//
// Each nb_* function wraps one oblivious primitive with a fixed, small size so the
// optimizer can fully unroll its loops. The checker compiles this file at -O2 and
// -O3, disassembles the object, and asserts that no conditional branch instruction
// appears inside any nb_* symbol: the machine code realizes the mask arithmetic the
// source promises. noipa keeps the compiler from specializing the functions on
// constant arguments or folding them into each other.
//
// The checker discovers which symbols to scan from the `nb-symbol:` markers below;
// `nb-symbol[x86]:` entries are expected only when the object is x86-64 (the SIMD
// kernel backends are compiled-in only there).

#include <cstdint>

#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"

extern "C" {

// nb-symbol: nb_ct_select64
__attribute__((noipa)) uint64_t nb_ct_select64(uint64_t c, uint64_t a, uint64_t b) {
  return snoopy::CtSelect64(c != 0, a, b);
}

// restrict matches the primitives' contract (callers never alias dst/src); without
// it the -O3 vectorizer guards the unrolled copy with a (public) overlap check that
// the disassembly scan cannot tell apart from a data-dependent branch.
// nb-symbol: nb_ct_cond_copy32
__attribute__((noipa)) void nb_ct_cond_copy32(uint64_t c, uint8_t* __restrict__ dst,
                                              const uint8_t* __restrict__ src) {
  snoopy::CtCondCopyBytes(c != 0, dst, src, 32);
}

// nb-symbol: nb_ct_cond_swap32
__attribute__((noipa)) void nb_ct_cond_swap32(uint64_t c, uint8_t* __restrict__ a,
                                              uint8_t* __restrict__ b) {
  snoopy::CtCondSwapBytes(c != 0, a, b, 32);
}

// nb-symbol: nb_ct_equal32
__attribute__((noipa)) uint64_t nb_ct_equal32(const uint8_t* a, const uint8_t* b) {
  return static_cast<uint64_t>(snoopy::CtEqualBytes(a, b, 32));
}

// The fused access kernel's generic form: two 8-byte words and a 3-byte scalar tail.
// nb-symbol: nb_kernel_generic_access_slot19
__attribute__((noipa)) void nb_kernel_generic_access_slot19(uint64_t w, uint64_t m,
                                                           uint64_t r,
                                                           uint8_t* __restrict__ state,
                                                           uint8_t* __restrict__ slot) {
  snoopy::kernel_internal::GenericAccessSlot(w, m, r, state, slot, 19);
}

// nb-symbol: nb_secret_select
__attribute__((noipa)) uint64_t nb_secret_select(uint64_t c, uint64_t a, uint64_t b) {
  using namespace snoopy;
  const SecretU64 r = CtSelectU64(SecretBool::FromWord(c), SecretU64(a), SecretU64(b));
  return r.SecretValueForPrimitive();  // ct-ok: nobranch fixture reads the raw lane
}

// nb-symbol: nb_secret_compare_chain
__attribute__((noipa)) uint64_t nb_secret_compare_chain(uint64_t x, uint64_t y) {
  using namespace snoopy;
  const SecretU64 sx(x);
  const SecretU64 sy(y);
  const SecretBool lt = sx < sy;
  const SecretBool eq = sx == sy;
  return (lt | (eq & !lt)).mask();
}

#if SNOOPY_KERNELS_X86

// The SIMD kernel backends (src/obl/kernels.h) make the same promise per backend:
// barriered broadcast masks, full-width vector selects, no conditional branches.
// Sizes are chosen so each kernel runs its wide loop AND its vector tail step(s)
// with constant trip counts, so everything fully unrolls and any surviving jump is
// a real finding, not a loop back-edge.

// nb-symbol[x86]: nb_kernel_sse2_cond_swap48
__attribute__((noipa, target("sse2"))) void nb_kernel_sse2_cond_swap48(
    uint64_t m, uint8_t* __restrict__ a, uint8_t* __restrict__ b) {
  snoopy::kernel_internal::KernelSse2CondSwap(m, a, b, 48);
}

// nb-symbol[x86]: nb_kernel_sse2_equal48
__attribute__((noipa, target("sse2"))) uint64_t nb_kernel_sse2_equal48(const uint8_t* a,
                                                                       const uint8_t* b) {
  return snoopy::kernel_internal::KernelSse2DiffWord(a, b, 48);
}

// Access sizes add an 8-byte word and a 3-byte scalar tail to each backend's wide loop
// and vector tail steps, so every tail of the fused kernel is reached.
// nb-symbol[x86]: nb_kernel_sse2_access_slot43
__attribute__((noipa, target("sse2"))) void nb_kernel_sse2_access_slot43(
    uint64_t w, uint64_t m, uint64_t r, uint8_t* __restrict__ state,
    uint8_t* __restrict__ slot) {
  snoopy::kernel_internal::KernelSse2AccessSlot(w, m, r, state, slot, 43);
}

// nb-symbol[x86]: nb_kernel_avx2_cond_swap80
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_cond_swap80(
    uint64_t m, uint8_t* __restrict__ a, uint8_t* __restrict__ b) {
  snoopy::kernel_internal::KernelAvx2CondSwap(m, a, b, 80);
}

// nb-symbol[x86]: nb_kernel_avx2_equal80
__attribute__((noipa, target("avx2"))) uint64_t nb_kernel_avx2_equal80(const uint8_t* a,
                                                                       const uint8_t* b) {
  return snoopy::kernel_internal::KernelAvx2DiffWord(a, b, 80);
}

// nb-symbol[x86]: nb_kernel_avx2_access_slot91
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_access_slot91(
    uint64_t w, uint64_t m, uint64_t r, uint8_t* __restrict__ state,
    uint8_t* __restrict__ slot) {
  snoopy::kernel_internal::KernelAvx2AccessSlot(w, m, r, state, slot, 91);
}

// nb-symbol[x86]: nb_kernel_avx512_cond_swap208
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_cond_swap208(
    uint64_t m, uint8_t* __restrict__ a, uint8_t* __restrict__ b) {
  snoopy::kernel_internal::KernelAvx512CondSwap(m, a, b, 208);
}

// nb-symbol[x86]: nb_kernel_avx512_equal208
__attribute__((noipa, target("avx512f,avx512bw"))) uint64_t nb_kernel_avx512_equal208(
    const uint8_t* a, const uint8_t* b) {
  return snoopy::kernel_internal::KernelAvx512DiffWord(a, b, 208);
}

// nb-symbol[x86]: nb_kernel_avx512_access_slot187
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_access_slot187(
    uint64_t w, uint64_t m, uint64_t r, uint8_t* __restrict__ state,
    uint8_t* __restrict__ slot) {
  snoopy::kernel_internal::KernelAvx512AccessSlot(w, m, r, state, slot, 187);
}

#endif  // SNOOPY_KERNELS_X86

}  // extern "C"
