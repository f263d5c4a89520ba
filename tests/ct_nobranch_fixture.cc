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

// The generic block kernel of the access run: one record with two 8-byte words and a
// 3-byte scalar tail.
// nb-symbol: nb_kernel_generic_access_run19
__attribute__((noipa)) void nb_kernel_generic_access_run19(uint64_t w, uint64_t m, uint64_t k,
                                                          uint8_t* __restrict__ state,
                                                          uint8_t* __restrict__ values) {
  const snoopy::kernel_internal::AccessWords masks[1] = {{w, m, k}};
  snoopy::kernel_internal::GenericAccessBlock(state, values, 1, 19, 19, masks);
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

// Access-run sizes are not multiples of the vector width, so each chunk ends in the
// overlapping last vector; the wider sizes split the value into two chunks.
// nb-symbol[x86]: nb_kernel_avx2_access_run91
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_access_run91(
    uint64_t w, uint64_t m, uint64_t k, uint8_t* __restrict__ state,
    uint8_t* __restrict__ values) {
  const snoopy::kernel_internal::AccessWords masks[1] = {{w, m, k}};
  snoopy::kernel_internal::KernelAvx2AccessBlock(state, values, 1, 91, 91, masks);
}

// Two chunks of 150 bytes, each ending in an overlapping vector.
// nb-symbol[x86]: nb_kernel_avx2_access_run300
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_access_run300(
    uint64_t w, uint64_t m, uint64_t k, uint8_t* __restrict__ state,
    uint8_t* __restrict__ values) {
  const snoopy::kernel_internal::AccessWords masks[1] = {{w, m, k}};
  snoopy::kernel_internal::KernelAvx2AccessBlock(state, values, 1, 300, 300, masks);
}

// The column producers (the subORAM scan's masks from its match columns) over a
// 50-slot bucket (one block ending in a partial vector group) and a 65-slot bucket
// (a full 64-record block, then a one-record block), as AccessRunOn splits them.
// nb-symbol[x86]: nb_kernel_avx2_access_columns50
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_access_columns50(
    const uint64_t* __restrict__ columns, uint64_t obj_key,
    snoopy::kernel_internal::AccessWords* __restrict__ stash) {
  snoopy::kernel_internal::KernelAvx2ColumnMasks(columns, columns + 50, columns + 100,
                                                 columns + 150, obj_key, 50, stash);
}

// nb-symbol[x86]: nb_kernel_avx2_access_columns65
__attribute__((noipa, target("avx2"))) void nb_kernel_avx2_access_columns65(
    const uint64_t* __restrict__ columns, uint64_t obj_key,
    snoopy::kernel_internal::AccessWords* __restrict__ stash) {
  snoopy::kernel_internal::KernelAvx2ColumnMasks(columns, columns + 65, columns + 130,
                                                 columns + 195, obj_key, 64, stash);
  snoopy::kernel_internal::KernelAvx2ColumnMasks(columns + 64, columns + 129, columns + 194,
                                                 columns + 259, obj_key, 1, stash + 64);
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

// nb-symbol[x86]: nb_kernel_avx512_access_run187
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_access_run187(
    uint64_t w, uint64_t m, uint64_t k, uint8_t* __restrict__ state,
    uint8_t* __restrict__ values) {
  const snoopy::kernel_internal::AccessWords masks[1] = {{w, m, k}};
  snoopy::kernel_internal::KernelAvx512AccessBlock(state, values, 1, 187, 187, masks);
}

// Two chunks of 150 bytes, each ending in an overlapping vector.
// nb-symbol[x86]: nb_kernel_avx512_access_run300
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_access_run300(
    uint64_t w, uint64_t m, uint64_t k, uint8_t* __restrict__ state,
    uint8_t* __restrict__ values) {
  const snoopy::kernel_internal::AccessWords masks[1] = {{w, m, k}};
  snoopy::kernel_internal::KernelAvx512AccessBlock(state, values, 1, 300, 300, masks);
}

// nb-symbol[x86]: nb_kernel_avx512_access_columns50
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_access_columns50(
    const uint64_t* __restrict__ columns, uint64_t obj_key,
    snoopy::kernel_internal::AccessWords* __restrict__ stash) {
  snoopy::kernel_internal::KernelAvx512ColumnMasks(columns, columns + 50, columns + 100,
                                                   columns + 150, obj_key, 50, stash);
}

// nb-symbol[x86]: nb_kernel_avx512_access_columns65
__attribute__((noipa, target("avx512f,avx512bw"))) void nb_kernel_avx512_access_columns65(
    const uint64_t* __restrict__ columns, uint64_t obj_key,
    snoopy::kernel_internal::AccessWords* __restrict__ stash) {
  snoopy::kernel_internal::KernelAvx512ColumnMasks(columns, columns + 65, columns + 130,
                                                   columns + 195, obj_key, 64, stash);
  snoopy::kernel_internal::KernelAvx512ColumnMasks(columns + 64, columns + 129, columns + 194,
                                                   columns + 259, obj_key, 1, stash + 64);
}

#endif  // SNOOPY_KERNELS_X86

}  // extern "C"
