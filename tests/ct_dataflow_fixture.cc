// Audit translation unit for the binary secret-taint dataflow verifier
// (tools/ct_dataflow.py).
//
// check_nobranch.py audits tiny hand-unrolled wrappers; this TU is the opposite: each
// ctdf_* symbol calls the REAL hot-path code -- the dispatching SIMD kernels, the
// per-backend kernel internals, the bitonic sort tile executor, both compaction
// algorithms, the reshard bin-partition kernel, and both SHA-256 compression paths --
// with runtime sizes, so loops, spills, and the optimizer's full register allocation
// survive into the object the analyzer disassembles. The real implementation TUs are #included so their
// post-optimizer code is what gets audited (and so same-object calls resolve without
// linking); `flatten` asks GCC to inline the real bodies into the audit roots, and
// what cannot inline (recursion, libc/libstdc++) is followed or allowlisted by the
// analyzer per tools/ct_binary_manifest.json.
//
// Marker scheme (consumed by ct_dataflow.py, like check_nobranch.py's nb-symbol):
//
//   // ctdf-symbol: <name> secret=<kind>:<reg>[,<kind>:<reg>...] [backend=<b>]
//
// `kind` is `val` (the register holds a secret value) or `ptr` (the register holds a
// public pointer to secret bytes); `reg` is the SysV argument register. `backend`
// tags symbols whose body is a specific kernel backend: with
// SNOOPY_FORCE_GENERIC_KERNELS=1 the analyzer audits only backend=generic symbols,
// mirroring what the runtime dispatch would execute. Unlisted registers are public
// (sizes, strides, bin counts -- exactly the ct-public identifiers of the source
// regions).

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/obl/bitonic_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"

// Real implementation TUs: compiled into this object so the audited symbols are the
// optimizer's output for the actual tree, not a re-implementation.
#include "src/core/reshard.cc"     // NOLINT(bugprone-suspicious-include)
#include "src/crypto/sha256.cc"    // NOLINT(bugprone-suspicious-include)
#include "src/crypto/siphash.cc"   // NOLINT(bugprone-suspicious-include)
#include "src/obl/compaction.cc"   // NOLINT(bugprone-suspicious-include)

// src/obl/bucket_sort.cc is deliberately NOT included: TryBucketSortSlab's label
// declassification is public by the simulatable-bins contract, which the taint
// analyzer cannot model, and same-object symbols are always followed. Keeping the
// TU out leaves TryBucketSortSlab / ResolveSortStrategy as unresolved externals
// covered by the call_allow_public_patterns entries in tools/ct_binary_manifest.json;
// the secret-handling bucket kernels (header-inline by design) are audited below via
// ctdf_bucket_route / ctdf_bucket_cleanup.

#define CTDF_ROOT __attribute__((noipa, flatten))

namespace {

// The exact compare-swap the slab sorts run (BitonicSortSlab's lambda): trace event,
// Secret-typed comparator on the record key, dispatch-kernel swap.
struct SlabCSwap {
  uint8_t* base;
  size_t stride;
  void operator()(size_t i, size_t j, bool asc) const {
    snoopy::TraceRecord(snoopy::TraceOp::kCondSwap, i, j);
    uint8_t* a = base + i * stride;
    uint8_t* b = base + j * stride;
    const snoopy::SecretBool out_of_order =
        asc ? (snoopy::LoadSecretU64(b, 0) < snoopy::LoadSecretU64(a, 0))
            : (snoopy::LoadSecretU64(a, 0) < snoopy::LoadSecretU64(b, 0));
    snoopy::KernelCondSwapBytes(out_of_order, a, b, stride);
  }
};

// A concrete branchless within-bin comparator for the bucket cleanup audit: the
// production sort passes a type-erased wrapper over Secret-typed loads exactly like
// this one, so the composed compare + swap machinery audited is what actually runs.
struct CleanupWithin {
  snoopy::SecretBool operator()(const uint8_t* a, const uint8_t* b) const {
    return snoopy::LoadSecretU64(a, 8) < snoopy::LoadSecretU64(b, 8);
  }
};

}  // namespace

extern "C" {

// ---- Dispatching kernel entry points (runtime CPUID dispatch + every backend) ----

// ctdf-symbol: ctdf_kernel_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx
CTDF_ROOT void ctdf_kernel_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::KernelCondSwapBytesMask(mask, a, b, n);
}

// ctdf-symbol: ctdf_kernel_equal secret=ptr:rdi,ptr:rsi
CTDF_ROOT uint64_t ctdf_kernel_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::KernelDiffBytesWord(a, b, n);
}

// The fused subORAM-scan / LB-propagate access: three secret masks, and both operands
// hold secret bytes.
// ctdf-symbol: ctdf_kernel_access_slot secret=val:rdi,val:rsi,val:rdx,ptr:rcx,ptr:r8
CTDF_ROOT void ctdf_kernel_access_slot(uint64_t write, uint64_t match, uint64_t reveal,
                                       uint8_t* state, uint8_t* slot, size_t n) {
  snoopy::KernelAccessSlotMask(write, match, reveal, state, slot, n);
}

// ---- Per-backend kernel internals (audited even when CPUID dispatch would not
//      select them on this machine; the analysis is static) ----

// ctdf-symbol: ctdf_generic_cond_copy secret=val:rdi,ptr:rsi,ptr:rdx backend=generic
CTDF_ROOT void ctdf_generic_cond_copy(uint64_t mask, uint8_t* d, const uint8_t* s,
                                      size_t n) {
  snoopy::CtCondCopyBytesMask(mask, d, s, n);
}

// ctdf-symbol: ctdf_generic_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=generic
CTDF_ROOT void ctdf_generic_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::CtCondSwapBytesMask(mask, a, b, n);
}

// ctdf-symbol: ctdf_generic_equal secret=ptr:rdi,ptr:rsi backend=generic
CTDF_ROOT uint64_t ctdf_generic_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::GenericDiffWord(a, b, n);
}

// ctdf-symbol: ctdf_generic_access_slot secret=val:rdi,val:rsi,val:rdx,ptr:rcx,ptr:r8 backend=generic
CTDF_ROOT void ctdf_generic_access_slot(uint64_t write, uint64_t match, uint64_t reveal,
                                        uint8_t* state, uint8_t* slot, size_t n) {
  snoopy::kernel_internal::GenericAccessSlot(write, match, reveal, state, slot, n);
}

#if SNOOPY_KERNELS_X86

// ctdf-symbol: ctdf_sse2_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=sse2
CTDF_ROOT void ctdf_sse2_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::kernel_internal::KernelSse2CondSwap(mask, a, b, n);
}

// ctdf-symbol: ctdf_sse2_equal secret=ptr:rdi,ptr:rsi backend=sse2
CTDF_ROOT uint64_t ctdf_sse2_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::KernelSse2DiffWord(a, b, n);
}

// ctdf-symbol: ctdf_sse2_access_slot secret=val:rdi,val:rsi,val:rdx,ptr:rcx,ptr:r8 backend=sse2
CTDF_ROOT void ctdf_sse2_access_slot(uint64_t write, uint64_t match, uint64_t reveal,
                                     uint8_t* state, uint8_t* slot, size_t n) {
  snoopy::kernel_internal::KernelSse2AccessSlot(write, match, reveal, state, slot, n);
}

// ctdf-symbol: ctdf_avx2_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=avx2
CTDF_ROOT void ctdf_avx2_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::kernel_internal::KernelAvx2CondSwap(mask, a, b, n);
}

// ctdf-symbol: ctdf_avx2_equal secret=ptr:rdi,ptr:rsi backend=avx2
CTDF_ROOT uint64_t ctdf_avx2_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::KernelAvx2DiffWord(a, b, n);
}

// ctdf-symbol: ctdf_avx2_access_slot secret=val:rdi,val:rsi,val:rdx,ptr:rcx,ptr:r8 backend=avx2
CTDF_ROOT void ctdf_avx2_access_slot(uint64_t write, uint64_t match, uint64_t reveal,
                                     uint8_t* state, uint8_t* slot, size_t n) {
  snoopy::kernel_internal::KernelAvx2AccessSlot(write, match, reveal, state, slot, n);
}

// ctdf-symbol: ctdf_avx512_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=avx512
CTDF_ROOT void ctdf_avx512_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::kernel_internal::KernelAvx512CondSwap(mask, a, b, n);
}

// ctdf-symbol: ctdf_avx512_equal secret=ptr:rdi,ptr:rsi backend=avx512
CTDF_ROOT uint64_t ctdf_avx512_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::KernelAvx512DiffWord(a, b, n);
}

// ctdf-symbol: ctdf_avx512_access_slot secret=val:rdi,val:rsi,val:rdx,ptr:rcx,ptr:r8 backend=avx512
CTDF_ROOT void ctdf_avx512_access_slot(uint64_t write, uint64_t match, uint64_t reveal,
                                       uint8_t* state, uint8_t* slot, size_t n) {
  snoopy::kernel_internal::KernelAvx512AccessSlot(write, match, reveal, state, slot, n);
}

#endif  // SNOOPY_KERNELS_X86

// ---- SHA-256 compression (src/crypto/sha256.cc) ----
//
// Sha256 is the hash under HMAC (channel keys, attestation) and the Merkle tree, so
// the chaining state and the message blocks are the secrets; the block count is
// public. The scalar path is what SNOOPY_FORCE_GENERIC_KERNELS=1 runs; the SHA-NI
// path is tagged with its own backend so the forced-generic audit skips it, exactly
// as the runtime dispatch would.

// ctdf-symbol: ctdf_sha256_generic_blocks secret=ptr:rdi,ptr:rsi backend=generic
CTDF_ROOT void ctdf_sha256_generic_blocks(uint32_t* state, const uint8_t* data,
                                          size_t blocks) {
  snoopy::Sha256BlocksGeneric(state, data, blocks);
}

#if SNOOPY_KERNELS_X86

// ctdf-symbol: ctdf_sha256_shani_blocks secret=ptr:rdi,ptr:rsi backend=shani
CTDF_ROOT void ctdf_sha256_shani_blocks(uint32_t* state, const uint8_t* data,
                                        size_t blocks) {
  snoopy::Sha256BlocksShaNi(state, data, blocks);
}

#endif  // SNOOPY_KERNELS_X86

// ---- Bitonic sort tile executor ----
//
// The tile executor (BitonicTileSort / BitonicTileMerge) runs every width-1 bitonic
// segment: all of a single-threaded sort, and the leaves of a forked one. Audited
// over the real slab compare-swap with runtime n and stride, so nothing unrolls away.

// ctdf-symbol: ctdf_bitonic_tile_sort secret=ptr:rdi
CTDF_ROOT void ctdf_bitonic_tile_sort(uint8_t* base, size_t n, size_t stride) {
  snoopy::internal::BitonicTileSort(0, n, /*asc=*/true, SlabCSwap{base, stride});
}

// ---- Compaction (both algorithms, real entry points from src/obl/compaction.cc) ----

// ctdf-symbol: ctdf_goodrich_compact secret=ptr:rsi,ptr:rdx
CTDF_ROOT size_t ctdf_goodrich_compact(size_t n, uint8_t* data, uint8_t* flags,
                                       size_t stride) {
  snoopy::ByteSlab slab(n, stride);
  std::memcpy(slab.data(), data, n * stride);
  const size_t kept = snoopy::GoodrichCompact(slab, std::span<uint8_t>(flags, n));
  std::memcpy(data, slab.data(), n * stride);
  return kept;
}

// ctdf-symbol: ctdf_sort_compact secret=ptr:rsi,ptr:rdx
CTDF_ROOT size_t ctdf_sort_compact(size_t n, uint8_t* data, uint8_t* flags,
                                   size_t stride) {
  snoopy::ByteSlab slab(n, stride);
  std::memcpy(slab.data(), data, n * stride);
  const size_t kept = snoopy::SortCompact(slab, std::span<uint8_t>(flags, n));
  std::memcpy(data, slab.data(), n * stride);
  return kept;
}

// ---- Reshard bin-partition kernel (PR 6, src/core/reshard.cc) ----
//
// The secret-handling half of PartitionSlabByBin: keyed tag assignment (SipHash +
// constant-time bin reduction) and the oblivious sort by tag. The partition key and
// the record bytes (which embed the object keys) are the secrets.

// ctdf-symbol: ctdf_reshard_tag_sort secret=ptr:rdi,ptr:rcx
CTDF_ROOT void ctdf_reshard_tag_sort(const uint8_t* records, uint8_t* out, size_t n,
                                     const uint8_t* key16, uint32_t num_bins,
                                     size_t value_size) {
  snoopy::ByteSlab slab(n, 8 + value_size);
  std::memcpy(slab.data(), records, n * (8 + value_size));
  snoopy::SipKey key;
  std::memcpy(key.data(), key16, key.size());
  const snoopy::ByteSlab tagged = snoopy::TagAndSortByBin(slab, key, num_bins, value_size);
  std::memcpy(out, tagged.Record(0), n * (snoopy::kReshardHeaderBytes + value_size));
}

// ---- Bucket oblivious sort kernels (PR 10, src/obl/bucket_sort.cc) ----
//
// TryBucketSortSlab itself is the noinline + allowlisted strategy boundary (its
// label declassification is public by the simulatable-bins contract, which a taint
// analyzer cannot model). The two secret-handling kernels inside it are audited
// here decomposed, with only the record regions tainted — exactly the split the
// BucketArena layout exists for: the butterfly routes (label, index) tags and its
// branches touch the public tag/count arrays only; record bytes move exclusively
// through (allowlisted) memcpy in the post-routing materialization gather, audited
// here fused with one routing level exactly as TryBucketSortSlab runs them.

// ctdf-symbol: ctdf_bucket_route secret=ptr:rdi,ptr:rsi
CTDF_ROOT int ctdf_bucket_route(uint8_t* records, const uint8_t* data, uint32_t* labels,
                                uint32_t* indices, uint32_t* counts, uint64_t buckets,
                                uint64_t capacity, size_t stride, uint32_t m,
                                uint32_t level) {
  snoopy::bucket_internal::BucketArena arena;
  arena.records = records;
  arena.labels = labels;
  arena.indices = indices;
  arena.counts = counts;
  arena.buckets = buckets;
  arena.capacity = capacity;
  arena.stride = stride;
  const bool routed = snoopy::bucket_internal::RouteLevelRange(arena, m, level, 0,
                                                               buckets / 2);
  snoopy::bucket_internal::MaterializeBucketRange(arena, data, 0, buckets);
  return routed ? 1 : 0;
}

// ctdf-symbol: ctdf_bucket_cleanup secret=ptr:rdi
CTDF_ROOT void ctdf_bucket_cleanup(uint8_t* base, size_t n, size_t stride) {
  snoopy::internal::BitonicTileSort(
      0, n, /*asc=*/true,
      snoopy::BucketCleanupCSwap<CleanupWithin>{base, stride, /*bin_offset=*/0,
                                                /*trace_base=*/0, CleanupWithin{}});
}

}  // extern "C"
