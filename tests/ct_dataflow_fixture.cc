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
// SNOOPY_KERNEL_BACKEND=generic the analyzer audits only backend=generic symbols,
// mirroring what the runtime dispatch would execute. Unlisted registers are public
// (sizes, strides, bin counts -- exactly the ct-public identifiers of the source
// regions).

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/core/suboram.h"
#include "src/obl/bin_placement.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"

// Real implementation TUs: compiled into this object so the audited symbols are the
// optimizer's output for the actual tree, not a re-implementation.
#include "src/core/reshard.cc"     // NOLINT(bugprone-suspicious-include)
#include "src/crypto/chacha20.cc"  // NOLINT(bugprone-suspicious-include)
#include "src/crypto/poly1305.cc"  // NOLINT(bugprone-suspicious-include)
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

// The padded-sort audit's record layout: bin (u32) at 0, dummy flag (u8) at 4, order
// (u64) at 8. The within-bin order is tier 1's (dummy, order); padding dummies are
// written with public fields only, as in production.
struct PaddedWithin {
  snoopy::SecretBool operator()(const uint8_t* a, const uint8_t* b) const {
    const snoopy::SecretU64 a1 = snoopy::Widen(snoopy::LoadSecretU8(a, 4)) & 1;
    const snoopy::SecretU64 b1 = snoopy::Widen(snoopy::LoadSecretU8(b, 4)) & 1;
    const snoopy::SecretU64 a2 = snoopy::LoadSecretU64(a, 8);
    const snoopy::SecretU64 b2 = snoopy::LoadSecretU64(b, 8);
    return (a1 < b1) | ((a1 == b1) & (a2 < b2));
  }
};

struct PaddedDummy {
  void operator()(uint8_t* rec, uint64_t bin, uint64_t /*counter*/) const {
    const uint32_t bin32 = static_cast<uint32_t>(bin);
    const uint64_t order = ~uint64_t{0};
    std::memcpy(rec, &bin32, sizeof(bin32));
    rec[4] = 1;
    std::memcpy(rec + 8, &order, sizeof(order));
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

// The fused subORAM-scan access run over one OHT bucket: the kernel with its masks
// compared from the bucket's match columns (AccessColumns against the public object
// key), as ScanStore calls it. The carried value, the bucket's records and the match
// columns (4 * count words) hold secret bytes; the record count, value size, object
// key and the stride (header plus value) are public.
// ctdf-symbol: ctdf_kernel_access_run secret=ptr:rdi,ptr:rsi,ptr:rdx
CTDF_ROOT void ctdf_kernel_access_run(uint8_t* state, uint8_t* run, const uint64_t* columns,
                                      size_t count, size_t n, uint64_t obj_key) {
  snoopy::KernelAccessRun(state, run, count, snoopy::RequestBatch::kHeaderBytes + n,
                          snoopy::RequestBatch::kHeaderBytes, n,
                          snoopy::ScanRunColumns(columns, count, 0, obj_key));
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

// ctdf-symbol: ctdf_generic_access_run secret=ptr:rdi,ptr:rsi,ptr:rdx backend=generic
CTDF_ROOT void ctdf_generic_access_run(uint8_t* state, uint8_t* run, const uint64_t* columns,
                                       size_t count, size_t n, uint64_t obj_key) {
  snoopy::kernel_internal::AccessRunOn(snoopy::KernelBackend::kGeneric, state, run, count,
                                       snoopy::RequestBatch::kHeaderBytes + n,
                                       snoopy::RequestBatch::kHeaderBytes, n,
                                       snoopy::ScanRunColumns(columns, count, 0, obj_key));
}

// The scan's match columns of one bucket, then one block of its masks: the real column
// builder (BuildScanColumns) over secret request records into a column buffer, and the
// backend's column producer from that buffer into the mask stash. Only the records
// start secret; the columns and the stash take their taint from the builder's and the
// producer's stores. The slot count (at most one block, kAccessRunBlock) and the
// stride are public, the object key too.
// ctdf-symbol: ctdf_generic_access_columns secret=ptr:rdi backend=generic
CTDF_ROOT void ctdf_generic_access_columns(const uint8_t* slots, size_t count, size_t stride,
                                           uint64_t* columns, uint64_t obj_key,
                                           snoopy::kernel_internal::AccessWords* stash) {
  snoopy::BuildScanColumns(slots, count, stride, columns);
  snoopy::kernel_internal::GenericColumnMasks(columns, columns + count, columns + 2 * count,
                                              columns + 3 * count, obj_key, count, stash);
}

#if SNOOPY_KERNELS_X86

// ctdf-symbol: ctdf_avx2_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=avx2
CTDF_ROOT void ctdf_avx2_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::kernel_internal::KernelAvx2CondSwap(mask, a, b, n);
}

// ctdf-symbol: ctdf_avx2_equal secret=ptr:rdi,ptr:rsi backend=avx2
CTDF_ROOT uint64_t ctdf_avx2_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::KernelAvx2DiffWord(a, b, n);
}

// ctdf-symbol: ctdf_avx2_access_run secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx2
CTDF_ROOT void ctdf_avx2_access_run(uint8_t* state, uint8_t* run, const uint64_t* columns,
                                    size_t count, size_t n, uint64_t obj_key) {
  snoopy::kernel_internal::AccessRunOn(snoopy::KernelBackend::kAVX2, state, run, count,
                                       snoopy::RequestBatch::kHeaderBytes + n,
                                       snoopy::RequestBatch::kHeaderBytes, n,
                                       snoopy::ScanRunColumns(columns, count, 0, obj_key));
}

// ctdf-symbol: ctdf_avx2_access_columns secret=ptr:rdi backend=avx2
CTDF_ROOT void ctdf_avx2_access_columns(const uint8_t* slots, size_t count, size_t stride,
                                        uint64_t* columns, uint64_t obj_key,
                                        snoopy::kernel_internal::AccessWords* stash) {
  snoopy::BuildScanColumns(slots, count, stride, columns);
  snoopy::kernel_internal::KernelAvx2ColumnMasks(columns, columns + count, columns + 2 * count,
                                                 columns + 3 * count, obj_key, count, stash);
}

// ctdf-symbol: ctdf_avx512_cond_swap secret=val:rdi,ptr:rsi,ptr:rdx backend=avx512
CTDF_ROOT void ctdf_avx512_cond_swap(uint64_t mask, uint8_t* a, uint8_t* b, size_t n) {
  snoopy::kernel_internal::KernelAvx512CondSwap(mask, a, b, n);
}

// ctdf-symbol: ctdf_avx512_equal secret=ptr:rdi,ptr:rsi backend=avx512
CTDF_ROOT uint64_t ctdf_avx512_equal(const uint8_t* a, const uint8_t* b, size_t n) {
  return snoopy::kernel_internal::KernelAvx512DiffWord(a, b, n);
}

// ctdf-symbol: ctdf_avx512_access_run secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx512
CTDF_ROOT void ctdf_avx512_access_run(uint8_t* state, uint8_t* run, const uint64_t* columns,
                                      size_t count, size_t n, uint64_t obj_key) {
  snoopy::kernel_internal::AccessRunOn(snoopy::KernelBackend::kAVX512, state, run, count,
                                       snoopy::RequestBatch::kHeaderBytes + n,
                                       snoopy::RequestBatch::kHeaderBytes, n,
                                       snoopy::ScanRunColumns(columns, count, 0, obj_key));
}

// ctdf-symbol: ctdf_avx512_access_columns secret=ptr:rdi backend=avx512
CTDF_ROOT void ctdf_avx512_access_columns(const uint8_t* slots, size_t count, size_t stride,
                                          uint64_t* columns, uint64_t obj_key,
                                          snoopy::kernel_internal::AccessWords* stash) {
  snoopy::BuildScanColumns(slots, count, stride, columns);
  snoopy::kernel_internal::KernelAvx512ColumnMasks(columns, columns + count, columns + 2 * count,
                                                   columns + 3 * count, obj_key, count, stash);
}

#endif  // SNOOPY_KERNELS_X86

// ---- SHA-256 compression (src/crypto/sha256.cc) ----
//
// Sha256 is the hash under HMAC (channel keys, attestation) and the Merkle tree, so
// the chaining state and the message blocks are the secrets; the block count is
// public. The scalar path is what SNOOPY_KERNEL_BACKEND=generic runs; the SHA-NI
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

// ---- ChaCha20 block functions (src/crypto/chacha20.cc) ----
//
// The keystream under every sealed snapshot, channel message and client message. The
// state (key and nonce words) and the data are the secrets; the counter and the block
// count are public (functions of the byte offset). One root per backend, tagged so
// the forced-generic audit runs only the scalar block function.

// ctdf-symbol: ctdf_chacha20_generic_block secret=ptr:rdi,ptr:rdx backend=generic
CTDF_ROOT void ctdf_chacha20_generic_block(const uint32_t* state, uint32_t counter,
                                           uint8_t* out) {
  snoopy::ChaChaBlockGeneric(state, counter, out);
}

#if SNOOPY_KERNELS_X86

// ctdf-symbol: ctdf_chacha20_avx2_blocks secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx2
CTDF_ROOT void ctdf_chacha20_avx2_blocks(const uint32_t* state, const uint8_t* in,
                                         uint8_t* out) {
  snoopy::CryptBlocks8Avx2(state, in, out);
}

// ctdf-symbol: ctdf_chacha20_avx512_blocks secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx512
CTDF_ROOT void ctdf_chacha20_avx512_blocks(const uint32_t* state, const uint8_t* in,
                                           uint8_t* out) {
  snoopy::CryptBlocks16Avx512(state, in, out);
}

#endif  // SNOOPY_KERNELS_X86

// ---- Poly1305 (src/crypto/poly1305.cc) ----
//
// The accumulator, the key limbs (r and its powers) and the message are the secrets;
// the block count and the 2^128 bit are public. The scalar path is the one
// SNOOPY_KERNEL_BACKEND=generic runs; the lane kernels, and the powers of r only
// they use, are tagged with their backends.

// ctdf-symbol: ctdf_poly1305_generic_blocks secret=ptr:rdi,ptr:rsi,ptr:rdx backend=generic
CTDF_ROOT void ctdf_poly1305_generic_blocks(uint64_t* h, const uint64_t* r, const uint8_t* m,
                                            size_t blocks, uint64_t hibit) {
  snoopy::Poly1305BlocksGeneric(h, r, m, blocks, hibit);
}

#if SNOOPY_KERNELS_X86

// ctdf-symbol: ctdf_poly1305_powers secret=ptr:rdi,ptr:rsi backend=avx2
CTDF_ROOT void ctdf_poly1305_powers(const uint64_t* r, uint32_t powers[][5]) {
  snoopy::Poly1305Powers(r, powers);
}

// ctdf-symbol: ctdf_poly1305_avx2_blocks secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx2
CTDF_ROOT void ctdf_poly1305_avx2_blocks(uint64_t* h, const uint32_t powers[][5],
                                         const uint8_t* m, size_t blocks) {
  snoopy::Poly1305BlocksAvx2(h, powers, m, blocks);
}

// ctdf-symbol: ctdf_poly1305_avx512_blocks secret=ptr:rdi,ptr:rsi,ptr:rdx backend=avx512
CTDF_ROOT void ctdf_poly1305_avx512_blocks(uint64_t* h, const uint32_t powers[][5],
                                           const uint8_t* m, size_t blocks) {
  snoopy::Poly1305BlocksAvx512(h, powers, m, blocks);
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

// ---- Padded bin sort (src/obl/bin_placement.h PaddedBinSort) ----
//
// The half of bin placement's and the OHT tier-1 build's padded sort that follows
// the reals-only sort (MergePadding): the public-index reversal, the public padding
// run and the merge network, over secret records with runtime (n_real, m, z) at
// width 1. The reals-only sort is ObliviousSortSlab, whose kernels are audited
// decomposed above and below (the tile executor, the bucket route and cleanup).

// ctdf-symbol: ctdf_padded_merge secret=ptr:rdi,ptr:rsi
CTDF_ROOT void ctdf_padded_merge(uint8_t* out, const uint8_t* records, size_t n_real,
                                 uint64_t m, uint64_t z, size_t stride) {
  snoopy::ByteSlab slab(n_real, stride);
  std::memcpy(slab.data(), records, n_real * stride);
  snoopy::SortBinSpec spec;
  spec.bin_offset = 0;
  spec.num_bins = m;
  snoopy::MergePadding(slab, spec, z, PaddedWithin{}, PaddedDummy{}, /*threads=*/1);
  std::memcpy(out, slab.data(), slab.size() * stride);
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
