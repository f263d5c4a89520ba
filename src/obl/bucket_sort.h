// Bucket oblivious sort (Goodrich–Mitzenmacher style) as a selectable strategy on
// the subORAM critical path, plus the common ObliviousSortSlab entry point that all
// hot sort call sites route through.
//
// The O(n log^2 n) bitonic network (bitonic_sort.h) compares every pair the network
// names regardless of the data; once the depth-first executor has squeezed the
// constant factors, the comparator count itself is the binding term. The bucket sort
// gets to O(n log n) by exploiting that every hot Snoopy sort is a sort *by a
// keyed-hash bin tag*: 8-byte (label, input-index) tags are routed to B fixed-capacity
// buckets through a two-way butterfly (log2 B levels of pairwise merge-splits), full
// records are materialized into their buckets with one public gather pass, each
// bucket is cleaned up with a small bitonic sort, and the per-bucket real prefixes
// are concatenated. Total work: O(n log B) tag-sized routing moves + O(n) record
// moves + O(n log^2 (n/B)) cleanup compare-swaps, with n/B a constant-ish mean load —
// O(n log n) overall, and the record-byte traffic (the dominant term at 200+ bytes
// per record) is O(n) regardless of B.
//
// Why the routing may branch on the bin labels (DESIGN.md "Oblivious sorting" has
// the full argument): the label of a record is its keyed-hash bin — SipHash under a
// key the adversary never sees, over keys that are distinct at every eligible call
// site. The multiset of labels is therefore simulatable from public parameters alone
// (sample n iid uniform bins), so declassifying the labels — through the audited
// Secret<T>::Declassify port, which records one kDeclassify trace event per record —
// reveals nothing the simulator could not produce itself. This is the same argument
// Snoopy already relies on when the load balancer sends keyed-hash-partitioned batch
// *sizes* in the clear. Call sites where the labels are NOT simulatable (duplicate
// client keys before deduplication would leak popular-key multiplicity) say so via
// SortBinSpec::bins_simulatable = false and always take the bitonic path.
//
// Both strategies produce byte-identical sorted output (the same total preorder,
// made total by the caller's tiebreak fields), so response streams are strategy
// independent; tests/bucket_sort_test.cc pins this differentially.

#ifndef SNOOPY_SRC_OBL_BUCKET_SORT_H_
#define SNOOPY_SRC_OBL_BUCKET_SORT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

// Which oblivious sort implementation a deployment runs on the hot paths.
// kAuto picks per call site from the pass-count crossover (below) using the same
// constants the sim's cost model is calibrated with; SNOOPY_SORT_STRATEGY
// ({bitonic, bucket, auto}) overrides the configured value at runtime.
enum class SortStrategy : uint8_t {
  kBitonic = 0,
  kBucket = 1,
  kAuto = 2,
};

const char* SortStrategyName(SortStrategy s);

// Describes the bin tag that makes a slab sort bucket-eligible. The sort orders
// records by (bin, caller's within-bin order); `bin` is a uint32 field at
// `bin_offset` in every record, in [0, num_bins). `bins_simulatable` is the caller's
// attestation that the multiset of bin values is simulatable from public parameters
// (keyed hash of distinct keys, or uniform random draws) — the precondition for
// declassifying the labels. Without it the bucket strategy is never selected.
struct SortBinSpec {
  size_t bin_offset = 0;
  uint64_t num_bins = 0;
  bool bins_simulatable = false;
  uint32_t lambda = 40;  // overflow-failure bound: P[route overflow] <= 2^-lambda
};

// Public butterfly geometry for a bucket sort of n records tagged with num_bins
// bins. `ok` is false when no geometry meets the overflow bound (or n/num_bins are
// too small for the routing to pay off) — callers then fall back to bitonic.
struct BucketSortParams {
  uint64_t buckets = 0;   // B: power of two
  uint64_t capacity = 0;  // Z: slots per bucket, 2 * ceil(n / B)
  uint32_t levels = 0;    // log2 B
  bool ok = false;
};

// Chooses (B, Z) such that the union bound over all butterfly levels of the
// per-bucket binomial overflow tails stays under 2^-lambda (src/analysis/binomial).
// Results are memoized per (n, num_bins, lambda); geometry search is pure public
// arithmetic.
BucketSortParams ChooseBucketParams(uint64_t n, uint64_t num_bins, uint32_t lambda);

// Resolves a configured strategy to a concrete one (never kAuto) for a sort of n
// records of `record_bytes` each. `spec` may be null (no bin tag: plain comparator
// sorts are always bitonic). Applies the SNOOPY_SORT_STRATEGY environment override,
// the eligibility gates (bins_simulatable, viable geometry), and — for kAuto — the
// compare-pass crossover mirrored from the cost model's measured constants. When
// kBucket is returned, *params holds the chosen geometry.
SortStrategy ResolveSortStrategy(SortStrategy configured, uint64_t n, size_t record_bytes,
                                 const SortBinSpec* spec, BucketSortParams* params);

// Scalars-only ABI over ResolveSortStrategy for the ObliviousSortSlab template.
// The binary dataflow verifier must drop precise tracking of any stack frame a
// pointer to which reaches an out-of-line callee, so the entry-point template may
// never pass &spec / &params across this boundary — it passes the spec fields by
// value and gets the geometry back packed in the return register instead:
//   bit 0        1 iff the bucket strategy was selected
//   bits [1, 7)  levels (buckets = 1 << levels)
//   bits [8, 64) capacity Z
// Returns 0 whenever the resolution is bitonic.
uint64_t ResolveSortStrategyPacked(uint8_t configured, uint64_t n, uint64_t record_bytes,
                                   uint64_t num_bins, uint32_t bins_simulatable,
                                   uint32_t lambda);

// Type-erased within-bin comparator for the out-of-line bucket sort: a captureless
// trampoline plus a context pointer. The context must NOT point into the caller's
// stack frame (same verifier constraint as above) — ObliviousSortSlab passes a heap
// copy of the caller's functor.
using SortLessFn = SecretBool (*)(const void* ctx, const uint8_t* a, const uint8_t* b);

// Compare-pass-per-element estimates behind the kAuto crossover. Exposed for the
// cost model (src/sim/cost_model.cc cross-references these) and tests.
double BitonicSortPassesPerElement(uint64_t n, size_t record_bytes);
double BucketSortPassesPerElement(uint64_t n, size_t record_bytes,
                                  const BucketSortParams& params);

// Runs the bucket sort over the n records at `data` (stride bytes each) in place:
// label declassification, the butterfly routing network (per-level fork-join over
// bucket pairs on the WorkPool, budget clamped), per-bucket bitonic cleanup under
// (bin, less_within_bin), and public emission of the real prefixes. Geometry is
// (re)derived via the memoized ChooseBucketParams(n, num_bins, lambda). Returns
// false — with the input untouched — iff no geometry is viable or a bucket
// overflowed during routing (probability <= 2^-lambda by construction; a public,
// simulatable event like bin_placement.ok). Debug builds treat overflow as fatal
// (assert); release builds surface the fallback. Raw-pointer ABI for the same
// frame-escape reason as ResolveSortStrategyPacked: no pointer into the caller's
// frame may cross this boundary, so the slab is passed as (data, n, stride) and
// the comparator as (fn, heap ctx).
bool TryBucketSortSlab(uint8_t* data, uint64_t n, size_t stride, size_t bin_offset,
                       uint64_t num_bins, uint32_t lambda, SortLessFn less_within_bin,
                       const void* less_ctx, int threads);

// Out-of-line, type-erased equivalent of the ObliviousSortSlab template below, for
// call sites that are themselves audited end-to-end by the binary dataflow verifier
// (reshard's TagAndSortByBin). The bitonic executor's fork-join and tile recursion is
// too much inlined state for the analyzer to track through a composite root, so — like
// TryBucketSortSlab — this symbol is the audit boundary (noinline + allowlisted in
// tools/ct_binary_manifest.json) and the secret-handling kernels inside it are
// audited decomposed (ctdf_bitonic_tile_sort, ctdf_bucket_route,
// ctdf_bucket_cleanup, ctdf_*_cond_swap). The indirect comparator call this costs
// is fine off the epoch critical path; the epoch-hot sites (OHT build, load
// balancer) use the inlining template. `less_ctx` may be null for captureless
// trampolines; it must not point into the caller's frame.
void ObliviousSortSlabErased(ByteSlab& slab, size_t bin_offset, uint64_t num_bins,
                             uint32_t bins_simulatable, uint32_t lambda,
                             SortLessFn less_within_bin, const void* less_ctx,
                             SortStrategy strategy, int threads);

namespace bucket_internal {

// One contiguous butterfly arena: B buckets of Z record slots (stride bytes each)
// with the per-slot public (label, input-index) tags and per-bucket public fill
// counts held in separate arrays. The butterfly routes ONLY the 8-byte tags — the
// O(n log B) routing traffic is tag-sized, not record-sized — and record bytes
// enter the arena exactly once, in the post-routing materialization gather
// (MaterializeBucketRange below). Routing branches therefore only ever touch
// label/index/count memory; record bytes move exclusively by memcpy at public
// offsets. This split is what makes the route + materialize pipeline auditable by
// the binary dataflow verifier with the record regions tainted: see
// tests/ct_dataflow_fixture.cc ctdf_bucket_route.
struct BucketArena {
  uint8_t* records = nullptr;   // B * Z * stride bytes (live only after materialize)
  uint32_t* labels = nullptr;   // B * Z label slots (prefix per bucket is live)
  uint32_t* indices = nullptr;  // B * Z input-slab record indices, parallel to labels
  uint32_t* counts = nullptr;   // B per-bucket live-prefix lengths
  uint64_t buckets = 0;
  uint64_t capacity = 0;
  size_t stride = 0;
};

// Sequentially merge-splits the bucket pairs [pair_lo, pair_hi) of one butterfly
// level. Pair p joins buckets (i, i | m) where i is the p-th index with (i & m) == 0
// and m is the level's partner bit; tags route to the side matching bit m of their
// label. Emits one kBucketScan(pair, level) trace event per pair. Returns false
// (and stops copying) if either side would exceed Z — the public overflow event
// TryBucketSortSlab surfaces.
//
// Every branch condition here reads only the label / count arrays (public by
// declassification) and public geometry; only (label, index) tags move. Header-
// inline so the binary dataflow verifier can audit the routing + materialization
// pipeline standalone, without pulling the declassification boundary into the
// audit unit (tests/ct_dataflow_fixture.cc ctdf_bucket_route).
inline bool RouteLevelRange(const BucketArena& arena, uint32_t m, uint32_t level,
                            uint64_t pair_lo, uint64_t pair_hi) {
  const uint64_t z = arena.capacity;
  std::vector<uint32_t> label_scratch(2 * z);
  std::vector<uint32_t> index_scratch(2 * z);
  const uint64_t low_mask = static_cast<uint64_t>(m) - 1;
  for (uint64_t p = pair_lo; p < pair_hi; ++p) {
    // p-th bucket index with bit m clear: insert a zero bit at m's position.
    const uint64_t i = ((p & ~low_mask) << 1) | (p & low_mask);
    const uint64_t j = i | m;
    uint32_t* labels_i = arena.labels + i * z;
    uint32_t* labels_j = arena.labels + j * z;
    uint32_t* indices_i = arena.indices + i * z;
    uint32_t* indices_j = arena.indices + j * z;
    const uint32_t count_i = arena.counts[i];
    const uint32_t count_j = arena.counts[j];

    // Gather both live tag prefixes, then split back by bit m of the label.
    std::memcpy(label_scratch.data(), labels_i, count_i * sizeof(uint32_t));
    std::memcpy(label_scratch.data() + count_i, labels_j, count_j * sizeof(uint32_t));
    std::memcpy(index_scratch.data(), indices_i, count_i * sizeof(uint32_t));
    std::memcpy(index_scratch.data() + count_i, indices_j, count_j * sizeof(uint32_t));

    uint32_t n0 = 0;
    uint32_t n1 = 0;
    const uint32_t total = count_i + count_j;
    bool ok = true;
    for (uint32_t s = 0; s < total; ++s) {
      const uint32_t label = label_scratch[s];
      if ((label & m) == 0) {
        if (n0 >= z) {
          ok = false;
          break;
        }
        labels_i[n0] = label;
        indices_i[n0] = index_scratch[s];
        ++n0;
      } else {
        if (n1 >= z) {
          ok = false;
          break;
        }
        labels_j[n1] = label;
        indices_j[n1] = index_scratch[s];
        ++n1;
      }
    }
    arena.counts[i] = n0;
    arena.counts[j] = n1;
    TraceRecord(TraceOp::kBucketScan, p, level);
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Copies each routed bucket's live records from the input slab into the arena: one
// stride-byte memcpy per record from the public index the tag carried through the
// butterfly. This is the single point where record bytes move between the label
// declassification and the per-bucket cleanup — the gather order is a function of
// the declassified labels and the input order alone, so the access pattern is as
// simulatable as the routing itself. Header-inline for the same standalone-audit
// reason as RouteLevelRange.
inline void MaterializeBucketRange(const BucketArena& arena, const uint8_t* data,
                                   uint64_t bucket_lo, uint64_t bucket_hi) {
  const size_t stride = arena.stride;
  const uint64_t z = arena.capacity;
  for (uint64_t b = bucket_lo; b < bucket_hi; ++b) {
    uint8_t* out = arena.records + b * z * stride;
    const uint32_t* idx = arena.indices + b * z;
    const uint32_t cnt = arena.counts[b];
    for (uint32_t s = 0; s < cnt; ++s) {
      std::memcpy(out + static_cast<size_t>(s) * stride,
                  data + static_cast<size_t>(idx[s]) * stride, stride);
    }
  }
}

}  // namespace bucket_internal

// SNOOPY_OBLIVIOUS_BEGIN(bucket_cleanup)
// ct-public: base stride bin_offset trace_base i j asc a b
// ct-calls: LoadSecretU32 LoadSecretU64 Widen KernelCondSwapBytes TraceRecord within Less

// The per-bucket cleanup compare-swap: the full (bin, within-bin) comparator over
// secret record fields feeding the dispatching swap kernel, with trace slot indices
// offset by the bucket's public arena position so the merged event stream is global.
// Templated on the within-bin comparator so the audit fixture can instantiate it
// with a concrete branchless functor (the real sort passes a type-erased wrapper);
// the composed compare + swap machinery audited is exactly what runs in production.
template <typename Within>
struct BucketCleanupCSwap {
  uint8_t* base;        // first live slot of this bucket
  size_t stride;        // record bytes
  size_t bin_offset;    // SortBinSpec::bin_offset
  uint64_t trace_base;  // global slot index of base
  Within within;        // less over records with equal bins (SecretBool)

  void operator()(size_t i, size_t j, bool asc) const {
    TraceRecord(TraceOp::kCondSwap, trace_base + i, trace_base + j);
    uint8_t* a = base + i * stride;
    uint8_t* b = base + j * stride;
    const SecretBool out_of_order = asc ? Less(b, a) : Less(a, b);
    KernelCondSwapBytes(out_of_order, a, b, stride);
  }

  SecretBool Less(const uint8_t* a, const uint8_t* b) const {
    const SecretU64 abin = Widen(LoadSecretU32(a, bin_offset));
    const SecretU64 bbin = Widen(LoadSecretU32(b, bin_offset));
    return (abin < bbin) | ((abin == bbin) & within(a, b));
  }
};

// SNOOPY_OBLIVIOUS_END(bucket_cleanup)

// SNOOPY_OBLIVIOUS_BEGIN(oblivious_sort_entry)
// ct-public: slab spec strategy threads stride n packed
// ct-public: TraceSpan SetArg span bucket_span a b ctx buckets capacity
// ct-public: heap_less sorted Less bins_simulatable
// ct-calls: ResolveSortStrategyPacked TryBucketSortSlab BitonicSortSlab
// ct-calls: LoadSecretU32 LoadSecretU64 Widen less_within_bin less
// ct-calls: Global size record_bytes data

// Common entry point for every hot slab sort. Orders records by (bin at
// spec.bin_offset, less_within_bin); the caller's within-bin comparator must make
// the order total (distinct tiebreak fields) so both strategies produce identical
// bytes. The resolved strategy, record count, and (bucket only) butterfly geometry
// are emitted as a public "sort" span (strategy 0 = bitonic, 1 = bucket) that
// tools/trace_report.py labels.
//
// Frame-escape discipline (load-bearing for the binary dataflow audit): every
// out-of-line call in this template receives only by-value scalars and pointers to
// heap storage. Passing a pointer into this frame (&spec, &params, a frame-resident
// std::function) would force tools/ct_dataflow.py to invalidate its tracking of the
// whole frame at the call, and the bitonic path below would then be audited with
// the slab and comparator state lost. The TraceSpan objects are fine: their methods
// inline, and the only calls they make take the global tracer, never the span.
//
// The bitonic fallback composes (bin, within) into one comparator — for the call
// sites this replaces, the composition is lexicographically identical to the
// comparators they ran before, so the fallback path's output and trace are
// unchanged.
template <typename Less>
void ObliviousSortSlab(ByteSlab& slab, const SortBinSpec& spec, const Less& less_within_bin,
                       SortStrategy strategy, int threads) {
  const uint64_t n = slab.size();
  const size_t stride = slab.record_bytes();
  const uint64_t packed = ResolveSortStrategyPacked(
      static_cast<uint8_t>(strategy), n, stride, spec.num_bins,
      spec.bins_simulatable ? 1u : 0u, spec.lambda);
  if ((packed & 1u) != 0) {
    TraceSpan bucket_span(&Tracer::Global(), "step", "sort");
    bucket_span.SetArg("strategy", 1);
    bucket_span.SetArg("records", n);
    bucket_span.SetArg("buckets", uint64_t{1} << ((packed >> 1) & 0x3f));
    bucket_span.SetArg("capacity", packed >> 8);
    using LessValue = std::decay_t<Less>;  // plain functions decay to pointers
    LessValue* heap_less = new LessValue(less_within_bin);
    const bool sorted = TryBucketSortSlab(
        slab.data(), n, stride, spec.bin_offset, spec.num_bins, spec.lambda,
        [](const void* ctx, const uint8_t* a, const uint8_t* b) {
          return (*static_cast<const LessValue*>(ctx))(a, b);
        },
        heap_less, threads);
    delete heap_less;
    if (sorted) {
      return;
    }
    // Route overflow (public, probability <= 2^-lambda): slab untouched; fall
    // through to the bitonic network.
  }
  TraceSpan span(&Tracer::Global(), "step", "sort");
  span.SetArg("strategy", 0);
  span.SetArg("records", n);
  BitonicSortSlab(
      slab,
      [&](const uint8_t* a, const uint8_t* b) {
        const SecretU64 abin = Widen(LoadSecretU32(a, spec.bin_offset));
        const SecretU64 bbin = Widen(LoadSecretU32(b, spec.bin_offset));
        return (abin < bbin) | ((abin == bbin) & less_within_bin(a, b));
      },
      threads);
}

// Plain-comparator overload for sorts with no (simulatable) bin tag — e.g. the load
// balancer's response-match sort, whose duplicate client keys make any keyed-hash
// label leak multiplicities. Always the single-threaded bitonic network
// (there is no safe bucket assignment to route by, so no strategy applies), but
// still emits the labeled "sort" span.
template <typename Less>
void ObliviousSortSlab(ByteSlab& slab, const Less& less) {
  TraceSpan span(&Tracer::Global(), "step", "sort");
  span.SetArg("strategy", 0);
  span.SetArg("records", slab.size());
  BitonicSortSlab(slab, less);
}

// SNOOPY_OBLIVIOUS_END(oblivious_sort_entry)

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_BUCKET_SORT_H_
