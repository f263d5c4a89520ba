// Tests for the dispatching SIMD kernel layer (src/obl/kernels.h): differential
// fuzzing of every supported backend against the scalar TCB primitives, dispatch
// override plumbing, the subORAM scan's column masks against Figure 7's rule, trace
// identity of the slab sort across backends, and the vectorized ChaCha20 keystream
// against the scalar block function.

#include "src/obl/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/request.h"
#include "src/core/suboram.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"

namespace snoopy {
namespace {

// Restores the dispatch state a test mutated, even on assertion failure.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveKernelBackend()) {}
  ~BackendGuard() { SetKernelBackend(saved_); }

 private:
  KernelBackend saved_;
};

TEST(KernelDispatch, SupportedBackendsStartWithGeneric) {
  const std::vector<KernelBackend> backends = SupportedKernelBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), KernelBackend::kGeneric);
  for (const KernelBackend backend : backends) {
    EXPECT_TRUE(KernelBackendSupported(backend)) << KernelBackendName(backend);
    EXPECT_NE(std::string(KernelBackendName(backend)), "");
  }
}

TEST(KernelDispatch, SetAndResetControlActiveBackend) {
  BackendGuard guard;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    EXPECT_EQ(ActiveKernelBackend(), backend);
  }
}

TEST(KernelDispatch, BackendEnvSelection) {
  BackendGuard guard;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    ASSERT_EQ(setenv("SNOOPY_KERNEL_BACKEND", KernelBackendName(backend), 1), 0);
    ResetKernelBackend();
    EXPECT_EQ(ActiveKernelBackend(), backend) << KernelBackendName(backend);
  }
  ASSERT_EQ(unsetenv("SNOOPY_KERNEL_BACKEND"), 0);
  ResetKernelBackend();
}

// A name the resolver does not know -- the retired "sse2" backend, or garbage -- falls
// back to CPUID selection rather than to the scalar backend, so an environment written
// for an older build still runs the widest kernels.
TEST(KernelDispatch, UnknownBackendNameFallsBackToCpuid) {
  BackendGuard guard;
  const char* old = std::getenv("SNOOPY_KERNEL_BACKEND");
  const std::string saved = old != nullptr ? old : "";
  for (const char* name : {"sse2", "not-a-backend", ""}) {
    ASSERT_EQ(setenv("SNOOPY_KERNEL_BACKEND", name, 1), 0);
    ResetKernelBackend();
    EXPECT_EQ(ActiveKernelBackend(), SupportedKernelBackends().back()) << '"' << name << '"';
  }
  if (old != nullptr) {
    ASSERT_EQ(setenv("SNOOPY_KERNEL_BACKEND", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("SNOOPY_KERNEL_BACKEND"), 0);
  }
  ResetKernelBackend();
}

// Differential fuzz: every backend must produce byte-identical results to the scalar
// primitives for every length 0..1024 at a spread of misalignments (both pointers,
// independently) and for both mask values. Buffers carry guard bytes so out-of-bounds
// writes are caught too.
TEST(Kernels, CondSwapMatchesScalarEverywhere) {
  Rng rng(102);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (int iter = 0; iter < 400; ++iter) {
      const size_t n = static_cast<size_t>(rng.Uniform(1025));
      const size_t mis_a = static_cast<size_t>(rng.Uniform(32));
      const size_t mis_b = static_cast<size_t>(rng.Uniform(32));
      const uint64_t mask = (rng.Uniform(2) != 0) ? ~uint64_t{0} : 0;
      std::vector<uint8_t> a(n + 64 + mis_a);
      std::vector<uint8_t> b(n + 64 + mis_b);
      for (auto& x : a) x = static_cast<uint8_t>(rng.Next64());
      for (auto& x : b) x = static_cast<uint8_t>(rng.Next64());
      std::vector<uint8_t> want_a = a;
      std::vector<uint8_t> want_b = b;
      CtCondSwapBytesMask(mask, want_a.data() + mis_a, want_b.data() + mis_b, n);
      KernelCondSwapBytesMask(mask, a.data() + mis_a, b.data() + mis_b, n);
      ASSERT_EQ(a, want_a) << KernelBackendName(backend) << " n=" << n;
      ASSERT_EQ(b, want_b) << KernelBackendName(backend) << " n=" << n;
    }
  }
}

TEST(Kernels, TailSizesExercised) {
  // Deterministic sweep of the scalar-tail sizes 1..7 on top of every vector width
  // boundary, all misalignments 0..31.
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t base : {size_t{0}, size_t{16}, size_t{32}, size_t{64}, size_t{128}}) {
      for (size_t tail = 1; tail <= 7; ++tail) {
        const size_t n = base + tail;
        for (size_t mis = 0; mis < 32; ++mis) {
          std::vector<uint8_t> a(n + 64 + mis);
          std::vector<uint8_t> b(n + 64 + mis);
          for (size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<uint8_t>(i * 7 + 1);
            b[i] = static_cast<uint8_t>(i * 13 + 5);
          }
          std::vector<uint8_t> want_a = a;
          std::vector<uint8_t> want_b = b;
          CtCondSwapBytesMask(~uint64_t{0}, want_a.data() + mis, want_b.data() + mis, n);
          KernelCondSwapBytesMask(~uint64_t{0}, a.data() + mis, b.data() + mis, n);
          ASSERT_EQ(a, want_a) << KernelBackendName(backend) << " n=" << n << " mis=" << mis;
          ASSERT_EQ(b, want_b) << KernelBackendName(backend) << " n=" << n << " mis=" << mis;
        }
      }
    }
  }
}

TEST(Kernels, EqualMatchesScalarIncludingTailDiffs) {
  Rng rng(103);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{16}, size_t{31}, size_t{63},
                           size_t{64}, size_t{160}, size_t{208}, size_t{1024}}) {
      for (size_t mis = 0; mis < 8; ++mis) {
        std::vector<uint8_t> a(n + 64 + mis);
        for (auto& x : a) x = static_cast<uint8_t>(rng.Next64());
        std::vector<uint8_t> b = a;
        EXPECT_TRUE(KernelEqualBytes(a.data() + mis, b.data() + mis, n))
            << KernelBackendName(backend) << " n=" << n;
        EXPECT_EQ(KernelSecretEqualBytes(a.data() + mis, b.data() + mis, n).mask(),
                  ~uint64_t{0});
        if (n == 0) {
          continue;
        }
        // Flip one byte at the front, the back (tail position), and somewhere middle.
        for (const size_t pos : {size_t{0}, n - 1, n / 2}) {
          b[mis + pos] ^= 0x40;
          EXPECT_FALSE(KernelEqualBytes(a.data() + mis, b.data() + mis, n))
              << KernelBackendName(backend) << " n=" << n << " pos=" << pos;
          EXPECT_EQ(KernelSecretEqualBytes(a.data() + mis, b.data() + mis, n).mask(),
                    uint64_t{0});
          b[mis + pos] ^= 0x40;
        }
      }
    }
  }
}

// One-record run of the access kernel with fixed mask words: the single-slot access
// every record of a run gets.
void AccessOne(uint64_t write, uint64_t match, uint64_t reveal, uint8_t* state, uint8_t* slot,
               size_t n) {
  KernelAccessRun(state, slot, 1, n, 0, n, [&](uint8_t*) {
    return AccessMasks{SecretBool::FromMask(write), SecretBool::FromMask(match),
                       SecretBool::FromMask(reveal)};
  });
}

// The fused access kernel against the sequence it replaces: stage the state with a
// memcpy, then state <- slot under write, slot <- old under match, and slot <- zeros
// under match & !reveal, all with the scalar primitive. Every length 0..300 (each
// vector width's loop and every tail step), misaligned operands with guard bytes, and
// all eight (write, match, reveal) triples, on a run of one record.
TEST(Kernels, AccessSlotMatchesStagedSequenceEverywhere) {
  Rng rng(104);
  const std::vector<uint8_t> zeros(300, 0);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (size_t n = 0; n <= 300; ++n) {
      const size_t mis_s = n % 17;
      const size_t mis_l = static_cast<size_t>(rng.Uniform(32));
      for (int triple = 0; triple < 8; ++triple) {
        const uint64_t write = (triple & 1) != 0 ? ~uint64_t{0} : 0;
        const uint64_t match = (triple & 2) != 0 ? ~uint64_t{0} : 0;
        const uint64_t reveal = (triple & 4) != 0 ? ~uint64_t{0} : 0;
        std::vector<uint8_t> state(n + 64 + mis_s);
        std::vector<uint8_t> slot(n + 64 + mis_l);
        for (auto& b : state) b = static_cast<uint8_t>(rng.Next64());
        for (auto& b : slot) b = static_cast<uint8_t>(rng.Next64());
        std::vector<uint8_t> want_state = state;
        std::vector<uint8_t> want_slot = slot;
        std::vector<uint8_t> old(want_state.begin() + static_cast<std::ptrdiff_t>(mis_s),
                                 want_state.begin() + static_cast<std::ptrdiff_t>(mis_s + n));
        CtCondCopyBytesMask(write, want_state.data() + mis_s, want_slot.data() + mis_l, n);
        CtCondCopyBytesMask(match, want_slot.data() + mis_l, old.data(), n);
        CtCondCopyBytesMask(match & ~reveal, want_slot.data() + mis_l, zeros.data(), n);
        AccessOne(write, match, reveal, state.data() + mis_s, slot.data() + mis_l, n);
        ASSERT_EQ(state, want_state) << KernelBackendName(backend) << " n=" << n
                                     << " triple=" << triple;
        ASSERT_EQ(slot, want_slot) << KernelBackendName(backend) << " n=" << n
                                   << " triple=" << triple;
      }
    }
  }
}

// A run against the per-slot sequence it replaces: GenericAccessSlot once per record,
// in order, on the carried state. Records are a 3-byte mask header (write, match,
// reveal flags) plus the value plus a little padding, so the stride is not a multiple
// of any vector width. Masks are random with several matches and writes in one run,
// so the carried state changes mid-run; value sizes cover every tail of every backend
// and 1024 (four chunks), counts cross the 64-record mask block, and the functor
// must see each record exactly once, in run order.
TEST(Kernels, AccessRunMatchesPerSlotSequenceEverywhere) {
  Rng rng(105);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  sizes.push_back(1024);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t n : sizes) {
      std::vector<size_t> counts = {0, 1, 3, 55};
      if (n % 50 == 0 || n == 1024 || n == 173) counts.push_back(130);
      for (const size_t count : counts) {
        constexpr size_t kHeader = 3;
        const size_t value_offset = kHeader + n % 5;
        const size_t stride = value_offset + n + n % 3;
        const size_t mis_s = static_cast<size_t>(rng.Uniform(64));
        const size_t mis_r = static_cast<size_t>(rng.Uniform(64));
        std::vector<uint8_t> state(n + 64 + mis_s);
        std::vector<uint8_t> run(count * stride + 64 + mis_r);
        for (auto& b : state) b = static_cast<uint8_t>(rng.Next64());
        for (auto& b : run) b = static_cast<uint8_t>(rng.Next64());
        for (size_t r = 0; r < count; ++r) {
          uint8_t* rec = run.data() + mis_r + r * stride;
          rec[0] = static_cast<uint8_t>(rng.Uniform(3) == 0);  // write
          rec[1] = static_cast<uint8_t>(rng.Uniform(3) == 0);  // match
          rec[2] = static_cast<uint8_t>(rng.Uniform(2));       // reveal
        }
        std::vector<uint8_t> want_state = state;
        std::vector<uint8_t> want_run = run;
        for (size_t r = 0; r < count; ++r) {
          uint8_t* rec = want_run.data() + mis_r + r * stride;
          kernel_internal::GenericAccessSlot(
              SecretBool::FromWord(rec[0]).mask(), SecretBool::FromWord(rec[1]).mask(),
              SecretBool::FromWord(rec[2]).mask(), want_state.data() + mis_s,
              rec + value_offset, n);
        }
        size_t calls = 0;
        bool in_order = true;
        uint8_t* const first = run.data() + mis_r;
        KernelAccessRun(state.data() + mis_s, first, count, stride, value_offset, n,
                        [&](uint8_t* rec) {
                          in_order = in_order && rec == first + calls * stride;
                          ++calls;
                          return AccessMasks{SecretBool::FromWord(rec[0]),
                                             SecretBool::FromWord(rec[1]),
                                             SecretBool::FromWord(rec[2])};
                        });
        ASSERT_EQ(calls, count) << KernelBackendName(backend) << " n=" << n;
        ASSERT_TRUE(in_order) << KernelBackendName(backend) << " n=" << n;
        ASSERT_EQ(state, want_state) << KernelBackendName(backend) << " n=" << n
                                     << " count=" << count;
        ASSERT_EQ(run, want_run) << KernelBackendName(backend) << " n=" << n
                                 << " count=" << count;
      }
    }
  }
}

// The subORAM scan's column path (BuildScanColumns over a tier, then KernelAccessRun
// with one bucket's AccessColumns) against a GenericAccessSlot loop whose masks follow
// Figure 7's rule read straight off each request header: match = key equal and not a
// dummy, write = match & granted write, reveal = granted. Bucket sizes cross every
// vector group and the 64-record mask block; the bucket sits a few slots into its tier
// so its columns start mid-buffer; state and records are misaligned. Each run mixes
// dummies (some carrying the object's key), reads and writes, granted and denied, with
// one match, several matches or none.
TEST(Kernels, AccessColumnsMatchFunctorMasksEverywhere) {
  Rng rng(106);
  constexpr uint64_t kObjKey = 0x1234'5678'9abc'def0;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t n : {size_t{32}, size_t{160}, size_t{173}, size_t{300}, size_t{1024}}) {
      for (const size_t count : {0, 1, 3, 7, 8, 9, 63, 64, 65, 130}) {
        for (const int matches : {0, 1, 2}) {  // none, exactly one, several
          const size_t stride = RequestBatch::kHeaderBytes + n + n % 3;
          const size_t before = static_cast<size_t>(rng.Uniform(5));
          const size_t slots = before + count + static_cast<size_t>(rng.Uniform(5));
          const size_t mis_s = static_cast<size_t>(rng.Uniform(64));
          const size_t mis_r = static_cast<size_t>(rng.Uniform(64));
          std::vector<uint8_t> state(n + 64 + mis_s);
          std::vector<uint8_t> tier(slots * stride + 64 + mis_r);
          for (auto& b : state) b = static_cast<uint8_t>(rng.Next64());
          for (auto& b : tier) b = static_cast<uint8_t>(rng.Next64());
          const size_t one = count == 0 ? 0 : static_cast<size_t>(rng.Uniform(count));
          for (size_t s = 0; s < slots; ++s) {
            RequestHeader h;
            const size_t r = s - before;  // wraps for slots before the bucket
            const bool hit =
                r < count && (matches == 2 ? rng.Uniform(3) == 0 : matches == 1 && r == one);
            h.key = hit ? kObjKey : rng.Next64() | 1;  // kObjKey is even
            if (!hit && rng.Uniform(4) == 0) {
              h.dummy = static_cast<uint8_t>(1 + rng.Uniform(255));
              if (rng.Uniform(2) == 0) {
                h.key = kObjKey;  // a dummy never matches, even on the object's key
              }
            }
            h.op = static_cast<uint8_t>(rng.Uniform(2) == 0 ? kOpRead : kOpWrite);
            h.granted = static_cast<uint8_t>(rng.Uniform(3) == 0 ? 0 : 1 + rng.Uniform(255));
            std::memcpy(tier.data() + mis_r + s * stride, &h, sizeof(h));
          }
          std::vector<uint8_t> want_state = state;
          std::vector<uint8_t> want_tier = tier;
          for (size_t r = 0; r < count; ++r) {
            uint8_t* rec = want_tier.data() + mis_r + (before + r) * stride;
            RequestHeader h;
            std::memcpy(&h, rec, sizeof(h));
            const bool match = h.key == kObjKey && h.dummy == 0;
            const bool write = match && h.op == kOpWrite && h.granted != 0;
            const auto word = [](bool b) { return b ? ~uint64_t{0} : uint64_t{0}; };
            kernel_internal::GenericAccessSlot(word(write), word(match), word(h.granted != 0),
                                               want_state.data() + mis_s,
                                               rec + RequestBatch::kHeaderBytes, n);
          }
          std::vector<uint64_t> columns(4 * slots);
          BuildScanColumns(tier.data() + mis_r, slots, stride, columns.data());
          KernelAccessRun(state.data() + mis_s, tier.data() + mis_r + before * stride, count,
                          stride, RequestBatch::kHeaderBytes, n,
                          ScanRunColumns(columns.data(), slots, before, kObjKey));
          ASSERT_EQ(state, want_state) << KernelBackendName(backend) << " n=" << n
                                       << " count=" << count << " matches=" << matches;
          ASSERT_EQ(tier, want_tier) << KernelBackendName(backend) << " n=" << n
                                     << " count=" << count << " matches=" << matches;
        }
      }
    }
  }
}

TEST(Kernels, SecretBoolFormsMatchMaskForms) {
  BackendGuard guard;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    std::vector<uint8_t> a(208, 1);
    std::vector<uint8_t> b(208, 2);
    KernelCondSwapBytes(SecretBool::FromBool(true), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 2);
    EXPECT_EQ(b[0], 1);
    std::vector<uint8_t> state(160, 3);
    std::vector<uint8_t> slot(160, 4);
    const SecretBool yes = SecretBool::FromBool(true);
    const SecretBool no = SecretBool::FromBool(false);
    const auto access = [&](SecretBool write, SecretBool match, SecretBool reveal) {
      KernelAccessRun(state.data(), slot.data(), 1, slot.size(), 0, state.size(),
                      [&](uint8_t*) { return AccessMasks{write, match, reveal}; });
    };
    access(yes, yes, yes);
    EXPECT_EQ(state, std::vector<uint8_t>(160, 4));
    EXPECT_EQ(slot, std::vector<uint8_t>(160, 3));
    access(no, yes, no);
    EXPECT_EQ(state, std::vector<uint8_t>(160, 4));
    EXPECT_EQ(slot, std::vector<uint8_t>(160, 0));
  }
}

TEST(Kernels, SortBlockRecordsDerivation) {
  // Tile = largest power of two with two operand records resident in the L1 budget.
  EXPECT_EQ(SortBlockRecords(208), 64u);
  EXPECT_EQ(SortBlockRecords(160), 64u);
  EXPECT_EQ(SortBlockRecords(1), 16384u);
  // Never below the minimum tile, even for absurd records.
  EXPECT_EQ(SortBlockRecords(1 << 20), 4u);
  for (const size_t rb : {size_t{8}, size_t{24}, size_t{208}, size_t{4096}}) {
    const size_t block = SortBlockRecords(rb);
    EXPECT_EQ(block & (block - 1), 0u) << rb;  // power of two
    if (block > 4) {
      EXPECT_LE(2 * block * rb, kL1TileBytes) << rb;
    }
  }
  // The adaptive-threads threshold is derived from the tile: below 128 tiles of
  // 208-byte records (8192 of them) a sort stays single-threaded.
  EXPECT_EQ(AdaptiveSortThreads(128 * SortBlockRecords(208) - 1, 4, 208), 1);
  EXPECT_GE(AdaptiveSortThreads(128 * SortBlockRecords(208), 4, 208), 1);
}

// --- Trace identity: generic vs SIMD ---------------------------------------------

std::vector<TraceEvent> SlabSortTrace(KernelBackend backend) {
  BackendGuard guard;
  SetKernelBackend(backend);
  ByteSlab slab(333, 24);  // non-power-of-two records, 24B stride
  Rng rng(7);
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint64_t key = rng.Next64();
    std::memcpy(slab.Record(i), &key, 8);
  }
  TraceScope scope;
  BitonicSortSlab(slab, [](const uint8_t* a, const uint8_t* b) {
    return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
  });
  return scope.Events();
}

TEST(KernelTrace, SlabSortTraceIdenticalAcrossBackends) {
  const std::vector<TraceEvent> reference = SlabSortTrace(KernelBackend::kGeneric);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    EXPECT_TRUE(NonVacuousTraceEq(reference, SlabSortTrace(backend)))
        << KernelBackendName(backend);
  }
}

// --- ChaCha20: vector keystream vs scalar ----------------------------------------

std::vector<uint8_t> ChaChaCrypt(KernelBackend backend, size_t len, size_t chunk) {
  BackendGuard guard;
  SetKernelBackend(backend);
  std::vector<uint8_t> key(ChaCha20::kKeyBytes);
  std::vector<uint8_t> nonce(ChaCha20::kNonceBytes);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i * 11 + 1);
  for (size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<uint8_t>(i * 29 + 3);
  ChaCha20 cipher(key, nonce, /*counter=*/7);
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) data[i] = static_cast<uint8_t>(i);
  for (size_t off = 0; off < len;) {
    const size_t take = std::min(chunk, len - off);
    cipher.Crypt(data.data() + off, take);
    off += take;
  }
  return data;
}

TEST(ChaChaKernels, SimdKeystreamMatchesScalar) {
  for (const size_t len : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{255},
                           size_t{256}, size_t{257}, size_t{511}, size_t{512}, size_t{513},
                           size_t{4096}, size_t{4109}}) {
    const std::vector<uint8_t> want = ChaChaCrypt(KernelBackend::kGeneric, len, len);
    for (const KernelBackend backend : SupportedKernelBackends()) {
      EXPECT_EQ(ChaChaCrypt(backend, len, len), want)
          << KernelBackendName(backend) << " len=" << len;
    }
  }
}

TEST(ChaChaKernels, ChunkedCryptMatchesOneShot) {
  // Chunk boundaries force partial-block buffering between calls; the SIMD fast path
  // must pick up cleanly after a drain, for every backend.
  const size_t len = 2048 + 21;
  const std::vector<uint8_t> want = ChaChaCrypt(KernelBackend::kGeneric, len, len);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    for (const size_t chunk : {size_t{1}, size_t{37}, size_t{64}, size_t{100}, size_t{512}}) {
      EXPECT_EQ(ChaChaCrypt(backend, len, chunk), want)
          << KernelBackendName(backend) << " chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace snoopy
