// Tests for the dispatching SIMD kernel layer (src/obl/kernels.h): differential
// fuzzing of every supported backend against the scalar TCB primitives, dispatch
// override plumbing, trace identity of the slab sort across backends, and the
// vectorized ChaCha20 keystream against the scalar block function.

#include "src/obl/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

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

TEST(KernelDispatch, ForceGenericEnvOverride) {
  BackendGuard guard;
  ASSERT_EQ(setenv("SNOOPY_FORCE_GENERIC_KERNELS", "1", 1), 0);
  ResetKernelBackend();
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kGeneric);
  ASSERT_EQ(unsetenv("SNOOPY_FORCE_GENERIC_KERNELS"), 0);
  ResetKernelBackend();
  // After clearing the override the resolver picks the widest supported backend.
  EXPECT_EQ(ActiveKernelBackend(), SupportedKernelBackends().back());
}

TEST(KernelDispatch, BackendEnvSelection) {
  BackendGuard guard;
  // The force flag wins over SNOOPY_KERNEL_BACKEND by design, and the ci.sh
  // forced-generic stage exports it for every test; drop it so this test exercises
  // the named-backend path it is about.
  ASSERT_EQ(unsetenv("SNOOPY_FORCE_GENERIC_KERNELS"), 0);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    ASSERT_EQ(setenv("SNOOPY_KERNEL_BACKEND", KernelBackendName(backend), 1), 0);
    ResetKernelBackend();
    EXPECT_EQ(ActiveKernelBackend(), backend) << KernelBackendName(backend);
  }
  ASSERT_EQ(unsetenv("SNOOPY_KERNEL_BACKEND"), 0);
  ResetKernelBackend();
}

// Differential fuzz: every backend must produce byte-identical results to the scalar
// primitives for every length 0..1024 at a spread of misalignments (both pointers,
// independently) and for both mask values. Buffers carry guard bytes so out-of-bounds
// writes are caught too.
TEST(Kernels, CondCopyMatchesScalarEverywhere) {
  Rng rng(101);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (int iter = 0; iter < 400; ++iter) {
      const size_t n = static_cast<size_t>(rng.Uniform(1025));
      const size_t mis_d = static_cast<size_t>(rng.Uniform(32));
      const size_t mis_s = static_cast<size_t>(rng.Uniform(32));
      const uint64_t mask = (rng.Uniform(2) != 0) ? ~uint64_t{0} : 0;
      std::vector<uint8_t> dst(n + 64 + mis_d);
      std::vector<uint8_t> src(n + 64 + mis_s);
      for (auto& b : dst) b = static_cast<uint8_t>(rng.Next64());
      for (auto& b : src) b = static_cast<uint8_t>(rng.Next64());
      std::vector<uint8_t> want = dst;
      CtCondCopyBytesMask(mask, want.data() + mis_d, src.data() + mis_s, n);
      KernelCondCopyBytesMask(mask, dst.data() + mis_d, src.data() + mis_s, n);
      ASSERT_EQ(dst, want) << KernelBackendName(backend) << " n=" << n << " mis_d=" << mis_d
                           << " mis_s=" << mis_s << " mask=" << mask;
    }
  }
}

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

// The fused access kernel against the sequence it replaces: stage the state with a
// memcpy, then state <- slot under write, slot <- old under match, and slot <- zeros
// under match & !reveal, all with the scalar primitive. Every length 0..300 (each
// vector width's loop and every tail step), misaligned operands with guard bytes, and
// all eight (write, match, reveal) triples.
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
        KernelAccessSlotMask(write, match, reveal, state.data() + mis_s, slot.data() + mis_l, n);
        ASSERT_EQ(state, want_state) << KernelBackendName(backend) << " n=" << n
                                     << " triple=" << triple;
        ASSERT_EQ(slot, want_slot) << KernelBackendName(backend) << " n=" << n
                                   << " triple=" << triple;
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
    KernelCondCopyBytes(SecretBool::FromBool(false), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 2);
    KernelCondCopyBytes(SecretBool::FromBool(true), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 1);
    std::vector<uint8_t> state(160, 3);
    std::vector<uint8_t> slot(160, 4);
    const SecretBool yes = SecretBool::FromBool(true);
    const SecretBool no = SecretBool::FromBool(false);
    KernelAccessSlot(yes, yes, yes, state.data(), slot.data(), state.size());
    EXPECT_EQ(state, std::vector<uint8_t>(160, 4));
    EXPECT_EQ(slot, std::vector<uint8_t>(160, 3));
    KernelAccessSlot(no, yes, no, state.data(), slot.data(), state.size());
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
