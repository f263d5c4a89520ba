// Microbenchmarks (google-benchmark) for the oblivious and cryptographic building
// blocks: the constants that feed the cost model's calibration on this machine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/core/request.h"
#include "src/core/suboram.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/compaction.h"
#include "src/obl/hash_table.h"
#include "src/obl/kernels.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"
#include "src/telemetry/bench_json.h"

namespace snoopy {
namespace {

void BM_CtCondCopy160(benchmark::State& state) {
  std::vector<uint8_t> dst(160);
  std::vector<uint8_t> src(160, 7);
  bool c = false;
  for (auto _ : state) {
    CtCondCopyBytes(c, dst.data(), src.data(), 160);
    c = !c;
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 160);
}
BENCHMARK(BM_CtCondCopy160);

void BM_CtCondSwap208(benchmark::State& state) {
  std::vector<uint8_t> a(208, 1);
  std::vector<uint8_t> b(208, 2);
  bool c = false;
  for (auto _ : state) {
    CtCondSwapBytes(c, a.data(), b.data(), 208);
    c = !c;
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 208);
}
BENCHMARK(BM_CtCondSwap208);

// A byte-at-a-time constant-time comparison, as the seed shipped it: the reference
// point for the word-at-a-time CtEqualBytes below. noinline so the comparison stays a
// call in both benchmarks.
__attribute__((noinline)) bool CtEqualBytesBytewise(const uint8_t* a, const uint8_t* b,
                                                   size_t n) {
  uint8_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc = static_cast<uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

void BM_CtEqualBytewise(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> a(n, 0x5c);
  std::vector<uint8_t> b(n, 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CtEqualBytesBytewise(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CtEqualBytewise)->Arg(32)->Arg(208)->Arg(4096);

void BM_CtEqualWordwise(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> a(n, 0x5c);
  std::vector<uint8_t> b(n, 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CtEqualBytes(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CtEqualWordwise)->Arg(32)->Arg(208)->Arg(4096);

// Secret<T> must be zero-cost: the wrapped select lowers to exactly the mask
// arithmetic of the raw primitive. Compare these two entries to verify.
void BM_SelectRaw(benchmark::State& state) {
  uint64_t a = 1;
  uint64_t b = 2;
  bool c = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CtSelect64(c, a, b));
    c = !c;
    ++a;
  }
}
BENCHMARK(BM_SelectRaw);

void BM_SelectSecret(benchmark::State& state) {
  uint64_t a = 1;
  uint64_t b = 2;
  bool c = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CtSelectU64(SecretBool::FromBool(c), SecretU64(a), SecretU64(b)));
    c = !c;
    ++a;
  }
}
BENCHMARK(BM_SelectSecret);

void BM_BitonicSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    ByteSlab slab(n, 208);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = rng.Next64();
      std::memcpy(slab.Record(i), &k, 8);
    }
    state.ResumeTiming();
    BitonicSortSlab(slab, [](const uint8_t* x, const uint8_t* y) {
      return LoadSecretU64(x, 0) < LoadSecretU64(y, 0);
    });
    benchmark::DoNotOptimize(slab.data());
  }
}
BENCHMARK(BM_BitonicSort)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_GoodrichCompact(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    ByteSlab slab(n, 208);
    std::vector<uint8_t> flags(n);
    for (size_t i = 0; i < n; ++i) {
      flags[i] = static_cast<uint8_t>(rng.Uniform(2));
    }
    state.ResumeTiming();
    GoodrichCompact(slab, std::span<uint8_t>(flags.data(), n));
    benchmark::DoNotOptimize(slab.data());
  }
}
BENCHMARK(BM_GoodrichCompact)->Arg(1 << 10)->Arg(1 << 14);

void BM_OhtBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr OhtSchema kSchema{0, 8, 12, 16, 24};
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    ByteSlab batch(n, 208);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = i * 1000003;
      std::memcpy(batch.Record(i), &k, 8);
    }
    state.ResumeTiming();
    TwoTierOht oht(kSchema, 128);
    benchmark::DoNotOptimize(oht.Build(std::move(batch), rng));
  }
}
BENCHMARK(BM_OhtBuild)->Arg(1 << 10)->Arg(1 << 12);

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_AeadSeal(benchmark::State& state) {
  Aead::Key key{};
  const Aead aead(key);
  std::vector<uint8_t> msg(static_cast<size_t>(state.range(0)), 1);
  uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Seal(Aead::CounterNonce(ctr++), {}, msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(208)->Arg(65536);

void BM_SipHash(benchmark::State& state) {
  const SipKey key{};
  uint64_t v = 1;
  for (auto _ : state) {
    v = SipHash24(key, v);
  }
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_SipHash);

void BM_BatchBound(benchmark::State& state) {
  uint64_t r = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchSize(r, 16, 128));
    r = r % 1000000 + 1000;
  }
}
BENCHMARK(BM_BatchBound);

// --- Dispatching SIMD kernel layer (src/obl/kernels.h) ---------------------------
//
// One benchmark per (backend, record size, alignment) so the per-backend kernels
// can be compared directly; the same grid is re-measured with manual timing below
// and emitted as the `primitive_kernels` series in BENCH_micro_primitives.json.

void BM_KernelCondSwap(benchmark::State& state, KernelBackend backend, size_t nbytes,
                       size_t misalign) {
  const KernelBackend prev = ActiveKernelBackend();
  SetKernelBackend(backend);
  std::vector<uint8_t> abuf(nbytes + 64, 1);
  std::vector<uint8_t> bbuf(nbytes + 64, 2);
  uint8_t* a = abuf.data() + misalign;
  uint8_t* b = bbuf.data() + misalign;
  uint64_t mask = ~uint64_t{0};
  for (auto _ : state) {
    KernelCondSwapBytesMask(mask, a, b, nbytes);
    mask = ~mask;
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nbytes));
  SetKernelBackend(prev);
}

void BM_KernelEqual(benchmark::State& state, KernelBackend backend, size_t nbytes,
                    size_t misalign) {
  const KernelBackend prev = ActiveKernelBackend();
  SetKernelBackend(backend);
  std::vector<uint8_t> abuf(nbytes + 64, 0x5c);
  std::vector<uint8_t> bbuf(nbytes + 64, 0x5c);
  const uint8_t* a = abuf.data() + misalign;
  const uint8_t* b = bbuf.data() + misalign;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelEqualBytes(a, b, nbytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nbytes));
  SetKernelBackend(prev);
}

void RegisterKernelBenchmarks() {
  for (const KernelBackend backend : SupportedKernelBackends()) {
    for (const size_t nbytes : {size_t{160}, size_t{208}}) {
      for (const size_t misalign : {size_t{0}, size_t{3}}) {
        const std::string suffix = std::string("/") + KernelBackendName(backend) + "/" +
                                   std::to_string(nbytes) +
                                   (misalign == 0 ? "/aligned" : "/misaligned");
        benchmark::RegisterBenchmark(
            ("BM_KernelCondSwap" + suffix).c_str(),
            [backend, nbytes, misalign](benchmark::State& st) {
              BM_KernelCondSwap(st, backend, nbytes, misalign);
            });
        benchmark::RegisterBenchmark(
            ("BM_KernelEqual" + suffix).c_str(),
            [backend, nbytes, misalign](benchmark::State& st) {
              BM_KernelEqual(st, backend, nbytes, misalign);
            });
      }
    }
  }
}

// Manual-timing pass over the same grid, written as machine-readable JSON. Kept
// separate from google-benchmark so the emitted file exists on every run
// regardless of --benchmark_filter.
template <typename Fn>
double MeasureNsPerOp(Fn&& fn) {
  for (int i = 0; i < 2000; ++i) {
    fn();
  }
  constexpr int kIters = 300000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
}

// One access_run op: a run of this many records (about one OHT bucket) with a
// 48-byte request header before each value.
constexpr size_t kAccessRecords = 27;
constexpr size_t kAccessHeader = RequestBatch::kHeaderBytes;

void EmitKernelSeries(BenchJsonEmitter& emitter) {
  const KernelBackend prev = ActiveKernelBackend();
  std::map<std::string, double> generic_ns;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    for (const size_t nbytes : {size_t{160}, size_t{208}}) {
      for (const size_t misalign : {size_t{0}, size_t{3}}) {
        std::vector<uint8_t> abuf(nbytes + 64, 1);
        std::vector<uint8_t> bbuf(nbytes + 64, 2);
        uint8_t* a = abuf.data() + misalign;
        uint8_t* b = bbuf.data() + misalign;
        struct OpPoint {
          const char* op;
          double ns;
        };
        const size_t run_stride = kAccessHeader + nbytes;
        std::vector<uint8_t> run(kAccessRecords * run_stride, 3);
        for (size_t r = 0; r < kAccessRecords; ++r) {
          RequestHeader h;
          h.key = r % 2;
          h.op = kOpWrite;
          std::memcpy(run.data() + r * run_stride, &h, kAccessHeader);
        }
        std::vector<uint64_t> columns(4 * kAccessRecords);
        BuildScanColumns(run.data(), kAccessRecords, run_stride, columns.data());
        uint64_t mask = ~uint64_t{0};
        const OpPoint ops[3] = {
            {"cond_swap", MeasureNsPerOp([&] {
               KernelCondSwapBytesMask(mask, a, b, nbytes);
               mask = ~mask;
               benchmark::DoNotOptimize(a);
             })},
            {"equal", MeasureNsPerOp([&] {
               benchmark::DoNotOptimize(KernelEqualBytes(a, b, nbytes));
             })},
            // The subORAM scan's fused compare-and-set over one run of kAccessRecords
            // request records (header + value), per record: the value <- the carried
            // state under `match`, the state <- the value under `write`; the masks are
            // compared from the run's match columns (built once, as the scan builds
            // them once per table), and every other record is a granted write to the
            // object's key.
            {"access_run", MeasureNsPerOp([&] {
               KernelAccessRun(a, run.data(), kAccessRecords, run_stride, kAccessHeader,
                               nbytes, ScanRunColumns(columns.data(), kAccessRecords, 0, 0));
               benchmark::DoNotOptimize(a);
             }) / kAccessRecords},
        };
        for (const OpPoint& op : ops) {
          const std::string key = std::string(op.op) + "/" + std::to_string(nbytes) + "/" +
                                  std::to_string(misalign);
          auto& point = emitter.AddPoint("primitive_kernels");
          point.Set("backend", KernelBackendName(backend))
              .Set("op", op.op)
              .Set("record_bytes", static_cast<double>(nbytes))
              .Set("misalign", static_cast<double>(misalign))
              .Set("ns_per_op", op.ns)
              .Set("gib_per_s", static_cast<double>(nbytes) / op.ns * 1e9 /
                                    (1024.0 * 1024.0 * 1024.0));
          if (backend == KernelBackend::kGeneric) {
            generic_ns[key] = op.ns;
          } else if (generic_ns.count(key) != 0 && op.ns > 0.0) {
            point.Set("speedup_vs_generic", generic_ns[key] / op.ns);
          }
        }
      }
    }
  }
  SetKernelBackend(prev);
}

// --- ChaCha20-Poly1305 (src/crypto) ------------------------------------------------
//
// GB/s per backend for each half of the AEAD and for the one-pass seal and open, on
// one 16 KiB chunk (L1-resident) and on 11 MiB (one scan_heavy partition, past L2).
// `seal` is the partition seal's path: Aead::Stream encrypting from the source into
// a separate destination. Each point is the median of kCryptoReps timed runs after
// one untimed run, with the fastest and slowest run beside it.

constexpr int kCryptoReps = 9;

template <typename Fn>
void AddCryptoPoint(BenchJsonEmitter& emitter, KernelBackend backend, const char* op,
                    size_t bytes, Fn&& fn) {
  // Small messages repeat inside one timed run so every run covers at least 4 MiB.
  const size_t iters = std::max<size_t>(1, (size_t{4} << 20) / bytes);
  fn();
  std::vector<double> gbps;
  for (int rep = 0; rep < kCryptoReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) {
      fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    gbps.push_back(static_cast<double>(bytes * iters) /
                   std::chrono::duration<double>(t1 - t0).count() / 1e9);
  }
  std::sort(gbps.begin(), gbps.end());
  emitter.AddPoint("crypto")
      .Set("backend", KernelBackendName(backend))
      .Set("op", op)
      .Set("bytes", static_cast<double>(bytes))
      .Set("gb_per_s", gbps[gbps.size() / 2])
      .Set("gb_per_s_min", gbps.front())
      .Set("gb_per_s_max", gbps.back())
      .Set("reps", static_cast<double>(kCryptoReps));
}

void EmitCryptoSeries(BenchJsonEmitter& emitter) {
  const KernelBackend prev = ActiveKernelBackend();
  Rng rng(31);
  Aead::Key key;
  rng.Fill(key.data(), key.size());
  const Aead aead(key);
  const Aead::Nonce nonce = Aead::CounterNonce(1, 0x5ea1);
  const std::span<const uint8_t> key_bytes(key.data(), key.size());
  const std::span<const uint8_t> nonce_bytes(nonce.data(), nonce.size());
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    for (const size_t bytes : {size_t{16} << 10, size_t{11} << 20}) {
      std::vector<uint8_t> src(bytes);
      rng.Fill(src.data(), src.size());
      std::vector<uint8_t> dst(bytes);
      const std::vector<uint8_t> sealed = aead.Seal(nonce, {}, src);
      std::vector<uint8_t> opened;
      AddCryptoPoint(emitter, backend, "chacha20", bytes, [&] {
        ChaCha20 cipher(key_bytes, nonce_bytes, 1);
        cipher.Crypt(src.data(), dst.data(), bytes);
        benchmark::DoNotOptimize(dst.data());
      });
      AddCryptoPoint(emitter, backend, "poly1305", bytes, [&] {
        benchmark::DoNotOptimize(Poly1305::Compute(key_bytes, src));
      });
      AddCryptoPoint(emitter, backend, "seal", bytes, [&] {
        Aead::Stream stream(aead, nonce, {});
        stream.Seal(src.data(), dst.data(), bytes);
        benchmark::DoNotOptimize(stream.Finish());
      });
      AddCryptoPoint(emitter, backend, "open", bytes, [&] {
        benchmark::DoNotOptimize(aead.Open(nonce, {}, sealed, opened));
      });
    }
  }
  SetKernelBackend(prev);
}

// --- subORAM scan (src/core/suboram.cc step 2) ------------------------------------
//
// ns per OHT slot per backend: the scan SubOram::ProcessBatch runs (ScanStore: the
// table's match columns, then one KernelAccessRun per bucket, two per object), over a
// real TwoTierOht built from a kScanBatch-request batch, against kScanObjects stored
// objects. Each point is the median of kScanReps timed scans after one untimed scan,
// with the fastest and slowest beside it.

constexpr size_t kScanObjects = 65536;
constexpr size_t kScanBatch = 500;
constexpr int kScanReps = 9;

void EmitSuboramScanSeries(BenchJsonEmitter& emitter) {
  const KernelBackend prev = ActiveKernelBackend();
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    for (const size_t value_bytes : {size_t{160}, size_t{1024}}) {
      Rng rng(41);
      RequestBatch batch(value_bytes);
      std::vector<uint8_t> payload(value_bytes, 0x5a);
      for (size_t i = 0; i < kScanBatch; ++i) {
        RequestHeader h;
        h.key = i % 2 == 0 ? i : kScanObjects + i;  // half the requests hit a stored key
        h.op = i % 4 < 2 ? kOpRead : kOpWrite;
        batch.Append(h, payload);
      }
      TwoTierOht table(kRequestOhtSchema, kDefaultLambda);
      if (!table.Build(std::move(batch.slab()), rng)) {
        std::fprintf(stderr, "suboram_scan: table build overflow\n");
        continue;
      }
      ByteSlab store(kScanObjects, 8 + value_bytes);
      for (size_t i = 0; i < kScanObjects; ++i) {
        const uint64_t key = i;
        std::memcpy(store.Record(i), &key, 8);
      }
      const auto scan = [&] {
        ScanStore(store, value_bytes, table);
        benchmark::DoNotOptimize(store.data());
      };
      const double slots =
          static_cast<double>(kScanObjects) * static_cast<double>(table.params().LookupCost());
      scan();
      std::vector<double> ns;
      for (int rep = 0; rep < kScanReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        scan();
        const auto t1 = std::chrono::steady_clock::now();
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / slots);
      }
      std::sort(ns.begin(), ns.end());
      emitter.AddPoint("suboram_scan")
          .Set("backend", KernelBackendName(backend))
          .Set("value_bytes", static_cast<double>(value_bytes))
          .Set("objects", static_cast<double>(kScanObjects))
          .Set("batch", static_cast<double>(kScanBatch))
          .Set("slots_per_object", static_cast<double>(table.params().LookupCost()))
          .Set("ns_per_slot", ns[ns.size() / 2])
          .Set("ns_per_slot_min", ns.front())
          .Set("ns_per_slot_max", ns.back())
          .Set("reps", static_cast<double>(kScanReps));
    }
  }
  SetKernelBackend(prev);
}

}  // namespace
}  // namespace snoopy

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  snoopy::RegisterKernelBenchmarks();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  snoopy::BenchJsonEmitter emitter("micro_primitives");
  snoopy::EmitKernelSeries(emitter);
  snoopy::EmitCryptoSeries(emitter);
  snoopy::EmitSuboramScanSeries(emitter);
  const std::string path = emitter.WriteFile(".");
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
