// Microbenchmarks (google-benchmark) for the oblivious and cryptographic building
// blocks: the constants that feed the cost model's calibration on this machine.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/crypto/aead.h"
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

void EmitKernelSeries() {
  BenchJsonEmitter emitter("micro_primitives");
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
        uint64_t mask = ~uint64_t{0};
        const OpPoint ops[2] = {
            {"cond_swap", MeasureNsPerOp([&] {
               KernelCondSwapBytesMask(mask, a, b, nbytes);
               mask = ~mask;
               benchmark::DoNotOptimize(a);
             })},
            {"equal", MeasureNsPerOp([&] {
               benchmark::DoNotOptimize(KernelEqualBytes(a, b, nbytes));
             })},
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
  const std::string path = emitter.WriteFile(".");
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
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
  snoopy::EmitKernelSeries();
  return 0;
}
