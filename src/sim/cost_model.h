// Calibrated service-time model for the multi-machine evaluation.
//
// The paper's throughput figures (9a, 9b, 10, 11, 14) were measured on 18 Azure
// DC4s_v2 machines; this repository has one core and no SGX, so those figures are
// regenerated by combining the *real* algorithms (batch bound, hash-table geometry,
// epoch pipeline) with a service-time model calibrated against the paper's reported
// single-machine measurements. The calibration anchors are:
//
//   [A1] Fig. 11b: one subORAM holding 2M 160-byte objects serves a steady load at
//        ~847 ms mean latency => epoch ~339 ms (latency = 5T/2), dominated by the
//        linear scan (working set 336 MB > EPC, host-loader streaming path).
//   [A2] Fig. 11b: 15 subORAMs bring the same workload to ~112 ms.
//   [A3] Fig. 12: one batch of 2^10 requests takes ~10 ms (load balancer make-batch),
//        ~15 ms (subORAM, 2^15 objects) and ~250 ms (subORAM, 2^20 objects; the EPC
//        cliff), ~12 ms (match responses).
//   [A4] Fig. 13a: bitonic sort of 2^16 records ~1 s on one enclave thread.
//   [A5] Oblix: 1,153 sequential reqs/s (0.87 ms/access) at 2M 160-byte objects, with
//        a recursion step visible in Fig. 10 between 8 and 9 machines.
//   [A6] Obladi: 6,716 reqs/s at ~79 ms latency, batch 500, two machines.
//   [A7] Redis: 4.2M reqs/s over 15 machines (~280 K/s per machine).
//
// Anything the model cannot know from first principles is a named constant below with
// the anchor it was fitted to. EXPERIMENTS.md reports paper-vs-model numbers per
// figure.

#ifndef SNOOPY_SRC_SIM_COST_MODEL_H_
#define SNOOPY_SRC_SIM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <map>

#include "src/enclave/epc.h"
#include "src/obl/kernels.h"

namespace snoopy {

// Memoized hash-table geometry for a (quantized) batch size.
struct OhtParamsCacheEntry {
  uint64_t lookup_slots = 0;
  uint64_t tier1_records = 0;  // batch + bins1 * z1
  uint64_t tier2_records = 0;  // overflow_cap + bins2 * z2
};

struct CostModelConfig {
  // Machine shape (Azure DC4s_v2): 4 cores, one reserved for the host loader thread.
  int cores = 4;
  double parallel_efficiency = 0.80;  // thread-scaling efficiency (Fig. 13b)

  size_t value_size = 160;
  uint32_t lambda = 128;

  // Oblivious linear scan over the object store, streaming via the host loader [A1]:
  // per-byte integrity-check + staging cost on top of the EPC model's transfer cost.
  double scan_ns_per_byte = 0.15;
  // Per (object x hash-table-slot) oblivious compare-and-set: fixed header part plus a
  // per-value-byte part (AVX-512 masked moves, both directions) [A1, A3].
  double cmp_ns_per_slot = 3.0;
  double cmp_ns_per_value_byte = 0.018;
  // Bitonic sort: ns per byte per log2^2(n) factor [A4].
  double sort_ns_per_byte = 0.18;
  // Depth-first bitonic recursion (RunBitonicNetwork): segments of at most
  // SortBlockRecords stay L1-resident. Tile geometry shared with the implementation
  // (src/obl/kernels.h), and the relative cost of a tile-local compare-exchange
  // pass versus a streaming one (L1-resident operands).
  size_t l1_tile_bytes = kL1TileBytes;
  double sort_blocked_discount = 0.55;
  // Oblivious compaction: ns per byte per log2(n).
  double compact_ns_per_byte = 0.30;
  // Fixed per-batch overhead at the subORAM (enclave transitions, setup).
  double suboram_fixed_s = 3.0e-3;
  // Fixed per-epoch overhead at the load balancer.
  double lb_fixed_s = 1.0e-3;

  // Network (intra-datacenter).
  double net_rtt_s = 0.6e-3;
  double net_bytes_per_s = 250e6;  // ~2 Gbit/s effective

  EpcConfig epc;

  // Oblix baseline [A5]: per-path cost and position-map recursion geometry.
  double oblix_path_ns_per_level = 24500.0;  // doubly-oblivious path + stash scan
  uint64_t oblix_posmap_fanout = 512;
  uint64_t oblix_flat_threshold = 490;

  // Obladi baseline [A6].
  double obladi_peak_throughput = 6716.0;
  double obladi_latency_s = 79e-3;

  // Redis baseline [A7].
  double redis_per_machine = 280000.0;
};

class CostModel {
 public:
  explicit CostModel(const CostModelConfig& config = CostModelConfig{})
      : config_(config), epc_(config.epc) {}

  const CostModelConfig& config() const { return config_; }

  size_t RecordBytes() const { return 48 + config_.value_size; }

  // L1-resident segment size (records) of the depth-first bitonic recursion for this
  // record size — the same derivation the implementation applies (public parameter).
  size_t SortBlockRecordsFor(size_t record_bytes) const {
    return SortBlockRecords(record_bytes, config_.l1_tile_bytes);
  }

  // --- Oblivious building blocks -------------------------------------------------
  double BitonicSortSeconds(uint64_t n, size_t record_bytes, int threads) const;
  // Bucket oblivious sort (src/obl/bucket_sort.h) over n records carrying one of
  // num_bins simulatable bin tags, priced with the same pass algebra the kAuto
  // crossover uses (BucketSortPassesPerElement) so model and implementation agree
  // on where the strategies cross. Falls back to BitonicSortSeconds pricing when
  // no routing geometry clears the 2^-lambda overflow budget.
  double BucketSortSeconds(uint64_t n, size_t record_bytes, uint64_t num_bins,
                           int threads) const;
  double CompactSeconds(uint64_t n, size_t record_bytes, int threads) const;
  double OhtBuildSeconds(uint64_t batch, int threads) const;
  // Hash-table lookup cost z1 + z2 for a batch of this size (real geometry).
  uint64_t OhtLookupSlots(uint64_t batch) const;

  // --- Snoopy components ----------------------------------------------------------
  // One subORAM processing one batch over n stored objects (Figure 7 pipeline),
  // parallelized over `threads` enclave threads, including EPC effects.
  double SubOramBatchSeconds(uint64_t batch, uint64_t n_objects, int threads) const;
  double SubOramBatchSeconds(uint64_t batch, uint64_t n_objects) const {
    return SubOramBatchSeconds(batch, n_objects, config_.cores - 1);
  }
  // Load balancer: batch construction (Figure 5) + response matching (Figure 6) for r
  // requests over s subORAMs.
  double LbPrepareSeconds(uint64_t r, uint64_t s, int threads) const;
  double LbMatchSeconds(uint64_t r, uint64_t s, int threads) const;
  double LbEpochSeconds(uint64_t r, uint64_t s) const {
    return config_.lb_fixed_s + LbPrepareSeconds(r, s, config_.cores) +
           LbMatchSeconds(r, s, config_.cores);
  }
  // Shipping one batch of `batch` records one way.
  double NetworkBatchSeconds(uint64_t batch) const;

  // --- Baselines -------------------------------------------------------------------
  // Oblix: recursion depth for n objects and one sequential access's latency.
  uint32_t OblixRecursionLevels(uint64_t n_objects) const;
  double OblixAccessSeconds(uint64_t n_objects) const;
  double ObladiThroughput() const { return config_.obladi_peak_throughput; }
  double ObladiLatency() const { return config_.obladi_latency_s; }
  double RedisThroughput(uint32_t machines) const {
    return config_.redis_per_machine * machines;
  }

 private:
  double ThreadScale(int threads) const;
  // Hash-table geometry search is expensive; batch sizes are quantized to a log grid
  // and results memoized so the cluster simulator can call this per simulated epoch.
  uint64_t QuantizeBatch(uint64_t batch) const;
  const OhtParamsCacheEntry& CachedOhtParams(uint64_t batch) const;

  CostModelConfig config_;
  EpcModel epc_;
  mutable std::map<uint64_t, OhtParamsCacheEntry> oht_cache_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_SIM_COST_MODEL_H_
