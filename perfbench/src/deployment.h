// Drives the functional deployment (Snoopy + SnoopyClient, default SubOram backend)
// with a generated workload, checks every response against the reference model,
// and measures what a user sees (end-to-end run) or what each layer costs (traced
// run).

#ifndef PERFBENCH_SRC_DEPLOYMENT_H_
#define PERFBENCH_SRC_DEPLOYMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workload.h"
#include "src/core/client.h"
#include "src/core/snoopy.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

// Every workload runs the epoch pipeline on 4 pool threads (the host's core count),
// discards its first epochs as warmup, and repeats set-up at least this often.
inline constexpr int kEpochThreads = 4;
inline constexpr size_t kWarmupEpochs = 2;
inline constexpr size_t kMinSetupReps = 5;
// The measured window is cut into this many equal slices by epoch start time. Each
// end-to-end timing is the median over the slices, so a burst of interference on a
// shared host that covers one slice does not move it.
inline constexpr size_t kSlices = 5;

// One epoch as the callers saw it.
struct EpochRecord {
  std::vector<Op> ops;          // what was submitted, in submission order
  size_t failed = 0;            // missing, mismatched or unexpected responses
  size_t completed = 0;         // responses received that matched the reference
  size_t converted_writes = 0;  // open loop: second writes to a key sent as reads
  double start_s = 0;           // first submission
  double run_start_s = 0;       // Snoopy::RunEpoch called
  double run_end_s = 0;         // Snoopy::RunEpoch returned
  std::vector<double> latency_ms;  // per response: submit (or due) -> held
  std::vector<double> submit_us;   // per request: the submit call
  std::vector<double> fetch_us;    // per response: taking it from the deployment
  std::vector<double> wait_ms;     // per request: submit (or due) -> RunEpoch start
};

class Harness {
 public:
  Harness(const WorkloadSpec& spec, uint64_t seed);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // (Re)builds the deployment: construct, Initialize, attest client sessions. The
  // reference model and request schedule restart with it. Returns the seconds taken.
  double Setup();
  // Submits one epoch of generated requests, runs the epoch, collects and checks
  // every response.
  EpochRecord RunEpoch();

  // Test hook: corrupt the next `n` response values before they are checked.
  void PlantWrongResponses(size_t n) { plant_ = n; }

  snoopy::Snoopy& snoopy() { return *snoopy_; }
  snoopy::MetricsRegistry& registry() { return *registry_; }
  // Host-side sealed snapshots plus stripe payloads, in bytes.
  uint64_t StoredBytes() const;

 private:
  EpochRecord RunClosedLoopEpoch();
  EpochRecord RunOpenLoopEpoch();
  // Decodes a response value, applying a planted corruption if one is pending.
  uint64_t ObservedTag(std::vector<uint8_t>& value);

  const WorkloadSpec spec_;
  const uint64_t seed_;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects_;
  std::unique_ptr<snoopy::MetricsRegistry> registry_;
  std::unique_ptr<snoopy::Snoopy> snoopy_;
  std::vector<std::unique_ptr<snoopy::SnoopyClient>> clients_;
  std::unique_ptr<ReferenceModel> reference_;
  uint64_t epoch_ = 0;
  // Open loop: the arrival schedule, anchored to wall time at the first epoch.
  std::unique_ptr<ArrivalStream> arrivals_;
  Op next_arrival_;
  double schedule_start_s_ = -1;
  size_t plant_ = 0;
};

// End-to-end metrics, tracing off.
struct EndToEndReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t epochs = 0;           // measured (after warmup)
  size_t requests = 0;         // latency samples in the measured epochs
  size_t slices = 0;           // slices that held at least one epoch
  size_t min_beyond_p90 = 0;   // fewest samples above a slice's p90
  double epoch_requests = 0;   // mean requests per epoch
  // Medians over the slices.
  double throughput_rps = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  double stored_bytes_per_user_byte = 0;
  size_t converted_writes = 0;
  double submit_wait_ms = 0;  // open loop: median due -> submission
};
EndToEndReport RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds,
                           size_t plant_wrong = 0);

// Per-layer metrics from a traced run of the deployment plus the lane replay.
struct LayerReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  // per-layer metric name -> median value
  std::map<std::string, double> layers;   // dominance candidates: ms of epoch wall time
  std::string predicted;                  // the layer the workload should be dominated by
  std::string dominant;                   // the largest candidate measured
  bool dominant_ok = false;
  size_t traced_epochs = 0;
  size_t lane_epochs = 0;
};
LayerReport RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DEPLOYMENT_H_
