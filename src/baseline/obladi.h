// Obladi-style baseline (Crooks et al., OSDI'18; paper section 8.1): a *trusted proxy*
// that batches client requests (default batch size 500, the paper's configuration),
// deduplicates them, executes the distinct requests against a Ring ORAM at the storage
// server, and fans responses back out -- delayed visibility within a batch.
//
// The essential property for the scalability comparison: everything funnels through
// the one proxy, so adding machines cannot raise throughput ("Obladi ... cannot scale
// beyond a proxy and server machine"). The proxy here is plain code, not oblivious --
// exactly Obladi's trust model (Table 8: no hardware enclave, trusted proxy).

#ifndef SNOOPY_SRC_BASELINE_OBLADI_H_
#define SNOOPY_SRC_BASELINE_OBLADI_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/oram/ring_oram.h"

namespace snoopy {

struct ObladiConfig {
  uint64_t capacity = 0;
  size_t value_size = 160;
  uint32_t batch_size = 500;
};

class ObladiProxy {
 public:
  ObladiProxy(const ObladiConfig& config, uint64_t seed);

  void Initialize(const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& objects);

  struct Request {
    uint64_t client_seq = 0;
    uint64_t key = 0;
    bool is_write = false;
    std::vector<uint8_t> value;
  };
  struct Response {
    uint64_t client_seq = 0;
    uint64_t key = 0;
    std::vector<uint8_t> value;
  };

  void Submit(const Request& request);
  // Executes pending requests as full batches (plus a final partial batch if `flush`).
  // Reads observe the state at batch start; writes apply last-write-wins at batch end.
  std::vector<Response> ExecuteBatches(bool flush = true);

  uint64_t oram_accesses() const { return oram_.accesses(); }
  const RingOram& oram() const { return oram_; }

 private:
  std::vector<Response> ExecuteOne(std::vector<Request>&& batch);

  ObladiConfig config_;
  RingOram oram_;
  std::map<uint64_t, uint64_t> index_;  // key -> ORAM address (proxy metadata)
  uint64_t next_addr_ = 0;
  std::vector<Request> pending_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_BASELINE_OBLADI_H_
