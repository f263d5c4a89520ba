// Rollback protection (paper section 9).
//
// Enclaves seal state to untrusted storage across restarts; a malicious host can
// replay an *older* sealed blob ("rollback attack"). The paper proposes the standard
// defense: bind every sealed snapshot to a trusted monotonic counter (SGX counters or
// a ROTE-style quorum) and refuse snapshots whose embedded counter is stale. Snoopy
// only needs one counter bump per epoch, so the (slow) counter is off the hot path.
//
// MonotonicCounterService simulates the trusted counter provider; SealedStore produces
// AEAD-sealed, counter-bound snapshots and classifies restore attempts as fresh,
// rolled-back, or corrupted. SubOram integrates via SealStateInto/RestoreState.

#ifndef SNOOPY_SRC_ENCLAVE_ROLLBACK_H_
#define SNOOPY_SRC_ENCLAVE_ROLLBACK_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/crypto/aead.h"

namespace snoopy {

// Stand-in for SGX monotonic counters / a ROTE quorum: strictly increasing counters
// that the untrusted host cannot wind back.
//
// Concurrency: Increment and Read touch only their own counter's slot, so calls on
// distinct ids may run concurrently (the pooled epoch-boundary seal does exactly
// that, one subORAM counter per task). Create reallocates and must not overlap any
// other call.
class MonotonicCounterService {
 public:
  // Creates a counter starting at 0 and returns its id.
  uint64_t Create();
  uint64_t Increment(uint64_t id);
  uint64_t Read(uint64_t id) const;

 private:
  std::vector<uint64_t> counters_;
};

enum class UnsealStatus {
  kOk,        // authentic and fresh
  kRollback,  // authentic but bound to a stale counter value: replay attack
  kCorrupt,   // failed authentication
};

// Stable names for error messages and test output.
const char* UnsealStatusName(UnsealStatus status);

// Surfaced (never swallowed) when restore-after-crash is handed a superseded or
// tampered snapshot: the host is mounting a rollback attack, and serving requests
// from stale state would break linearizability, so the component refuses to start.
class RollbackDetectedError : public std::runtime_error {
 public:
  RollbackDetectedError(const std::string& component, UnsealStatus status)
      : std::runtime_error("refusing to restore " + component + ": snapshot is " +
                           UnsealStatusName(status)),
        status_(status) {}

  UnsealStatus status() const { return status_; }

 private:
  UnsealStatus status_;
};

// Sealed blob layout: version(8) | AEAD ciphertext of the payload | tag(16). The
// version is both the AAD and the nonce, so a blob cannot be re-labelled with a
// different version without failing authentication.
//
// Concurrency: Seal/SealInPlace on *distinct* counter ids are safe to run
// concurrently -- each bumps only its own counter (see MonotonicCounterService) and
// the AEAD is const. Two seals on the same id must not overlap.
class SealedStore {
 public:
  static constexpr size_t kVersionBytes = 8;
  // Blob bytes beyond the payload: the version prefix and the AEAD tag.
  static constexpr size_t kOverheadBytes = kVersionBytes + Aead::kTagBytes;

  SealedStore(const Aead::Key& sealing_key, MonotonicCounterService* counters)
      : aead_(sealing_key), counters_(counters) {}

  // Seals `payload`, bumping the counter so this snapshot supersedes all others.
  std::vector<uint8_t> Seal(uint64_t counter_id, std::span<const uint8_t> payload);

  // The same seal without copies: `blob` holds kOverheadBytes + payload bytes, with
  // the payload already written at offset kVersionBytes. Bumps the counter, writes
  // the version, encrypts the payload in place and appends the tag.
  void SealInPlace(uint64_t counter_id, std::span<uint8_t> blob);

  // Verifies and decrypts a snapshot; detects replays of superseded snapshots.
  UnsealStatus Unseal(uint64_t counter_id, std::span<const uint8_t> blob,
                      std::vector<uint8_t>* payload_out) const;

 private:
  Aead aead_;
  MonotonicCounterService* counters_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_ENCLAVE_ROLLBACK_H_
