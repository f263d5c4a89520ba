// Redundant sealed-state striping and repair planning (paper section 9): at every
// epoch seal each subORAM's counter-bound sealed snapshot is striped to peer subORAMs,
// and a permanently lost partition is rebuilt on a spare node from the surviving
// stripes over a fixed, public number of epochs (the repair rate depends on snapshot
// geometry only, never on the request pattern -- Cloak's fixed-schedule argument).
//
// This module alone knows the stripe wire format and geometry, and runs the repair
// (StripeRepair: plan, per-epoch fetch, reassembly) with no I/O and no deployment: its
// stripe exchanges go through a call the caller binds. Snoopy keeps the transport:
// peer health, retries with crash recovery and the restore.

#ifndef SNOOPY_SRC_CORE_STRIPING_H_
#define SNOOPY_SRC_CORE_STRIPING_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"

namespace snoopy {

struct StripingConfig {
  // Peer count holding redundant state per partition. 0 disables striping: a
  // permanently lost partition is then unrecoverable and RunEpoch throws.
  // Replication mode (xor_parity = false): each of the `replicas` successor peers
  // holds a full copy of the sealed snapshot (storage overhead = replicas).
  // Parity mode (xor_parity = true): the snapshot splits into `replicas` data chunks
  // on `replicas` peers plus one XOR parity chunk on a further peer (storage
  // overhead = 1/replicas; survives any single peer loss).
  uint32_t replicas = 0;
  bool xor_parity = false;
  // Public repair schedule: a lost partition is reconstructed over exactly this many
  // epochs, one fixed-size slice per epoch (slice size = total stripe bytes /
  // repair_epochs, a public function of the snapshot size).
  uint32_t repair_epochs = 4;
};

// Throws std::invalid_argument unless a deployment `num_suborams` wide can hold the
// stripes: num_suborams > replicas (+1 in parity mode), and repair_epochs > 0.
void ValidateStriping(const StripingConfig& sc, uint32_t num_suborams);

// The successor peers holding `owner`'s stripes: `replicas`, plus one for the parity
// chunk in parity mode, where the peer at rank i holds chunk i.
std::vector<uint32_t> StripePeers(const StripingConfig& sc, uint32_t num_suborams,
                                  uint32_t owner);

// The one geometry rule: a `blob_len`-byte snapshot splits into chunk_count data
// chunks (replicas in parity mode, else 1) of ceil(blob_len / chunk_count) bytes, the
// last one zero-padded; chunk index chunk_count is the parity chunk.
struct StripeGeometry {
  uint32_t chunk_count = 0;
  uint64_t chunk_len = 0;
};
StripeGeometry StripeGeometryOf(const StripingConfig& sc, uint64_t blob_len);

// Chunk `chunk_index` of `chunk_count` of a `blob_len`-byte snapshot sealed at
// counter value `seal_counter`: shared by host store, wire header, manifest and plan.
struct StripeId {
  uint64_t seal_counter = 0;
  uint32_t chunk_index = 0;
  uint32_t chunk_count = 0;
  uint64_t blob_len = 0;
};

// What a peer's (untrusted) host keeps for one owner.
struct HostStripe : StripeId {
  std::vector<uint8_t> payload;
};
using StripeStore = std::map<uint32_t, HostStripe>;  // owner -> stripe held

// --- Owner side ------------------------------------------------------------------------
// What `owner` pushes for its sealed snapshot, computed inside the pooled seal task:
// the digest of every distinct chunk (one copy in replication mode; each data chunk
// and the parity chunk in parity mode), the parity chunk, and, in parity mode, a
// zero-padded copy of each data chunk shorter than the chunk length (the snapshot's
// tail). Every other data chunk is a slice of the snapshot, never copied. Empty
// `digests`: nothing to push.
struct StripeEncoding {
  uint64_t seal_counter = 0;
  std::vector<Sha256::Digest> digests;  // indexed by chunk index
  std::vector<uint8_t> parity;
  std::vector<std::vector<uint8_t>> padded;  // by data chunk index; empty if not short
};
StripeEncoding EncodeStripes(const StripingConfig& sc, uint32_t owner, uint64_t seal_counter,
                             std::span<const uint8_t> blob);

// Every request starts with this fixed header (layout in striping.cc).
inline constexpr size_t kStripeHeaderBytes = 77;

// The store request for the peer at `rank` in StripePeers, in the two parts of one
// gathered Network::Call: the header, encoded on its own, and the payload, a view into
// the snapshot or the encoding. The request is header ++ payload; no frame joins them.
struct StripeStoreFrame {
  std::array<uint8_t, kStripeHeaderBytes> header{};
  std::span<const uint8_t> payload;

  size_t size() const { return header.size() + payload.size(); }
};
StripeStoreFrame EncodeStripeStore(const StripingConfig& sc, uint32_t owner,
                                   std::span<const uint8_t> blob, const StripeEncoding& enc,
                                   size_t rank);
// Requests without a payload: the manifest query, and the fetch of bytes
// [offset, offset + len) of a stored chunk.
std::vector<uint8_t> EncodeStripeManifestQuery(uint32_t owner);
std::vector<uint8_t> EncodeStripeFetch(uint32_t owner, uint64_t seal_counter,
                                       uint32_t chunk_index, uint64_t offset, uint64_t len);

// --- Host side -------------------------------------------------------------------------
// Serves one request against a peer host's store. Requests carry a 77-byte header
// whose SHA-256 digest over the addressing fields and payload catches corruption in
// flight: a short, corrupted or mis-addressed request throws IntegrityError(endpoint),
// which the retry loop treats like any transient fault. Payloads are sealed snapshots,
// so confidentiality and rollback protection come from the sealing layer.
//
// The request is head ++ body, split anywhere (a gathered call splits it after the
// header; the header itself may straddle the split). A store is checked against its
// digest where it lies and only then copied, once, into the owner's held stripe. A
// contiguous request is the head with an empty body.
std::vector<uint8_t> ServeStripeRequest(StripeStore& store, std::span<const uint8_t> head,
                                        std::span<const uint8_t> body,
                                        const std::string& endpoint);

// Runs inside the retried call: a fetch reply must carry exactly the requested length
// under a matching digest, else IntegrityError(endpoint). Other replies pass.
void CheckStripeReply(std::span<const uint8_t> request, std::span<const uint8_t> reply,
                      const std::string& endpoint);
// The fetched bytes of a checked fetch reply.
std::span<const uint8_t> StripeFetchPayload(std::span<const uint8_t> reply);

// --- Repair ----------------------------------------------------------------------------
// One peer's manifest: the identity and length of the chunk it holds.
struct StripeManifest : StripeId {
  uint32_t peer = 0;
  uint64_t chunk_len = 0;
};
// Decodes `peer`'s host-supplied 33-byte manifest reply: nullopt for an absent stripe,
// a malformed reply, geometry the config could not have produced, or a snapshot longer
// than `max_blob_len`, the owner's last sealed snapshot size (public: its host stored
// exactly that many bytes). The bound keeps one lying host from sizing the repair.
std::optional<StripeManifest> DecodeStripeManifest(const StripingConfig& sc, uint32_t peer,
                                                   std::span<const uint8_t> reply,
                                                   uint64_t max_blob_len);

// sources[c] supplies data chunk c (the parity chunk stands in for data chunk
// `parity_substituted`, -1 if none); the repair fetches each source's chunk into its
// zeroed chunk_len buffer.
struct RepairPlan {
  std::vector<StripeManifest> sources;
  int parity_substituted = -1;
  std::vector<std::vector<uint8_t>> buffers;

  uint64_t chunk_len() const { return sources.front().chunk_len; }
  uint64_t total_bytes() const { return chunk_len() * sources.size(); }
};
// Plans from the freshest seal generation that reconstructs (one full copy, or
// chunk_count of the chunk_count + 1 parity-mode chunks), skipping generations whose
// manifests disagree on geometry (host tampering). nullopt when none does.
std::optional<RepairPlan> PlanStripeRepair(std::span<const StripeManifest> manifests);
// The snapshot of a fully fetched plan: XORs the substituted data chunk back (parity ^
// the other data chunks) and strips the padding. The plan is left as it was, so a
// refused restore sees the same bytes again at its next attempt.
std::vector<uint8_t> ReassembleSnapshot(const RepairPlan& plan);

// One lost partition's rebuild on the public schedule: exactly sc.repair_epochs steps,
// each fetching ceil(total stripe bytes / repair_epochs) bytes (the last fewer), so
// the repair rate depends on snapshot geometry alone, never on the request pattern.
class StripeRepair {
 public:
  // One stripe exchange with `peer`: a reply CheckStripeReply accepted, or NetworkError.
  using Call =
      std::function<std::vector<uint8_t>(uint32_t peer, std::span<const uint8_t> request)>;

  // `max_blob_len`: the owner's sealed snapshot size at the loss, which bounds the
  // manifests (DecodeStripeManifest). `sc` has passed ValidateStriping.
  StripeRepair(const StripingConfig& sc, uint32_t owner, uint64_t max_blob_len);

  uint32_t epochs_remaining() const { return epochs_remaining_; }
  const std::optional<RepairPlan>& plan() const { return plan_; }

  // Plans from the reachable peers' manifests (a peer whose call throws NetworkError
  // is planned around) and restarts the window: full countdown, fetching from offset
  // 0. Throws std::runtime_error, unplanned, when no complete stripe set survives.
  void Plan(const std::vector<uint32_t>& reachable_peers, const Call& call);
  // Fetches one epoch's slice and counts the epoch down; once the window ends, returns
  // the reassembled snapshot, on this and every later step. Needs a plan. A throwing
  // call propagates with the epoch not counted; the caller replans.
  std::optional<std::vector<uint8_t>> Step(const Call& call);

 private:
  StripingConfig sc_;
  uint32_t owner_;
  uint64_t max_blob_len_;
  uint32_t epochs_remaining_;
  std::optional<RepairPlan> plan_;
  uint64_t cursor_ = 0;  // bytes of the plan's buffers fetched, in chunk order
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_STRIPING_H_
