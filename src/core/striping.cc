#include "src/core/striping.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/net/fault.h"

namespace snoopy {

namespace {

// --- Wire format ---------------------------------------------------------------------
// Host-level plaintext requests: op(1) owner(4) id(24) offset(8) len(8) digest(32),
// then the payload. Replies: a store is acknowledged with {1}; a manifest reply is
// present(1) id(24) chunk_len(8); a fetch reply is digest(32) then the bytes.
constexpr uint8_t kStripeStore = 0;
constexpr uint8_t kStripeManifest = 1;
constexpr uint8_t kStripeFetch = 2;
constexpr size_t kStripeHeaderBytes = 77;
constexpr size_t kStripeManifestReplyBytes = 33;
constexpr size_t kStripeDigestBytes = 32;

// The identity record's codec, used by the header (at byte 5) and the manifest reply
// (at byte 1): seal_counter(8) chunk_index(4) chunk_count(4) blob_len(8).
void PutStripeId(uint8_t* p, const StripeId& id) {
  std::memcpy(p, &id.seal_counter, 8);
  std::memcpy(p + 8, &id.chunk_index, 4);
  std::memcpy(p + 12, &id.chunk_count, 4);
  std::memcpy(p + 16, &id.blob_len, 8);
}

void GetStripeId(const uint8_t* p, StripeId& id) {
  std::memcpy(&id.seal_counter, p, 8);
  std::memcpy(&id.chunk_index, p + 8, 4);
  std::memcpy(&id.chunk_count, p + 12, 4);
  std::memcpy(&id.blob_len, p + 16, 8);
}

// `payload` is a view: into the sender's snapshot when encoding, into the received
// wire bytes when decoding.
struct StripeMsg : StripeId {
  uint8_t op = 0;
  uint32_t owner = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
  Sha256::Digest digest{};
  std::span<const uint8_t> payload;
};

// Header, then the payload, then `zero_pad` zero bytes (a parity-mode data chunk
// padded to the common chunk length), each written once.
std::vector<uint8_t> EncodeStripeMsg(const StripeMsg& m, size_t zero_pad = 0) {
  std::vector<uint8_t> out;
  out.reserve(kStripeHeaderBytes + m.payload.size() + zero_pad);
  out.resize(kStripeHeaderBytes);
  uint8_t* p = out.data();
  *p = m.op;
  std::memcpy(p + 1, &m.owner, 4);
  PutStripeId(p + 5, m);
  std::memcpy(p + 29, &m.offset, 8);
  std::memcpy(p + 37, &m.len, 8);
  std::memcpy(p + 45, m.digest.data(), kStripeDigestBytes);
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  out.resize(out.size() + zero_pad);
  return out;
}

StripeMsg DecodeStripeMsg(std::span<const uint8_t> bytes, const std::string& endpoint) {
  if (bytes.size() < kStripeHeaderBytes) {
    throw IntegrityError(endpoint);
  }
  StripeMsg m;
  const uint8_t* p = bytes.data();
  m.op = *p;
  std::memcpy(&m.owner, p + 1, 4);
  GetStripeId(p + 5, m);
  std::memcpy(&m.offset, p + 29, 8);
  std::memcpy(&m.len, p + 37, 8);
  std::memcpy(m.digest.data(), p + 45, kStripeDigestBytes);
  m.payload = bytes.subspan(kStripeHeaderBytes);
  return m;
}

// Digest over the addressing fields and `payload` followed by `zero_pad` zero bytes.
Sha256::Digest StripeDigest(uint32_t owner, uint64_t seal_counter, uint32_t chunk_index,
                            uint64_t offset, std::span<const uint8_t> payload,
                            size_t zero_pad = 0) {
  Sha256 h;
  uint8_t fields[24];
  std::memcpy(fields, &owner, 4);
  std::memcpy(fields + 4, &seal_counter, 8);
  std::memcpy(fields + 12, &chunk_index, 4);
  std::memcpy(fields + 16, &offset, 8);
  h.Update(fields, sizeof(fields));
  h.Update(payload);
  static constexpr uint8_t kZeros[Sha256::kBlockBytes] = {};
  while (zero_pad > 0) {
    const size_t n = std::min(zero_pad, sizeof(kZeros));
    h.Update(kZeros, n);
    zero_pad -= n;
  }
  return h.Finalize();
}

uint32_t StripePeerCount(const StripingConfig& sc) {
  return sc.replicas + (sc.xor_parity ? 1 : 0);
}

// Chunk c of a snapshot split into `chunk_len`-byte chunks; the last data chunk may
// be short (its zero padding exists only on the wire and in the digest).
std::span<const uint8_t> StripeChunk(std::span<const uint8_t> blob, uint32_t c,
                                     uint64_t chunk_len) {
  const uint64_t off = uint64_t{c} * chunk_len;
  if (off >= blob.size()) {
    return {};
  }
  return blob.subspan(static_cast<size_t>(off),
                      static_cast<size_t>(std::min<uint64_t>(chunk_len, blob.size() - off)));
}

// The plan for one seal generation, or nullopt if its manifests disagree on geometry
// or leave a hole the parity chunk cannot fill.
std::optional<RepairPlan> PlanGeneration(std::span<const StripeManifest> gen) {
  const StripeManifest& first = gen.front();
  const uint32_t count = first.chunk_count;
  if (count == 0 || first.chunk_len == 0) {
    return std::nullopt;
  }
  // source[c]: the first holder of data chunk c; source[count]: the last parity holder.
  std::vector<const StripeManifest*> source(count + 1, nullptr);
  for (const StripeManifest& m : gen) {
    if (m.chunk_count != count || m.blob_len != first.blob_len ||
        m.chunk_len != first.chunk_len || m.chunk_index > count) {
      return std::nullopt;
    }
    if (source[m.chunk_index] == nullptr || m.chunk_index == count) {
      source[m.chunk_index] = &m;
    }
  }
  RepairPlan plan;
  for (uint32_t c = 0; c < count; ++c) {
    if (source[c] == nullptr) {
      if (plan.parity_substituted >= 0 || source[count] == nullptr) {
        return std::nullopt;  // two holes, or one hole and no parity
      }
      plan.parity_substituted = static_cast<int>(c);
      source[c] = source[count];
    }
    plan.sources.push_back(*source[c]);
  }
  plan.buffers.assign(count, std::vector<uint8_t>(static_cast<size_t>(first.chunk_len), 0));
  return plan;
}

}  // namespace

void ValidateStriping(const StripingConfig& sc, uint32_t num_suborams) {
  if (sc.replicas == 0) {
    return;
  }
  if (num_suborams <= StripePeerCount(sc)) {
    throw std::invalid_argument(
        "striping needs num_suborams > replicas (+1 in parity mode): the stripes "
        "live on peer subORAMs");
  }
  if (sc.repair_epochs == 0) {
    throw std::invalid_argument("striping.repair_epochs must be positive");
  }
}

std::vector<uint32_t> StripePeers(const StripingConfig& sc, uint32_t num_suborams,
                                  uint32_t owner) {
  const uint32_t count = StripePeerCount(sc);
  std::vector<uint32_t> peers;
  peers.reserve(count);
  for (uint32_t i = 1; peers.size() < count; ++i) {
    peers.push_back((owner + i) % num_suborams);
  }
  return peers;
}

StripeGeometry StripeGeometryOf(const StripingConfig& sc, uint64_t blob_len) {
  StripeGeometry g;
  g.chunk_count = sc.xor_parity ? sc.replicas : 1;
  // Written so it cannot wrap: blob_len may come from a host-supplied manifest.
  g.chunk_len = g.chunk_count == 0
                    ? 0
                    : blob_len / g.chunk_count + (blob_len % g.chunk_count != 0 ? 1 : 0);
  return g;
}

StripeEncoding EncodeStripes(const StripingConfig& sc, uint32_t owner, uint64_t seal_counter,
                             std::span<const uint8_t> blob) {
  StripeEncoding enc;
  if (sc.replicas == 0 || blob.empty()) {
    return enc;
  }
  enc.seal_counter = seal_counter;
  if (!sc.xor_parity) {
    enc.digests.push_back(StripeDigest(owner, seal_counter, 0, 0, blob));
    return enc;
  }
  // Parity mode: zero-padded equal-size data chunks plus their XOR, which goes to the
  // extra peer as chunk index chunk_count.
  const StripeGeometry g = StripeGeometryOf(sc, blob.size());
  enc.parity.assign(static_cast<size_t>(g.chunk_len), 0);
  for (uint32_t c = 0; c < g.chunk_count; ++c) {
    const std::span<const uint8_t> chunk = StripeChunk(blob, c, g.chunk_len);
    enc.digests.push_back(StripeDigest(owner, seal_counter, c, 0, chunk,
                                       static_cast<size_t>(g.chunk_len) - chunk.size()));
    for (size_t j = 0; j < chunk.size(); ++j) {
      enc.parity[j] ^= chunk[j];
    }
  }
  enc.digests.push_back(StripeDigest(owner, seal_counter, g.chunk_count, 0, enc.parity));
  return enc;
}

std::vector<uint8_t> EncodeStripeStore(const StripingConfig& sc, uint32_t owner,
                                       std::span<const uint8_t> blob,
                                       const StripeEncoding& enc, size_t rank) {
  const StripeGeometry g = StripeGeometryOf(sc, blob.size());
  StripeMsg m;
  m.op = kStripeStore;
  m.owner = owner;
  m.seal_counter = enc.seal_counter;
  m.chunk_index = sc.xor_parity ? static_cast<uint32_t>(rank) : 0;
  m.chunk_count = g.chunk_count;
  m.blob_len = blob.size();
  m.digest = enc.digests[m.chunk_index];
  size_t zero_pad = 0;
  if (!sc.xor_parity) {
    m.payload = blob;
  } else if (m.chunk_index == g.chunk_count) {
    m.payload = enc.parity;
  } else {
    m.payload = StripeChunk(blob, m.chunk_index, g.chunk_len);
    zero_pad = static_cast<size_t>(g.chunk_len) - m.payload.size();
  }
  return EncodeStripeMsg(m, zero_pad);
}

std::vector<uint8_t> EncodeStripeManifestQuery(uint32_t owner) {
  StripeMsg q;
  q.op = kStripeManifest;
  q.owner = owner;
  return EncodeStripeMsg(q);
}

std::vector<uint8_t> EncodeStripeFetch(uint32_t owner, uint64_t seal_counter,
                                       uint32_t chunk_index, uint64_t offset, uint64_t len) {
  StripeMsg q;
  q.op = kStripeFetch;
  q.owner = owner;
  q.seal_counter = seal_counter;
  q.chunk_index = chunk_index;
  q.offset = offset;
  q.len = len;
  return EncodeStripeMsg(q);
}

std::vector<uint8_t> ServeStripeRequest(StripeStore& store, std::span<const uint8_t> request,
                                        const std::string& endpoint) {
  const StripeMsg m = DecodeStripeMsg(request, endpoint);
  switch (m.op) {
    case kStripeStore: {
      if (m.digest != StripeDigest(m.owner, m.seal_counter, m.chunk_index, 0, m.payload)) {
        throw IntegrityError(endpoint);  // corrupted in flight; the owner retries
      }
      HostStripe s;
      static_cast<StripeId&>(s) = m;
      s.payload.assign(m.payload.begin(), m.payload.end());
      store[m.owner] = std::move(s);  // latest seal wins; a re-store is idempotent
      return {1};
    }
    case kStripeManifest: {
      std::vector<uint8_t> out(kStripeManifestReplyBytes, 0);
      const auto it = store.find(m.owner);
      if (it != store.end()) {
        const uint64_t chunk_len = it->second.payload.size();
        out[0] = 1;
        PutStripeId(out.data() + 1, it->second);
        std::memcpy(out.data() + 25, &chunk_len, 8);
      }
      return out;
    }
    case kStripeFetch: {
      const auto it = store.find(m.owner);
      // Range check in a form that cannot wrap: offset and len are 64-bit wire
      // fields, and `offset + len > size` passes for offset near 2^64.
      if (it == store.end() || it->second.seal_counter != m.seal_counter ||
          it->second.chunk_index != m.chunk_index ||
          m.offset > it->second.payload.size() ||
          m.len > it->second.payload.size() - m.offset) {
        // Addressing mismatch (stale manifest or corrupted request): retried, and the
        // repair coordinator replans from fresh manifests if it keeps failing.
        throw IntegrityError(endpoint);
      }
      const std::span<const uint8_t> slice(it->second.payload.data() + m.offset,
                                           static_cast<size_t>(m.len));
      const Sha256::Digest d =
          StripeDigest(m.owner, m.seal_counter, m.chunk_index, m.offset, slice);
      std::vector<uint8_t> out(d.begin(), d.end());
      out.insert(out.end(), slice.begin(), slice.end());
      return out;
    }
    default:
      throw IntegrityError(endpoint);
  }
}

void CheckStripeReply(std::span<const uint8_t> request, std::span<const uint8_t> reply,
                      const std::string& endpoint) {
  if (request.empty() || request[0] != kStripeFetch) {
    return;
  }
  const StripeMsg req = DecodeStripeMsg(request, endpoint);
  // Compared by subtraction: `kStripeDigestBytes + req.len` wraps for len near 2^64.
  if (reply.size() < kStripeDigestBytes || reply.size() - kStripeDigestBytes != req.len) {
    throw IntegrityError(endpoint);
  }
  const Sha256::Digest d = StripeDigest(req.owner, req.seal_counter, req.chunk_index,
                                        req.offset, StripeFetchPayload(reply));
  if (!std::equal(d.begin(), d.end(), reply.begin())) {
    throw IntegrityError(endpoint);
  }
}

std::span<const uint8_t> StripeFetchPayload(std::span<const uint8_t> reply) {
  return reply.subspan(kStripeDigestBytes);
}

std::optional<StripeManifest> DecodeStripeManifest(const StripingConfig& sc, uint32_t peer,
                                                   std::span<const uint8_t> reply) {
  if (reply.size() != kStripeManifestReplyBytes || reply[0] == 0) {
    return std::nullopt;
  }
  StripeManifest man;
  man.peer = peer;
  GetStripeId(reply.data() + 1, man);
  std::memcpy(&man.chunk_len, reply.data() + 25, 8);
  const StripeGeometry g = StripeGeometryOf(sc, man.blob_len);
  if (man.chunk_count != g.chunk_count || man.chunk_index > g.chunk_count ||
      man.chunk_len != g.chunk_len) {
    return std::nullopt;
  }
  return man;
}

std::optional<RepairPlan> PlanStripeRepair(std::span<const StripeManifest> manifests) {
  // Freshest generation first; the sort is stable, so a generation keeps peer order.
  std::vector<StripeManifest> sorted(manifests.begin(), manifests.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.seal_counter > b.seal_counter;
  });
  for (size_t begin = 0, end = 0; begin < sorted.size(); begin = end) {
    while (end < sorted.size() && sorted[end].seal_counter == sorted[begin].seal_counter) {
      ++end;
    }
    if (auto plan = PlanGeneration(std::span(sorted).subspan(begin, end - begin))) {
      return plan;
    }
  }
  return std::nullopt;
}

std::vector<uint8_t> ReassembleSnapshot(RepairPlan& plan) {
  std::vector<std::vector<uint8_t>>& chunks = plan.buffers;
  if (plan.parity_substituted >= 0) {
    // The XOR of every fetched chunk, the parity chunk included, is the missing one.
    std::vector<uint8_t> missing(static_cast<size_t>(plan.chunk_len()), 0);
    for (const std::vector<uint8_t>& chunk : chunks) {
      for (size_t j = 0; j < missing.size(); ++j) {
        missing[j] ^= chunk[j];
      }
    }
    chunks[static_cast<size_t>(plan.parity_substituted)] = std::move(missing);
  }
  const uint64_t blob_len = plan.sources.front().blob_len;
  std::vector<uint8_t> blob;
  blob.reserve(static_cast<size_t>(blob_len));
  for (const std::vector<uint8_t>& chunk : chunks) {
    blob.insert(blob.end(), chunk.begin(), chunk.end());
  }
  blob.resize(static_cast<size_t>(blob_len));  // strip chunk padding
  return blob;
}

}  // namespace snoopy
