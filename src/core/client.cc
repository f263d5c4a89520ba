#include "src/core/client.h"

#include <cstring>
#include <stdexcept>

namespace snoopy {

SnoopyClient::SnoopyClient(Snoopy& deployment, uint64_t client_id, uint64_t seed)
    : deployment_(deployment), client_id_(client_id), rng_(seed) {
  identity_ = std::make_unique<Enclave>("snoopy-client", client_id);
  // Mutual attestation: the client verifies every load balancer's quote, and the
  // deployment verifies the client's before provisioning channels.
  for (uint32_t lb = 0; lb < deployment_.config().num_load_balancers; ++lb) {
    if (!AttestationService::Verify(deployment_.lb_quote(lb))) {
      throw std::runtime_error("load balancer attestation failed");
    }
  }
  deployment_.RegisterClient(client_id_, identity_->quote());
}

uint64_t SnoopyClient::Submit(uint64_t key, uint8_t op, std::span<const uint8_t> value) {
  const auto lb =
      static_cast<uint32_t>(rng_.Uniform(deployment_.config().num_load_balancers));
  RequestBatch one(deployment_.config().value_size);
  RequestHeader h;
  h.key = key;
  h.op = op;
  h.client_id = client_id_;
  h.client_seq = next_seq_++;
  one.Append(h, value);

  const std::vector<uint8_t> sealed =
      deployment_.client_link(client_id_, lb).a_to_b().Seal(one.Serialize());
  const std::vector<uint8_t> ack = deployment_.network_mutable().Call(
      "client/" + std::to_string(client_id_),
      "lb/" + std::to_string(lb) + "/client/" + std::to_string(client_id_), sealed);
  if (ack.empty() || ack[0] != 1) {
    throw std::runtime_error("load balancer did not acknowledge the request");
  }
  return h.client_seq;
}

uint64_t SnoopyClient::Read(uint64_t key) { return Submit(key, kOpRead, {}); }

uint64_t SnoopyClient::Write(uint64_t key, std::span<const uint8_t> value) {
  return Submit(key, kOpWrite, value);
}

std::vector<SnoopyClient::Response> SnoopyClient::FetchResponses() {
  std::vector<Response> out;
  for (const std::vector<uint8_t>& blob : deployment_.TakeMailbox(client_id_)) {
    // The mailbox is host storage, so the balancer id is untrusted plaintext: it picks
    // one of this client's links only once it is known to name a balancer.
    uint32_t lb = 0;
    if (blob.size() >= 4) {
      std::memcpy(&lb, blob.data(), 4);
    }
    if (blob.size() < 4 || lb >= deployment_.config().num_load_balancers) {
      throw std::runtime_error("malformed mailbox entry");
    }
    std::vector<uint8_t> plain;
    if (!deployment_.client_link(client_id_, lb)
             .b_to_a()
             .Open(std::span<const uint8_t>(blob.data() + 4, blob.size() - 4), plain)) {
      throw std::runtime_error("response failed authentication");
    }
    RequestBatch one = RequestBatch::Deserialize(plain);
    for (size_t i = 0; i < one.size(); ++i) {
      Response resp;
      resp.client_seq = one.Header(i).client_seq;
      resp.key = one.Header(i).key;
      resp.value.assign(one.Value(i), one.Value(i) + one.value_size());
      out.push_back(std::move(resp));
    }
  }
  return out;
}

}  // namespace snoopy
