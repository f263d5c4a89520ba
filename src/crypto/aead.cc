#include "src/crypto/aead.h"

#include <algorithm>
#include <cstring>

#include "src/obl/primitives.h"
#include "src/obl/secret.h"

namespace snoopy {

namespace {

constexpr uint8_t kZeros[16] = {};

// The one-time Poly1305 key: the first 32 bytes of the keystream block at counter 0.
Poly1305 OneTimeMac(const ChaCha20& cipher) {
  std::array<uint8_t, ChaCha20::kBlockBytes> block;
  cipher.KeystreamBlock(0, block);
  return Poly1305(std::span<const uint8_t>(block.data(), Poly1305::kKeyBytes));
}

}  // namespace

// The MAC input is RFC 8439's aad || pad16 || ct || pad16 || len(aad) || len(ct); the
// payload keystream starts at counter 1.
Aead::Stream::Stream(const Aead& aead, const Nonce& nonce, std::span<const uint8_t> aad)
    : cipher_(std::span<const uint8_t>(aead.key_.data(), aead.key_.size()),
              std::span<const uint8_t>(nonce.data(), nonce.size()), 1),
      mac_(OneTimeMac(cipher_)),
      aad_len_(aad.size()) {
  mac_.Update(aad.data(), aad.size());
  if (aad.size() % 16 != 0) {
    mac_.Update(kZeros, 16 - aad.size() % 16);
  }
}

// Chunk boundaries sit at multiples of kChunkBytes of the message, wherever the
// pieces split it, so the vector paths of both halves run on whole chunks.
void Aead::Stream::Seal(const uint8_t* in, uint8_t* out, size_t len) {
  while (len > 0) {
    const size_t n = std::min(len, kChunkBytes - ct_len_ % kChunkBytes);
    cipher_.Crypt(in, out, n);
    mac_.Update(out, n);
    in += n;
    out += n;
    len -= n;
    ct_len_ += n;
  }
}

void Aead::Stream::Open(const uint8_t* in, uint8_t* out, size_t len) {
  while (len > 0) {
    const size_t n = std::min(len, kChunkBytes - ct_len_ % kChunkBytes);
    mac_.Update(in, n);
    cipher_.Crypt(in, out, n);
    in += n;
    out += n;
    len -= n;
    ct_len_ += n;
  }
}

Aead::Tag Aead::Stream::Finish() {
  if (ct_len_ % 16 != 0) {
    mac_.Update(kZeros, 16 - ct_len_ % 16);
  }
  uint8_t lens[16];
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<uint8_t>(aad_len_ >> (8 * i));
    lens[8 + i] = static_cast<uint8_t>(ct_len_ >> (8 * i));
  }
  mac_.Update(lens, 16);
  return mac_.Finalize();
}

std::vector<uint8_t> Aead::Seal(const Nonce& nonce, std::span<const uint8_t> aad,
                                std::span<const uint8_t> plaintext) const {
  std::vector<uint8_t> out(plaintext.size() + kTagBytes);
  Stream stream(*this, nonce, aad);
  stream.Seal(plaintext.data(), out.data(), plaintext.size());
  const Tag tag = stream.Finish();
  std::memcpy(out.data() + plaintext.size(), tag.data(), kTagBytes);
  return out;
}

Aead::Tag Aead::SealInPlace(const Nonce& nonce, std::span<const uint8_t> aad,
                            std::span<uint8_t> data) const {
  Stream stream(*this, nonce, aad);
  stream.Seal(data.data(), data.data(), data.size());
  return stream.Finish();
}

// SNOOPY_OBLIVIOUS_BEGIN(aead_open)
// ct-public: sealed kTagBytes ct_len
// ct-calls: Open Finish fill

// Decrypts while it authenticates, so the plaintext exists before the tag is
// checked. It never leaves this function unverified: on a bad tag it is zeroed and
// the output left empty.
bool Aead::Open(const Nonce& nonce, std::span<const uint8_t> aad, std::span<const uint8_t> sealed,
                std::vector<uint8_t>& plaintext_out) const {
  plaintext_out.clear();
  if (sealed.size() < kTagBytes) {
    return false;
  }
  const size_t ct_len = sealed.size() - kTagBytes;
  plaintext_out.resize(ct_len);
  Stream stream(*this, nonce, aad);
  stream.Open(sealed.data(), plaintext_out.data(), ct_len);
  const Tag expected = stream.Finish();
  // The comparison runs over the full tag regardless of where bytes differ; only the
  // accept/reject verdict leaves the taint domain (that bit is the function's output).
  const SecretBool tag_ok =
      SecretEqualBytes(expected.data(), sealed.data() + ct_len, kTagBytes);
  if (!tag_ok.Declassify("aead.tag_ok")) {
    std::fill(plaintext_out.begin(), plaintext_out.end(), uint8_t{0});
    plaintext_out.clear();
    return false;
  }
  return true;
}

// SNOOPY_OBLIVIOUS_END(aead_open)

Aead::Nonce Aead::CounterNonce(uint64_t counter, uint32_t channel) {
  Nonce n{};
  for (int i = 0; i < 8; ++i) {
    n[static_cast<size_t>(i)] = static_cast<uint8_t>(counter >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    n[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(channel >> (8 * i));
  }
  return n;
}

}  // namespace snoopy
