#include "crypto/sealed_box.hpp"

#include <array>
#include <cstring>

#include "crypto/aes_gcm.hpp"
#include "crypto/sha256.hpp"

namespace tc::crypto {

namespace {

using SharedSecret = std::array<uint8_t, kX25519KeySize>;

/// X25519 Diffie-Hellman of a 32-byte secret and a 32-byte peer key. False
/// when the peer key has low order: the shared secret is then all zero,
/// whatever the secret (RFC 7748 §6.1).
bool Ecdh(SharedSecret& shared, const SecretBuffer& secret, BytesView peer) {
  X25519(shared, secret.secret_bytes().first<kX25519KeySize>(),
         peer.first<kX25519KeySize>());
  return !ConstantTimeEqual(shared, SharedSecret{});
}

/// KDF over the ECDH output, bound to both public keys to prevent
/// key-substitution confusion.
Key128 DeriveBoxKey(BytesView shared, BytesView eph_pub, BytesView rcpt_pub) {
  Bytes info;
  info.reserve(eph_pub.size() + rcpt_pub.size());
  Append(info, eph_pub);
  Append(info, rcpt_pub);
  Bytes okm = HkdfSha256(shared, ToBytes("timecrypt-sealed-box-v1"), info, 16);
  Key128 key;
  std::memcpy(key.secret_bytes().data(), okm.data(), 16);
  SecureZero(okm);
  return key;
}

}  // namespace

BoxKeyPair GenerateBoxKeyPair() {
  BoxKeyPair pair;
  pair.secret_key.resize(kX25519KeySize);
  RandomBytes(pair.secret_key.secret_bytes());
  pair.public_key = *BoxPublicKey(pair.secret_key);
  return pair;
}

Result<Bytes> SealToPublicKey(BytesView recipient_public, BytesView plaintext) {
  if (recipient_public.size() != kX25519KeySize) {
    return InvalidArgument("recipient public key must be 32 bytes");
  }
  // eph.secret_key is a SecretBuffer: scrubbed by its destructor.
  const BoxKeyPair eph = GenerateBoxKeyPair();
  Scrubbed<SharedSecret> shared;
  if (!Ecdh(shared, eph.secret_key, recipient_public)) {
    return InvalidArgument("recipient public key has low order");
  }
  Scrubbed<Key128> key = DeriveBoxKey(shared, eph.public_key, recipient_public);

  Bytes out = eph.public_key;
  GcmSealAppend(key, plaintext, {}, out);
  return out;
}

Result<Bytes> OpenSealed(const BoxKeyPair& recipient, BytesView sealed) {
  if (recipient.secret_key.size() != kX25519KeySize) {
    return InvalidArgument("recipient secret key must be 32 bytes");
  }
  if (sealed.size() < kX25519KeySize + kGcmNonceSize + kGcmTagSize) {
    return DataLoss("sealed box too short");
  }
  BytesView eph_pub = sealed.subspan(0, kX25519KeySize);
  BytesView body = sealed.subspan(kX25519KeySize);

  Scrubbed<SharedSecret> shared;
  if (!Ecdh(shared, recipient.secret_key, eph_pub)) {
    return DataLoss("sealed box's ephemeral key has low order");
  }
  Scrubbed<Key128> key = DeriveBoxKey(shared, eph_pub, recipient.public_key);
  return GcmOpen(key, body);
}

}  // namespace tc::crypto
