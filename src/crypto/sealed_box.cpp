#include "crypto/sealed_box.hpp"

#include <openssl/evp.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "crypto/aes_gcm.hpp"
#include "crypto/sha256.hpp"

namespace tc::crypto {

namespace {

[[noreturn]] void FatalOpenSsl(const char* what) {
  std::fprintf(stderr, "fatal: OpenSSL %s failed\n", what);
  std::abort();
}

struct PkeyDeleter {
  void operator()(EVP_PKEY* p) const { EVP_PKEY_free(p); }
};
using PkeyPtr = std::unique_ptr<EVP_PKEY, PkeyDeleter>;

struct CtxDeleter {
  void operator()(EVP_PKEY_CTX* p) const { EVP_PKEY_CTX_free(p); }
};
using CtxPtr = std::unique_ptr<EVP_PKEY_CTX, CtxDeleter>;

PkeyPtr LoadPublic(BytesView raw) {
  return PkeyPtr(EVP_PKEY_new_raw_public_key(EVP_PKEY_X25519, nullptr,
                                             raw.data(), raw.size()));
}

PkeyPtr LoadSecret(const SecretBuffer& secret) {
  BytesView raw = secret.secret_bytes();
  return PkeyPtr(EVP_PKEY_new_raw_private_key(EVP_PKEY_X25519, nullptr,
                                              raw.data(), raw.size()));
}

Result<Bytes> Ecdh(EVP_PKEY* secret, EVP_PKEY* peer_public) {
  CtxPtr ctx(EVP_PKEY_CTX_new(secret, nullptr));
  if (!ctx || EVP_PKEY_derive_init(ctx.get()) != 1 ||
      EVP_PKEY_derive_set_peer(ctx.get(), peer_public) != 1) {
    return Internal("X25519 derive init failed");
  }
  size_t len = 0;
  if (EVP_PKEY_derive(ctx.get(), nullptr, &len) != 1) {
    return Internal("X25519 derive length failed");
  }
  Bytes shared(len);
  if (EVP_PKEY_derive(ctx.get(), shared.data(), &len) != 1) {
    return Internal("X25519 derive failed");
  }
  shared.resize(len);
  return shared;
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
  CtxPtr ctx(EVP_PKEY_CTX_new_id(EVP_PKEY_X25519, nullptr));
  EVP_PKEY* raw = nullptr;
  if (!ctx || EVP_PKEY_keygen_init(ctx.get()) != 1 ||
      EVP_PKEY_keygen(ctx.get(), &raw) != 1) {
    FatalOpenSsl("X25519 keygen");
  }
  PkeyPtr pkey(raw);
  BoxKeyPair pair;
  size_t len = kX25519KeySize;
  pair.public_key.resize(len);
  if (EVP_PKEY_get_raw_public_key(pkey.get(), pair.public_key.data(), &len) !=
      1) {
    FatalOpenSsl("get_raw_public_key");
  }
  len = kX25519KeySize;
  pair.secret_key.resize(len);
  if (EVP_PKEY_get_raw_private_key(
          pkey.get(), pair.secret_key.secret_bytes().data(), &len) != 1) {
    FatalOpenSsl("get_raw_private_key");
  }
  return pair;
}

Result<Bytes> SealToPublicKey(BytesView recipient_public, BytesView plaintext) {
  if (recipient_public.size() != kX25519KeySize) {
    return InvalidArgument("recipient public key must be 32 bytes");
  }
  PkeyPtr rcpt = LoadPublic(recipient_public);
  if (!rcpt) return InvalidArgument("malformed recipient public key");

  BoxKeyPair eph = GenerateBoxKeyPair();
  PkeyPtr eph_secret = LoadSecret(eph.secret_key);
  if (!eph_secret) return Internal("ephemeral key load failed");

  TC_ASSIGN_OR_RETURN(Bytes shared, Ecdh(eph_secret.get(), rcpt.get()));
  Key128 key = DeriveBoxKey(shared, eph.public_key, recipient_public);
  SecureZero(shared);

  Bytes out = eph.public_key;
  Bytes sealed = GcmSeal(key, plaintext);
  Append(out, sealed);
  SecureZero(key);
  // eph.secret_key is a SecretBuffer: scrubbed by its destructor here.
  return out;
}

Result<Bytes> OpenSealed(const BoxKeyPair& recipient, BytesView sealed) {
  if (sealed.size() < kX25519KeySize + kGcmNonceSize + kGcmTagSize) {
    return DataLoss("sealed box too short");
  }
  BytesView eph_pub = sealed.subspan(0, kX25519KeySize);
  BytesView body = sealed.subspan(kX25519KeySize);

  PkeyPtr secret = LoadSecret(recipient.secret_key);
  PkeyPtr eph = LoadPublic(eph_pub);
  if (!secret || !eph) return InvalidArgument("malformed key material");

  TC_ASSIGN_OR_RETURN(Bytes shared, Ecdh(secret.get(), eph.get()));
  Key128 key = DeriveBoxKey(shared, eph_pub, recipient.public_key);
  SecureZero(shared);
  Result<Bytes> plain = GcmOpen(key, body);
  SecureZero(key);
  return plain;
}

}  // namespace tc::crypto
