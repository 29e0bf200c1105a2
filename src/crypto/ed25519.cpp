#include "crypto/ed25519.hpp"

#include <openssl/evp.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

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

struct MdCtxDeleter {
  void operator()(EVP_MD_CTX* p) const { EVP_MD_CTX_free(p); }
};
using MdCtxPtr = std::unique_ptr<EVP_MD_CTX, MdCtxDeleter>;

}  // namespace

SigningKeyPair GenerateSigningKeyPair() {
  EVP_PKEY* raw = nullptr;
  EVP_PKEY_CTX* ctx = EVP_PKEY_CTX_new_id(EVP_PKEY_ED25519, nullptr);
  if (ctx == nullptr || EVP_PKEY_keygen_init(ctx) != 1 ||
      EVP_PKEY_keygen(ctx, &raw) != 1) {
    FatalOpenSsl("Ed25519 keygen");
  }
  EVP_PKEY_CTX_free(ctx);
  PkeyPtr pkey(raw);

  SigningKeyPair pair;
  pair.public_key.resize(kEd25519PublicKeySize);
  pair.secret_key.resize(kEd25519SecretKeySize);
  size_t pub_len = pair.public_key.size();
  size_t sec_len = pair.secret_key.size();
  if (EVP_PKEY_get_raw_public_key(pkey.get(), pair.public_key.data(),
                                  &pub_len) != 1 ||
      EVP_PKEY_get_raw_private_key(pkey.get(),
                                   pair.secret_key.secret_bytes().data(),
                                   &sec_len) != 1) {
    FatalOpenSsl("Ed25519 key export");
  }
  return pair;
}

Result<Bytes> SignMessage(const SecretBuffer& secret_key, BytesView message) {
  BytesView secret = secret_key.secret_bytes();
  if (secret.size() != kEd25519SecretKeySize) {
    return InvalidArgument("Ed25519 secret key must be 32 bytes");
  }
  PkeyPtr pkey(EVP_PKEY_new_raw_private_key(EVP_PKEY_ED25519, nullptr,
                                            secret.data(), secret.size()));
  if (!pkey) return InvalidArgument("malformed Ed25519 secret key");

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) FatalOpenSsl("EVP_MD_CTX_new");
  if (EVP_DigestSignInit(ctx.get(), nullptr, nullptr, nullptr, pkey.get()) !=
      1) {
    return Internal("Ed25519 sign init failed");
  }
  Bytes signature(kEd25519SignatureSize);
  size_t sig_len = signature.size();
  if (EVP_DigestSign(ctx.get(), signature.data(), &sig_len, message.data(),
                     message.size()) != 1 ||
      sig_len != kEd25519SignatureSize) {
    return Internal("Ed25519 signing failed");
  }
  return signature;
}

Status VerifySignature(BytesView public_key, BytesView message,
                       BytesView signature) {
  if (public_key.size() != kEd25519PublicKeySize) {
    return InvalidArgument("Ed25519 public key must be 32 bytes");
  }
  if (signature.size() != kEd25519SignatureSize) {
    return InvalidArgument("Ed25519 signature must be 64 bytes");
  }
  PkeyPtr pkey(EVP_PKEY_new_raw_public_key(
      EVP_PKEY_ED25519, nullptr, public_key.data(), public_key.size()));
  if (!pkey) return InvalidArgument("malformed Ed25519 public key");

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) FatalOpenSsl("EVP_MD_CTX_new");
  if (EVP_DigestVerifyInit(ctx.get(), nullptr, nullptr, nullptr,
                           pkey.get()) != 1) {
    return Internal("Ed25519 verify init failed");
  }
  if (EVP_DigestVerify(ctx.get(), signature.data(), signature.size(),
                       message.data(), message.size()) != 1) {
    return PermissionDenied("Ed25519 signature verification failed");
  }
  return Status::Ok();
}

}  // namespace tc::crypto
