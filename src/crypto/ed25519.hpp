// Ed25519 signatures over OpenSSL EVP — the authenticity anchor for the
// integrity extension (src/integrity): data owners sign stream attestations
// (Merkle roots) so consumers can verify retrieved data against something
// the untrusted server cannot forge. The paper defers integrity/freshness
// to Verena-style frameworks (§3.3); this supplies the signature primitive.
#pragma once

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

constexpr size_t kEd25519PublicKeySize = 32;
constexpr size_t kEd25519SecretKeySize = 32;  // raw seed form
constexpr size_t kEd25519SignatureSize = 64;

/// An owner's long-term signing identity (raw 32-byte keys). The identity
/// provider of the threat model maps owner ids to these public keys, just
/// as it does for X25519 sealing keys.
struct SigningKeyPair {
  Bytes public_key;         // 32 bytes
  SecretBuffer secret_key;  // 32 bytes (seed)
};

/// Generate a fresh Ed25519 keypair.
SigningKeyPair GenerateSigningKeyPair();

/// Sign `message` with a raw 32-byte secret key. Returns a 64-byte
/// signature.
Result<Bytes> SignMessage(const SecretBuffer& secret_key, BytesView message);

/// Verify a signature against a raw 32-byte public key.
/// PermissionDenied on mismatch (forged/altered), InvalidArgument on
/// malformed key or signature sizes.
Status VerifySignature(BytesView public_key, BytesView message,
                       BytesView signature);

}  // namespace tc::crypto
