// Ed25519 signatures (RFC 8032) — the authenticity anchor for the
// integrity extension (src/integrity): data owners sign stream attestations
// (Merkle roots) so consumers can verify retrieved data against something
// the untrusted server cannot forge. The paper defers integrity/freshness
// to Verena-style frameworks (§3.3); this supplies the signature primitive.
//
// Native: the field arithmetic X25519 uses (field25519.hpp), a portable
// SHA-512 (sha512.hpp) and scalar arithmetic mod L. Key generation and
// signing multiply the base point in constant time, through a table of
// its multiples built on first use; verification, whose inputs are public,
// runs a variable-time double-scalar multiplication. Signatures are
// byte-identical to OpenSSL's for the same seed and message, and
// verification gives OpenSSL's verdict: S must be below L, a public key
// decodes as OpenSSL decodes it (non-canonical and small-order keys
// included), and the check is the cofactorless R = S·B - k·A.
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

/// The public key of a raw 32-byte secret key (seed). InvalidArgument
/// unless the secret is 32 bytes.
Result<Bytes> SigningPublicKey(const SecretBuffer& secret_key);

/// Sign `message` with a raw 32-byte secret key. Returns a 64-byte
/// signature.
Result<Bytes> SignMessage(const SecretBuffer& secret_key, BytesView message);

/// Verify a signature against a raw 32-byte public key.
/// PermissionDenied on mismatch (forged/altered), on S >= L and on a key
/// that encodes no point; InvalidArgument on malformed key or signature
/// sizes.
Status VerifySignature(BytesView public_key, BytesView message,
                       BytesView signature);

}  // namespace tc::crypto
