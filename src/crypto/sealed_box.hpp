// Hybrid public-key sealing for access tokens (§3.2: "Access tokens are
// encrypted with the principal's public key (hybrid encryption) and stored
// at the server's key-store").
//
// Construction: X25519 ephemeral ECDH -> HKDF-SHA256 -> AES-128-GCM.
// Output: ephemeral_pub(32) || gcm(nonce || ct || tag).
//
// X25519 is the native constant-time kernel of crypto/x25519.hpp, and HKDF
// and AES-GCM are native too, constant-time portable code where the CPU
// lacks AES-NI, so sealing and opening need no OpenSSL: the product links
// no libcrypto (only the benchmarks' strawman ciphers and the tests'
// cross-checks do).
#pragma once

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/rand.hpp"
#include "crypto/x25519.hpp"

namespace tc::crypto {

/// A principal's long-term identity keypair. The identity provider of the
/// threat model (e.g. Keybase, §3.3) maps principal ids to public keys;
/// here the public half is passed around directly. The secret half lives in
/// a SecretBuffer: scrubbed on destruction, redacted when streamed.
struct BoxKeyPair {
  Bytes public_key;         // 32 bytes
  SecretBuffer secret_key;  // 32 bytes
};

/// Generate a fresh X25519 keypair.
BoxKeyPair GenerateBoxKeyPair();

/// Seal `plaintext` to the holder of `recipient_public`. Anyone can seal;
/// only the secret-key holder can open (sender-anonymous, like NaCl boxes).
/// InvalidArgument when the recipient key is not 32 bytes or has low order
/// (its shared secret would be all zero).
Result<Bytes> SealToPublicKey(BytesView recipient_public, BytesView plaintext);

/// Open a sealed blob with the recipient keypair. DataLoss when the blob is
/// short, its ephemeral key has low order or it fails authentication;
/// InvalidArgument when the recipient's secret key is not 32 bytes.
Result<Bytes> OpenSealed(const BoxKeyPair& recipient, BytesView sealed);

}  // namespace tc::crypto
