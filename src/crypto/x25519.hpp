// X25519, the Diffie-Hellman function of RFC 7748 over Curve25519, in
// portable C++ with no secret-dependent branch, index or table, on the
// field arithmetic it shares with Ed25519 (field25519.hpp). Sealed grants
// (crypto/sealed_box.hpp) generate their keys and run their ECDH here.
#pragma once

#include <span>

#include "common/secret.hpp"
#include "common/status.hpp"

namespace tc::crypto {

constexpr size_t kX25519KeySize = 32;

/// RFC 7748 §5's X25519(k, u): clamps the scalar k, ignores the top bit of
/// u and accepts non-canonical u (u >= p). Writes the u-coordinate of k·u,
/// which is all zero when u has low order: a Diffie-Hellman caller must
/// reject that output (RFC 7748 §6.1).
void X25519(std::span<uint8_t, kX25519KeySize> out,
            std::span<const uint8_t, kX25519KeySize> scalar,
            std::span<const uint8_t, kX25519KeySize> u);

/// The public key of an X25519 secret key: X25519(secret, 9).
/// InvalidArgument unless the secret is 32 bytes.
Result<Bytes> BoxPublicKey(const SecretBuffer& secret);

}  // namespace tc::crypto
