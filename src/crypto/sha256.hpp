// SHA-256, HMAC-SHA256 and HKDF, native at every input length: one
// compression function, run with the SHA extensions (SHA-NI) where the
// feature table (cpu.hpp) has them and in portable C++ where it does not.
// HMAC and HKDF are built on that SHA-256, so hashing never enters OpenSSL.
//
// Key regression's hash chains (§4.4.2) have their own kernel:
// Sha256ChainWalk applies s <- MSB128(SHA-256(s)) any number of times. On
// SHA-NI the 16-byte state stays in one register, as the four big-endian
// words that are both the digest's first half and the next message, and the
// rest of each one-block message is constant padding: no block is built in
// memory, copied or scrubbed per step. Sha256ChainWalkPair walks two states
// at once, interleaving their rounds, and Sha256ChainKey, LSB128(SHA-256(s)),
// takes the same register form.
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

using Sha256Digest = std::array<uint8_t, 32>;

Sha256Digest Sha256(BytesView data);

/// SHA-256 over the concatenation a || b (avoids a temporary buffer).
Sha256Digest Sha256Concat(BytesView a, BytesView b);

/// The hash-chain step s <- MSB128(SHA-256(s)), applied `steps` times to
/// `state` in place (none for steps = 0).
void Sha256ChainWalk(Key128& state, uint64_t steps);

/// Sha256ChainWalk(a, a_steps) and Sha256ChainWalk(b, b_steps). On SHA-NI
/// the two walks run in lockstep while both have steps left, so that one
/// walk's rounds fill the other's latency.
void Sha256ChainWalkPair(Key128& a, uint64_t a_steps,
                         Key128& b, uint64_t b_steps);

/// LSB128(SHA-256(state)): a chain state's key material.
Key128 Sha256ChainKey(const Key128& state);

Sha256Digest HmacSha256(BytesView key, BytesView data);

/// Half `half` (0 or 1) of HMAC-SHA256(key, data), as a key: a subkey
/// derived from `key` under the label `data`.
Key128 HmacSubkey(const Key128& key, BytesView data, size_t half = 0);

/// HKDF (RFC 5869) extract-then-expand with SHA-256. Aborts when `length`
/// exceeds 255 * 32 bytes, the most the one-byte block counter can number.
Bytes HkdfSha256(BytesView ikm, BytesView salt, BytesView info,
                 size_t length);

}  // namespace tc::crypto
