// SHA-512 (FIPS 180-4) in portable C++, for Ed25519 (ed25519.hpp), which
// hashes its seed, its nonce input and its challenge with it.
#pragma once

#include <array>
#include <initializer_list>

#include "common/bytes.hpp"

namespace tc::crypto {

using Sha512Digest = std::array<uint8_t, 64>;

/// SHA-512 of the concatenation of `parts`. The message schedule, chaining
/// state and buffered block are scrubbed before it returns; the caller
/// scrubs the digest when it is secret.
Sha512Digest Sha512(std::initializer_list<BytesView> parts);

}  // namespace tc::crypto
