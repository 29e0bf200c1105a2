// SHA-256, HMAC-SHA256 and HKDF. Inputs of at most 55 bytes fit one
// padded block: where the CPU has the SHA extensions (SHA-NI), they are
// hashed with one hardware compression. That covers every key-regression
// step, chunk payload key and SHA-256 PRG call. Longer inputs, HMAC, HKDF
// and CPUs without SHA-NI go through OpenSSL EVP, which gives the same bytes.
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "common/secret.hpp"

namespace tc::crypto {

using Sha256Digest = std::array<uint8_t, 32>;

Sha256Digest Sha256(BytesView data);

/// SHA-256 over the concatenation a || b (avoids a temporary buffer).
Sha256Digest Sha256Concat(BytesView a, BytesView b);

Sha256Digest HmacSha256(TC_SECRET BytesView key, BytesView data);

/// HKDF (RFC 5869) extract-then-expand with SHA-256.
Bytes HkdfSha256(TC_SECRET BytesView ikm, BytesView salt, BytesView info,
                 size_t length);

}  // namespace tc::crypto
