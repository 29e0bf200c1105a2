// tc_lint fixture, checked as src/crypto/fixture.cpp. MUST fail R13.
//
// A product source reaches for OpenSSL: every binary that links it would
// map libcrypto again.
#include "crypto/sha256.hpp"

#include <openssl/evp.h>

namespace tc::crypto {

int DigestSize() { return EVP_MD_get_size(EVP_sha256()); }

}  // namespace tc::crypto
