// tc_lint fixture, checked as src/crypto/fixture.cpp. MUST fail R14.
//
// A 256-entry byte table in the crypto layer: looking it up with a key
// byte leaks the byte through the cache.
#include <cstdint>

namespace tc::crypto {

namespace {
extern const uint8_t kTable[256];
}  // namespace

uint8_t Substitute(uint8_t key_byte) { return kTable[key_byte]; }

}  // namespace tc::crypto
