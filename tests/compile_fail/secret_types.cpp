// Secret-hygiene defects the types reject at compile time. Built with no
// TC_CASE_* macro this file compiles (the control); each ctest entry defines
// one macro and passes only on that case's compiler diagnostic.
//
//   A1  a key reaches a log line, a Status message or a plain byte view
//   A3  a key is compared with an early-exit ==
//   B3  a Status or Result is silently dropped
//
// The checks ride the real headers: crypto::Key128 and SecretBuffer have no
// stream operator, no ==, no subscript and no implicit byte view, and Status
// and Result are [[nodiscard]].
#include <cstring>

#include "common/logging.hpp"
#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/rand.hpp"

namespace tc {

Status Cleanup();
Result<int> Fetch();

#if defined(TC_CASE_A1_LOG_KEY)
void Leak(const crypto::Key128& master_key) {
  TC_LOG_INFO << "derived " << master_key;
}
#elif defined(TC_CASE_A1_SECRET_BUFFER_VIEW)
void Leak(const SecretBuffer& secret) {
  BytesView bytes = secret;
  TC_LOG_INFO << "secret " << ToHex(bytes);
}
#elif defined(TC_CASE_A1_STATUS)
Status Leak(const crypto::Key128& master_key) {
  return InvalidArgument(master_key[0] ? "odd key" : "even key");
}
#elif defined(TC_CASE_A1_BYTE_VIEW)
BytesView Leak(const crypto::Key128& master_key) { return master_key; }
#elif defined(TC_CASE_A3_COMPARE)
bool MacMatches(const crypto::Key128& expected, const crypto::Key128& mac) {
  return expected == mac;
}
#elif defined(TC_CASE_B3_DISCARD)
void Discard() { Cleanup(); }
#elif defined(TC_CASE_B3_DISCARD_RESULT)
void Discard() { Fetch(); }
#elif defined(TC_CASE_B3_COMMA)
int Discard() { return (Cleanup(), 0); }
#endif

// The compliant shapes, built by every case and by the control.
void LogsPublicOnly(const crypto::Key128&, uint64_t chunk) {
  TC_LOG_INFO << "ingested chunk " << chunk;
}

bool KeysEqual(const crypto::Key128& a, const crypto::Key128& b) {
  return ConstantTimeEqual(a, b);
}

void BestEffort() {
  // A failed cleanup leaves only garbage behind.
  (void)Cleanup();
}

}  // namespace tc
