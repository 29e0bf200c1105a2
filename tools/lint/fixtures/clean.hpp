// tc_lint fixture, checked as src/crypto/fixture.hpp. MUST pass every rule.
//
// The compliant shapes: key members in scrubbing holders, key bytes reached
// inside the crypto layer, a constant-time compare, a header read through
// the bounded decoder, a discard with its reason, and a Status returned by
// reference that is [[nodiscard]].
#pragma once

#include "common/secret.hpp"
#include "crypto/rand.hpp"
#include "net/wire.hpp"

namespace tc::crypto {

struct SessionKeys {
  uint64_t epoch = 0;
  Scrubbed<Key128> master_key;
  SecretBuffer signing_secret;
  SecretKeys chain_keys;
};

inline uint8_t FirstByte(const Key128& key) { return key.secret_bytes()[0]; }

inline bool KeysEqual(const Key128& a, const Key128& b) {
  return ConstantTimeEqual(a, b);
}

inline uint32_t BodyLength(BytesView buffer) {
  if (buffer.size() < net::kFrameHeaderBytes) return 0;
  auto header = net::DecodeFrameHeader(buffer.first(net::kFrameHeaderBytes),
                                       1 << 20);
  return header.ok() ? header->body_len : 0;
}

Status Cleanup();

inline void BestEffort() {
  // A failed cleanup leaves only garbage behind.
  (void)Cleanup();
}

class Batch {
 public:
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace tc::crypto
