// Portable software AES-128 (encrypt-only), implemented from the FIPS-197
// specification. It runs where the feature table (cpu.hpp) has no AES-NI,
// and as the Fig 6 benchmark's software AES PRG; elsewhere production code
// paths run the AES-NI kernels (aesni.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

using Block128 = std::array<uint8_t, 16>;

/// AES-128 block cipher with a precomputed key schedule. Encrypt-only:
/// the PRG and CTR-style uses never need the inverse cipher.
class SoftAes128 {
 public:
  explicit SoftAes128(const Key128& key) { ExpandKey(key); }

  /// Encrypt one 16-byte block (ECB single block).
  Block128 EncryptBlock(const Block128& plaintext) const;

 private:
  void ExpandKey(const Key128& key);

  // 11 round keys x 16 bytes — an expanded form of the key itself, scrubbed
  // on destruction (the PRG constructs one of these per expand call).
  Scrubbed<std::array<uint8_t, 176>> round_keys_;
};

}  // namespace tc::crypto
