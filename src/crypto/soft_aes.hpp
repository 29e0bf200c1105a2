// Portable AES-128 (encrypt-only) in constant time: bitsliced, after the
// design of BearSSL's aes_ct64 (https://bearssl.org/constanttime.html) and
// Käsper and Schwabe, "Faster and Timing-Attack Resistant AES-GCM" (CHES
// 2009). Four blocks travel together as eight 64-bit bit planes, and the
// S-box is Boyar and Peralta's circuit of XOR and AND gates, so no table
// is indexed by key or data and no branch depends on them. Each block may
// have its own key.
//
// It runs where the feature table (cpu.hpp) has no AES-NI: the GGM PRG,
// HEAC's field keys and AES-GCM (aes_gcm.hpp); and as the Fig 6
// benchmark's software AES PRG. Elsewhere the AES-NI kernels run
// (aesni.hpp), with the same output.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/secret.hpp"
#include "crypto/cpu.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

using Block128 = std::array<uint8_t, 16>;

/// AES-128 under up to kCryptoLanes keys at once, one per lane, with their
/// schedules in bitsliced form. Encrypt-only: the PRG and CTR-style uses
/// never need the inverse cipher.
class SoftAes128 {
 public:
  /// `key` in every lane.
  explicit SoftAes128(const Key128& key);

  /// *keys[l] in lane l, for one to kCryptoLanes keys; the lanes past the
  /// last key repeat the first.
  explicit SoftAes128(std::span<const Key128* const> keys);

  /// blocks[l] = AES(lane l's key, blocks[l]), for up to kCryptoLanes
  /// blocks, in one pass whose cost does not depend on the count.
  void EncryptLanes(std::span<Block128> blocks) const;

  /// One block under lane 0's key.
  Block128 EncryptBlock(const Block128& plaintext) const;

 private:
  // 11 round keys x 8 bit planes. The schedule is an expanded form of the
  // keys themselves, scrubbed on destruction (the PRG constructs one of
  // these per expand call).
  Scrubbed<std::array<uint64_t, 88>> round_keys_;
};

}  // namespace tc::crypto
