// AES-128 on AES-NI, the production PRG primitive (§6.2: "AES-NI is the
// best candidate in terms of performance"). The hot paths run fused
// kernels that keep the key schedule in registers: the GGM step and HEAC's
// field keys here, AES-GCM in aes_gcm.cpp (all built on aesni_rounds.hpp).
// Callers dispatch on CpuHas(kCpuAesNi) (cpu.hpp) and run the software AES
// (soft_aes.hpp) where it is false.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/cpu.hpp"
#include "crypto/soft_aes.hpp"

namespace tc::crypto {

/// The GGM step of the AES PRG: left = AES_parent(0) and right =
/// AES_parent(1), where block 1 is 1 in its first byte and zero elsewhere.
/// The key schedule runs between the two blocks' rounds, in registers; only
/// the children are written. Requires CpuHas(kCpuAesNi).
void AesNiExpand(const Key128& parent, Key128& left, Key128& right);

/// HEAC field keys: keys[f] = Fold64(AES_leaf(f)) for every f, where block
/// f holds f as a little-endian uint64 and Fold64 XORs the block's two
/// halves. The first eight blocks run with the key schedule; with more
/// fields the schedule also goes to a stack array, scrubbed on return, for
/// the later runs of eight. Requires CpuHas(kCpuAesNi).
void AesNiFieldKeys(const Key128& leaf, std::span<uint64_t> keys);

/// AesNiFieldKeys(*leaves[l], {keys[l], num_fields}) for every l, for up to
/// kCryptoLanes leaves at once: leaf l's schedule runs in lane l of one zmm
/// register, and block f carries field f's counter in every lane. Runs of
/// eight blocks are transposed so that each leaf's keys leave in one masked
/// store. Requires CpuHasLanes().
void VaesFieldKeys(std::span<const Key128* const> leaves,
                   std::span<uint64_t* const> keys, size_t num_fields);

/// AES-128 in counter mode: out = AES_key(0) || AES_key(1) || ..., block i
/// holding i as a little-endian uint64, the last block cut to fit. The
/// schedule is stored for the later runs of eight blocks and scrubbed.
/// Requires CpuHas(kCpuAesNi).
void AesNiKeystream(const Key128& key, MutableBytesView out);

/// One-block AES-128 on AES-NI over a stored key schedule: the reference
/// the tests check the kernels' rounds and schedule against (FIPS-197 and
/// the software AES). The schedule is scrubbed on destruction. Requires
/// CpuHas(kCpuAesNi).
class AesNiBlock {
 public:
  explicit AesNiBlock(const Key128& key);

  Block128 EncryptBlock(const Block128& plaintext) const;

 private:
  // Round keys stored as raw bytes; reinterpreted as __m128i internally to
  // keep SSE types out of this header.
  alignas(16) Scrubbed<std::array<uint8_t, 176>> round_keys_;
};

}  // namespace tc::crypto
