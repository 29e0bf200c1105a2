// Hardware-accelerated AES-128 block encryption via AES-NI compiler
// intrinsics. This is the production PRG primitive (§6.2: "AES-NI is the
// best candidate in terms of performance"). Falls back to the software
// implementation when the CPU lacks AES-NI.
#pragma once

#include <span>

#include "crypto/soft_aes.hpp"

namespace tc::crypto {

/// True if this CPU supports the AES-NI instruction set.
bool CpuHasAesNi();

/// AES-128 with precomputed round keys, encrypt-only, AES-NI backed.
/// The key schedule is computed once at construction; EncryptBlock is then
/// ~10 aesenc instructions (a few ns).
class AesNiBlock {
 public:
  explicit AesNiBlock(TC_SECRET const Key128& key);
  ~AesNiBlock() { SecureZero(round_keys_); }

  Block128 EncryptBlock(const Block128& plaintext) const;

  /// Encrypt two independent blocks (pipelines the AES rounds; used by the
  /// PRG which always expands one node into two children).
  void EncryptTwoBlocks(const Block128& in0, const Block128& in1,
                        Block128& out0, Block128& out1) const;

  /// Encrypt in.size() independent blocks into `out` (same size), eight
  /// or four at a time so the AES rounds of several blocks overlap.
  void EncryptBlocks(std::span<const Block128> in,
                     std::span<Block128> out) const;

 private:
  // Round keys stored as raw bytes; reinterpreted as __m128i internally to
  // keep SSE types out of this header. An expanded form of the key itself,
  // scrubbed on destruction.
  TC_SECRET alignas(16) std::array<uint8_t, 176> round_keys_{};
};

}  // namespace tc::crypto
