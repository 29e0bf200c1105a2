// Lifted (exponential) EC-ElGamal — the second strawman digest cipher
// (§5: "EC-ElGamal (based on OpenSSL)"). Additively homomorphic on curve
// points:
//   Enc(m) = (rG, mG + rQ)   with public key Q = xG
//   Add    = component-wise point addition
//   Dec    = solve dlog of (C2 - x*C1) = mG  — baby-step/giant-step.
//
// Decryption cost grows with the plaintext magnitude (the dlog), which is
// why the paper reports "N/A" for EC-ElGamal decryption on IoT hardware.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "common/bytes.hpp"

namespace tc::strawman {

/// Serialized ciphertext: two compressed P-256 points (33 bytes each).
using EcElGamalCiphertext = Bytes;

class EcElGamal {
 public:
  /// prime256v1 keypair (128-bit security, §6 setup).
  static std::unique_ptr<EcElGamal> Generate();

  ~EcElGamal();
  EcElGamal(const EcElGamal&) = delete;
  EcElGamal& operator=(const EcElGamal&) = delete;

  size_t ciphertext_size() const { return 66; }  // 2 x 33-byte points

  EcElGamalCiphertext Encrypt(uint64_t m) const;

  EcElGamalCiphertext Add(const EcElGamalCiphertext& a,
                          const EcElGamalCiphertext& b) const;

  /// Decrypt via BSGS. Solves m in [0, max_plaintext); the baby-step table
  /// (built lazily, ~2^table_bits entries) bounds the solvable range to
  /// 2^(2*table_bits). Default table 2^21 covers 42-bit aggregates.
  Result<uint64_t> Decrypt(const EcElGamalCiphertext& c,
                           uint32_t table_bits = 21) const;

 private:
  EcElGamal();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tc::strawman
