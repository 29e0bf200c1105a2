// Paillier additively homomorphic public-key encryption — one of the two
// strawman digest ciphers the paper compares against (§5, §6; Java
// BigInteger implementation there, OpenSSL BIGNUM here).
//
// Standard scheme with the g = n+1 optimization:
//   Enc(m)  = (1 + m*n) * r^n mod n^2
//   Add     = ciphertext multiplication mod n^2
//   Dec(c)  = L(c^lambda mod n^2) * mu mod n, accelerated with CRT.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "common/bytes.hpp"

namespace tc::strawman {

/// Paillier ciphertext: big-endian bignum, 2*modulus_bits wide.
using PaillierCiphertext = Bytes;

class Paillier {
 public:
  /// Generate a fresh keypair. 3072-bit n gives 128-bit security (§6 setup);
  /// 1024-bit corresponds to the 80-bit IoT row of Table 3.
  static std::unique_ptr<Paillier> Generate(int modulus_bits = 3072);

  ~Paillier();
  Paillier(const Paillier&) = delete;
  Paillier& operator=(const Paillier&) = delete;

  /// Serialized ciphertext size in bytes (2 * modulus bytes).
  size_t ciphertext_size() const;

  /// Encrypt a 64-bit value (message space is Z_n, vastly larger).
  PaillierCiphertext Encrypt(uint64_t m) const;

  /// Homomorphic addition: c1 * c2 mod n^2.
  PaillierCiphertext Add(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) const;

  /// Decrypt; result reduced to uint64 (aggregates in TimeCrypt's digest
  /// fields are 64-bit by construction).
  Result<uint64_t> Decrypt(const PaillierCiphertext& c) const;

 private:
  Paillier();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tc::strawman
