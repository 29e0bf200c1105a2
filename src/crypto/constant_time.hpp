// Constant-time comparison for secret material (keys, digests, MACs).
//
// A short-circuiting == / memcmp leaks, through timing, the length of the
// matching prefix — enough to forge a MAC byte-by-byte against a verifier
// that compares naively. Every comparison whose operands include secret
// bytes must go through ConstantTimeEqual: it always touches every byte
// and folds the differences into a single accumulator, so the running time
// depends only on the length. Key128 and SecretBuffer offer no other
// comparison (crypto::Key128 has no ==, so the compiler rejects one), and
// tc_lint R5 rejects memcmp, std::equal and == on secret-named byte arrays
// in src/crypto/.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace tc::crypto {

/// True iff the two byte ranges are identical. Runs in time that depends
/// only on the lengths, never on the contents or the position of the first
/// difference. A length mismatch returns false immediately — lengths are
/// public (they are part of the wire format / key schedule), only the
/// bytes are secret.
inline bool ConstantTimeEqual(std::span<const uint8_t> a,
                              std::span<const uint8_t> b) {
  if (a.size() != b.size()) return false;
  // volatile keeps the compiler from collapsing the loop back into an
  // early-exit memcmp once it inlines both sides.
  volatile uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

template <size_t N>
inline bool ConstantTimeEqual(const std::array<uint8_t, N>& a,
                              const std::array<uint8_t, N>& b) {
  return ConstantTimeEqual(std::span<const uint8_t>(a.data(), N),
                           std::span<const uint8_t>(b.data(), N));
}

}  // namespace tc::crypto
