// Cryptographically secure randomness (the kernel's getrandom(2)) plus a
// deterministic generator for tests and reproducible workloads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/bytes.hpp"
#include "crypto/constant_time.hpp"

namespace tc::crypto {

/// 128-bit key/seed material — the node size of the GGM tree (λ = 128).
/// A plain 16-byte value with no ==, no stream operator and no implicit
/// byte view: compare with ConstantTimeEqual, reach the bytes only through
/// secret_bytes() (common/secret.hpp says where that is allowed). Key128{}
/// is all zeros; a default-initialized one is indeterminate.
class Key128 {
 public:
  std::span<uint8_t, 16> secret_bytes() { return bytes_; }
  std::span<const uint8_t, 16> secret_bytes() const { return bytes_; }

  friend bool ConstantTimeEqual(const Key128& a, const Key128& b) {
    return ConstantTimeEqual(a.secret_bytes(), b.secret_bytes());
  }
  friend void SecureZero(Key128& k) { tc::SecureZero(k.secret_bytes()); }

 private:
  std::array<uint8_t, 16> bytes_;
};
static_assert(std::is_trivially_copyable_v<Key128> && sizeof(Key128) == 16);

/// Fill `out` with CSPRNG bytes. Aborts on entropy failure (unrecoverable).
void RandomBytes(MutableBytesView out);

/// Fresh random 128-bit key.
Key128 RandomKey128();

/// Fresh random uint64 (for nonces / ids).
uint64_t RandomU64();

/// Deterministic pseudo-random stream for tests and workload generation.
/// NOT cryptographically secure: splitmix64 underneath.
class DeterministicRng {
 public:
  explicit DeterministicRng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64();
  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);
  /// Uniform double in [0, 1).
  double NextDouble();
  /// Standard-normal via Box-Muller.
  double NextGaussian();
  void Fill(MutableBytesView out);

 private:
  uint64_t state_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace tc::crypto
