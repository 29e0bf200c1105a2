// Cryptographically secure randomness (the kernel's getrandom(2)) plus a
// deterministic generator for tests and reproducible workloads.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace tc::crypto {

/// 128-bit key/seed material — the node size of the GGM tree (λ = 128).
using Key128 = std::array<uint8_t, 16>;

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
