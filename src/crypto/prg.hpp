// Length-doubling pseudorandom generators G(x) = G0(x) || G1(x) used to
// build the GGM key-derivation tree (§4.2.3). Three interchangeable
// constructions, matching the paper's Fig 6 comparison:
//   - AES-NI:      G0(x) = AES_x(0), G1(x) = AES_x(1)  (default, fastest)
//   - AES (soft):  same construction on the portable software AES
//   - SHA-256:     G0(x) = H(0 || x), G1(x) = H(1 || x) truncated to 128 bit
#pragma once

#include <memory>
#include <string_view>

#include "common/secret.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

enum class PrgKind {
  kAesNi,    // hardware AES (production default)
  kAesSoft,  // portable software AES (Fig 6 "AES" series)
  kSha256,   // hash-based construction
};

std::string_view PrgKindName(PrgKind kind);

/// A length-doubling PRG. Implementations must be stateless and
/// thread-compatible: Expand may be called concurrently from any thread.
/// Implementations key a block cipher with `parent` per call. The AES-NI
/// step keeps its key schedule in registers and the software AES scrubs
/// its stored one on destruction, so no copy of the parent key outlives
/// the call.
class Prg {
 public:
  virtual ~Prg() = default;

  /// Expand a 128-bit node into its two 128-bit children.
  virtual void Expand(const Key128& parent, Key128& left,
                      Key128& right) const = 0;

  /// Derive only one child (some callers walk a single path).
  virtual Key128 ExpandOne(const Key128& parent, bool right_child) const {
    Key128 l, r;
    Expand(parent, l, r);
    SecureZero(right_child ? l : r);
    return right_child ? r : l;
  }
};

/// Create a PRG of the given kind. kAesNi falls back to the software AES
/// where the CPU feature table (cpu.hpp) has no AES-NI at construction.
std::unique_ptr<Prg> MakePrg(PrgKind kind);

}  // namespace tc::crypto
