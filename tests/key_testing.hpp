// Test-only conveniences for crypto::Key128, which production code keeps
// opaque (common/secret.hpp): == for EXPECT_EQ and EXPECT_NE (in constant
// time, like every key compare), hex, and gtest's failure printing.
#pragma once

#include <ostream>
#include <string>

#include "common/bytes.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

using tc::ToHex;

inline bool operator==(const Key128& a, const Key128& b) {
  return ConstantTimeEqual(a, b);
}

inline std::string ToHex(const Key128& k) {
  return tc::ToHex(k.secret_bytes());
}

inline void PrintTo(const Key128& k, std::ostream* os) { *os << ToHex(k); }

}  // namespace tc::crypto
