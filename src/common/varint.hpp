// LEB128 variable-length integers and zigzag mapping, used by the chunk
// compressor and the wire codec.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace tc {

/// The longest varint of a 64-bit value.
inline constexpr size_t kMaxVarintBytes = 10;

/// Append an unsigned LEB128 varint to `out` (1..10 bytes for 64-bit).
void PutVarint(Bytes& out, uint64_t value);

/// Write an unsigned LEB128 varint to `out`, which has room for
/// kMaxVarintBytes; returns the bytes written.
size_t PutVarint(uint8_t* out, uint64_t value);

/// Decode a varint starting at out[pos]; advances pos. nullopt on truncation
/// or overlong (>10 byte) encodings.
std::optional<uint64_t> GetVarint(BytesView in, size_t& pos);

/// Zigzag: maps signed to unsigned so small-magnitude values stay short.
constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutSignedVarint(Bytes& out, int64_t value) {
  PutVarint(out, ZigzagEncode(value));
}

inline std::optional<int64_t> GetSignedVarint(BytesView in, size_t& pos) {
  auto u = GetVarint(in, pos);
  if (!u) return std::nullopt;
  return ZigzagDecode(*u);
}

}  // namespace tc
