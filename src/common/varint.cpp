#include "common/varint.hpp"

namespace tc {

void PutVarint(Bytes& out, uint64_t value) {
  // Byte by byte: the wire codec and the chunk compressor write mostly
  // one- and two-byte varints, where push_back beats a ranged insert.
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

size_t PutVarint(uint8_t* out, uint64_t value) {
  size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  out[n++] = static_cast<uint8_t>(value);
  return n;
}

std::optional<uint64_t> GetVarint(BytesView in, size_t& pos) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = pos;
  while (p < in.size() && shift < 64) {
    uint8_t byte = in[p++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      pos = p;
      return result;
    }
    shift += 7;
  }
  return std::nullopt;  // truncated or overlong
}

}  // namespace tc
