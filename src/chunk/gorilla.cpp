#include "chunk/gorilla.hpp"

#include <bit>

#include "common/io.hpp"

namespace tc::chunk {

namespace {

/// Delta-of-delta bucket thresholds: prefix code length grows with the
/// magnitude of the timing irregularity. Regular cadence -> 1 bit/point.
struct DodBucket {
  uint32_t prefix_bits;   // how many control bits
  uint64_t prefix_value;  // the control bits themselves (MSB-first)
  uint32_t payload_bits;  // signed payload width (0 = none)
};

constexpr DodBucket kBuckets[] = {
    {1, 0b0, 0},        // dod == 0
    {2, 0b10, 8},       // [-128, 127]
    {3, 0b110, 16},     // [-32768, 32767]
    {4, 0b1110, 32},    // int32 range
    {4, 0b1111, 64},    // anything
};

bool FitsSigned(int64_t v, uint32_t bits) {
  if (bits >= 64) return true;
  int64_t lo = -(int64_t{1} << (bits - 1));
  int64_t hi = (int64_t{1} << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

}  // namespace

void BitWriter::PutBit(bool bit) {
  if (bits_ % 8 == 0) buf_.push_back(0);
  if (bit) buf_.back() |= static_cast<uint8_t>(1u << (7 - bits_ % 8));
  ++bits_;
}

void BitWriter::PutBits(uint64_t value, uint32_t count) {
  for (uint32_t i = count; i-- > 0;) {
    PutBit((value >> i) & 1);
  }
}

Bytes BitWriter::Take() && { return std::move(buf_); }

Result<bool> BitReader::GetBit() {
  if (pos_ >= data_.size() * 8) return DataLoss("bitstream exhausted");
  bool bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
  ++pos_;
  return bit;
}

Result<uint64_t> BitReader::GetBits(uint32_t count) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < count; ++i) {
    TC_ASSIGN_OR_RETURN(bool bit, GetBit());
    v = (v << 1) | (bit ? 1 : 0);
  }
  return v;
}

Bytes GorillaCompress(std::span<const index::DataPoint> points) {
  // Header (byte-aligned): count, first ts, first value.
  BinaryWriter header;
  header.PutVar(points.size());
  if (points.empty()) return std::move(header).Take();
  header.PutI64(points[0].timestamp_ms);
  header.PutI64(points[0].value);

  BitWriter bits;
  // Timestamp deltas wrap modulo 2^64, so far-apart values cannot overflow.
  uint64_t prev_ts = static_cast<uint64_t>(points[0].timestamp_ms);
  uint64_t prev_delta = 0;
  uint64_t prev_val = static_cast<uint64_t>(points[0].value);
  uint32_t prev_lead = 64, prev_len = 0;  // no previous XOR window

  for (size_t i = 1; i < points.size(); ++i) {
    // --- timestamp: delta-of-delta with bucketed width ---
    const auto ts = static_cast<uint64_t>(points[i].timestamp_ms);
    uint64_t delta = ts - prev_ts;
    auto dod = static_cast<int64_t>(delta - prev_delta);
    prev_ts = ts;
    prev_delta = delta;
    if (dod == 0) {
      bits.PutBit(false);
    } else {
      size_t b = 1;
      while (b + 1 < std::size(kBuckets) &&
             !FitsSigned(dod, kBuckets[b].payload_bits)) {
        ++b;
      }
      bits.PutBits(kBuckets[b].prefix_value, kBuckets[b].prefix_bits);
      bits.PutBits(static_cast<uint64_t>(dod), kBuckets[b].payload_bits);
    }

    // --- value: XOR against the previous value ---
    uint64_t val = static_cast<uint64_t>(points[i].value);
    uint64_t x = val ^ prev_val;
    prev_val = val;
    if (x == 0) {
      bits.PutBit(false);
      continue;
    }
    bits.PutBit(true);
    uint32_t lead = static_cast<uint32_t>(std::countl_zero(x));
    uint32_t trail = static_cast<uint32_t>(std::countr_zero(x));
    if (lead > 31) lead = 31;  // 5-bit leading field
    uint32_t len = 64 - lead - trail;
    if (prev_len != 0 && lead >= prev_lead &&
        trail >= 64 - prev_lead - prev_len) {
      // Fits inside the previous window: reuse it (control bit 0).
      bits.PutBit(false);
      bits.PutBits(x >> (64 - prev_lead - prev_len), prev_len);
    } else {
      // New window: control bit 1, 5-bit leading count, 6-bit length.
      bits.PutBit(true);
      bits.PutBits(lead, 5);
      bits.PutBits(len == 64 ? 0 : len, 6);  // 64 wraps to 0
      bits.PutBits(x >> trail, len);
      prev_lead = lead;
      prev_len = len;
    }
  }

  Bytes out = std::move(header).Take();
  Bytes packed = std::move(bits).Take();
  Append(out, packed);
  return out;
}

Result<std::vector<index::DataPoint>> GorillaDecompress(BytesView data) {
  BinaryReader header(data);
  TC_ASSIGN_OR_RETURN(uint64_t n, header.GetVar());
  std::vector<index::DataPoint> points;
  if (n == 0) return points;
  // Bit cost per point is >= 2 bits; bound the claimed count.
  if (n > data.size() * 4 + 1) return DataLoss("implausible point count");
  points.reserve(n);
  TC_ASSIGN_OR_RETURN(int64_t first_ts, header.GetI64());
  TC_ASSIGN_OR_RETURN(int64_t first_val, header.GetI64());
  points.push_back({first_ts, first_val});

  BitReader bits(data.subspan(header.position()));
  uint64_t ts = static_cast<uint64_t>(first_ts);
  uint64_t prev_delta = 0;
  uint64_t val = static_cast<uint64_t>(first_val);
  uint32_t prev_lead = 64, prev_len = 0;

  for (uint64_t i = 1; i < n; ++i) {
    // --- timestamp ---
    TC_ASSIGN_OR_RETURN(bool nonzero, bits.GetBit());
    if (nonzero) {
      // Count the 1-prefix (max 3 extra bits).
      uint32_t ones = 1;
      while (ones < 3) {
        TC_ASSIGN_OR_RETURN(bool one, bits.GetBit());
        if (!one) break;
        ++ones;
      }
      uint32_t payload = kBuckets[ones].payload_bits;
      if (ones == 3) {
        TC_ASSIGN_OR_RETURN(bool wide, bits.GetBit());
        payload = wide ? 64 : 32;
      }
      TC_ASSIGN_OR_RETURN(uint64_t raw, bits.GetBits(payload));
      // Sign-extend.
      int64_t dod;
      if (payload >= 64) {
        dod = static_cast<int64_t>(raw);
      } else {
        uint64_t sign_bit = uint64_t{1} << (payload - 1);
        dod = static_cast<int64_t>((raw ^ sign_bit)) -
              static_cast<int64_t>(sign_bit);
      }
      prev_delta += static_cast<uint64_t>(dod);
    }
    ts += prev_delta;

    // --- value ---
    TC_ASSIGN_OR_RETURN(bool changed, bits.GetBit());
    if (changed) {
      TC_ASSIGN_OR_RETURN(bool new_window, bits.GetBit());
      if (new_window) {
        TC_ASSIGN_OR_RETURN(uint64_t lead, bits.GetBits(5));
        TC_ASSIGN_OR_RETURN(uint64_t len_raw, bits.GetBits(6));
        uint32_t len = len_raw == 0 ? 64 : static_cast<uint32_t>(len_raw);
        if (lead + len > 64) return DataLoss("corrupt XOR window");
        prev_lead = static_cast<uint32_t>(lead);
        prev_len = len;
      } else if (prev_len == 0) {
        return DataLoss("window reuse before any window");
      }
      TC_ASSIGN_OR_RETURN(uint64_t significant, bits.GetBits(prev_len));
      val ^= significant << (64 - prev_lead - prev_len);
    }
    points.push_back({static_cast<int64_t>(ts), static_cast<int64_t>(val)});
  }
  return points;
}

}  // namespace tc::chunk
