#include "chunk/compress.hpp"

#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/io.hpp"

namespace tc::chunk {

namespace {
constexpr uint8_t kFormatVersion = 1;

/// Deflates `n` bytes at `in` into the `cap` bytes at `out`, which must not
/// overlap them; returns the deflated size. The bytes are exactly
/// compress2(…, Z_DEFAULT_COMPRESSION)'s for any `cap` of at least
/// compressBound(n).
Result<size_t> Deflate(const uint8_t* in, size_t n, uint8_t* out,
                       size_t cap) {
  // One deflate state per thread, reset per call. compress2 builds and
  // frees the same ~256 KB state on every call; deflateInit gives it
  // compress2's level, window and memLevel, so the bytes are identical.
  struct Deflater {
    z_stream zs{};
    int init = deflateInit(&zs, Z_DEFAULT_COMPRESSION);
    ~Deflater() {
      if (init == Z_OK) deflateEnd(&zs);
    }
  };
  thread_local Deflater deflater;
  z_stream& zs = deflater.zs;
  if (deflater.init != Z_OK) {
    return Internal("zlib deflate init failed: " +
                    std::to_string(deflater.init));
  }
  if (n > std::numeric_limits<uInt>::max() ||
      cap > std::numeric_limits<uInt>::max()) {
    return InvalidArgument("zlib input exceeds 4 GiB");
  }
  deflateReset(&zs);
  zs.next_in = const_cast<Bytef*>(in);
  zs.avail_in = static_cast<uInt>(n);
  zs.next_out = out;
  zs.avail_out = static_cast<uInt>(cap);
  int rc = deflate(&zs, Z_FINISH);
  if (rc != Z_STREAM_END) {
    return Internal("zlib deflate failed: " + std::to_string(rc));
  }
  return static_cast<size_t>(zs.total_out);
}
}  // namespace

Result<Bytes> ZlibDeflate(BytesView data) {
  if (data.size() > std::numeric_limits<uInt>::max()) {
    return InvalidArgument("zlib input exceeds 4 GiB");
  }
  Bytes out(compressBound(static_cast<uLong>(data.size())));
  TC_ASSIGN_OR_RETURN(
      size_t len, Deflate(data.data(), data.size(), out.data(), out.size()));
  out.resize(len);
  return out;
}

Result<Bytes> ZlibInflate(BytesView data, size_t max_output) {
  if (data.size() > std::numeric_limits<uInt>::max()) {
    return DataLoss("zlib payload exceeds size limit");
  }
  z_stream zs{};
  if (inflateInit(&zs) != Z_OK) return Internal("zlib inflate init failed");
  struct End {
    z_stream* zs;
    ~End() { inflateEnd(zs); }
  } end{&zs};
  zs.next_in = const_cast<Bytef*>(data.data());
  zs.avail_in = static_cast<uInt>(data.size());

  // Inflate once, doubling the output buffer whenever it fills. The buffer
  // stops one byte past the limit: filling that byte means the payload is
  // larger than max_output.
  const size_t limit = max_output + (max_output < SIZE_MAX ? 1 : 0);
  Bytes out(std::min(limit, std::max<size_t>(data.size() * 4, 256)));
  for (;;) {
    const size_t done = zs.total_out;
    zs.next_out = out.data() + done;
    zs.avail_out = static_cast<uInt>(
        std::min<size_t>(out.size() - done, std::numeric_limits<uInt>::max()));
    int rc = inflate(&zs, Z_NO_FLUSH);
    if (rc == Z_STREAM_END) break;
    // Room left over means the input ran out before the stream ended.
    if ((rc != Z_OK && rc != Z_BUF_ERROR) || zs.avail_out > 0) {
      return DataLoss("zlib inflate failed: " + std::to_string(rc));
    }
    if (out.size() == limit) break;
    out.resize(std::min(limit, out.size() * 2));
  }
  if (zs.total_out > max_output) {
    return DataLoss("zlib payload exceeds size limit");
  }
  out.resize(zs.total_out);
  return out;
}

Result<Bytes> CompressPoints(std::span<const index::DataPoint> points,
                             Compression codec) {
  Bytes out;
  TC_RETURN_IF_ERROR(AppendCompressedPoints(points, codec, out));
  return out;
}

Status AppendCompressedPoints(std::span<const index::DataPoint> points,
                              Compression codec, Bytes& out) {
  if (codec != Compression::kNone && codec != Compression::kZlib) {
    return InvalidArgument("unknown chunk compression codec");
  }
  // Room for the two header bytes, the count and two varints per point.
  const size_t head = out.size();
  const size_t body_at = head + 2;
  out.resize(body_at + kMaxVarintBytes * (1 + 2 * points.size()));
  out[head] = kFormatVersion;
  out[head + 1] = static_cast<uint8_t>(Compression::kNone);

  // Delta+zigzag+varint both columns. First point stored absolute. The
  // deltas wrap modulo 2^64, so far-apart values cannot overflow.
  uint8_t* p = out.data() + body_at;
  p += PutVarint(p, points.size());
  uint64_t prev_ts = 0;
  uint64_t prev_val = 0;
  for (const auto& pt : points) {
    const auto ts = static_cast<uint64_t>(pt.timestamp_ms);
    const auto val = static_cast<uint64_t>(pt.value);
    p += PutVarint(p, ZigzagEncode(static_cast<int64_t>(ts - prev_ts)));
    p += PutVarint(p, ZigzagEncode(static_cast<int64_t>(val - prev_val)));
    prev_ts = ts;
    prev_val = val;
  }
  const size_t body = static_cast<size_t>(p - (out.data() + body_at));
  out.resize(body_at + body);
  // A short body is stored raw without a deflate attempt (kMinDeflateBody).
  if (codec != Compression::kZlib || body < kMinDeflateBody) {
    return Status::Ok();
  }
  const size_t bound = compressBound(static_cast<uLong>(body));
  out.resize(body_at + body + bound);
  TC_ASSIGN_OR_RETURN(size_t deflated,
                      Deflate(out.data() + body_at, body,
                              out.data() + body_at + body, bound));
  // Keep whichever representation is smaller (incompressible data).
  if (deflated < body) {
    out[head + 1] = static_cast<uint8_t>(Compression::kZlib);
    std::memmove(out.data() + body_at, out.data() + body_at + body, deflated);
    out.resize(body_at + deflated);
  } else {
    out.resize(body_at + body);
  }
  return Status::Ok();
}

Result<std::vector<index::DataPoint>> DecompressPoints(BytesView data) {
  if (data.size() < 2) return DataLoss("chunk payload too short");
  if (data[0] != kFormatVersion) {
    return DataLoss("unknown chunk format version");
  }
  auto codec = static_cast<Compression>(data[1]);
  BytesView body_view = data.subspan(2);
  Bytes inflated;
  if (codec == Compression::kZlib) {
    TC_ASSIGN_OR_RETURN(inflated, ZlibInflate(body_view));
    body_view = inflated;
  } else if (codec != Compression::kNone) {
    return DataLoss("unknown chunk compression codec");
  }

  BinaryReader r(body_view);
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVar());
  // Each point consumes ≥ 2 varint bytes; a larger claimed count is a
  // hostile allocation bomb.
  if (n > r.remaining() / 2) return DataLoss("implausible point count");
  std::vector<index::DataPoint> points;
  points.reserve(n);
  uint64_t ts = 0, val = 0;
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(int64_t dts, r.GetVarSigned());
    TC_ASSIGN_OR_RETURN(int64_t dval, r.GetVarSigned());
    ts += static_cast<uint64_t>(dts);
    val += static_cast<uint64_t>(dval);
    points.push_back({static_cast<int64_t>(ts), static_cast<int64_t>(val)});
  }
  return points;
}

}  // namespace tc::chunk
