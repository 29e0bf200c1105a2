#include "chunk/compress.hpp"

#include <zlib.h>

#include <algorithm>
#include <limits>

#include "common/io.hpp"

namespace tc::chunk {

namespace {
constexpr uint8_t kFormatVersion = 1;
}

Result<Bytes> ZlibDeflate(BytesView data) {
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
  if (data.size() > std::numeric_limits<uInt>::max()) {
    return InvalidArgument("zlib input exceeds 4 GiB");
  }
  Bytes out(compressBound(static_cast<uLong>(data.size())));
  deflateReset(&zs);
  zs.next_in = const_cast<Bytef*>(data.data());
  zs.avail_in = static_cast<uInt>(data.size());
  zs.next_out = out.data();
  zs.avail_out = static_cast<uInt>(out.size());
  int rc = deflate(&zs, Z_FINISH);
  if (rc != Z_STREAM_END) {
    return Internal("zlib deflate failed: " + std::to_string(rc));
  }
  out.resize(zs.total_out);
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
  if (codec != Compression::kNone && codec != Compression::kZlib) {
    return InvalidArgument("unknown chunk compression codec");
  }
  Bytes out;
  out.push_back(kFormatVersion);

  // Delta+zigzag+varint both columns. First point stored absolute. The
  // deltas wrap modulo 2^64, so far-apart values cannot overflow.
  BinaryWriter w(points.size() * 4 + 16);
  w.PutVar(points.size());
  uint64_t prev_ts = 0;
  uint64_t prev_val = 0;
  for (const auto& p : points) {
    const auto ts = static_cast<uint64_t>(p.timestamp_ms);
    const auto val = static_cast<uint64_t>(p.value);
    w.PutVarSigned(static_cast<int64_t>(ts - prev_ts));
    w.PutVarSigned(static_cast<int64_t>(val - prev_val));
    prev_ts = ts;
    prev_val = val;
  }

  Bytes body = std::move(w).Take();
  // A short body is stored raw without a deflate attempt (kMinDeflateBody).
  if (codec == Compression::kZlib && body.size() >= kMinDeflateBody) {
    TC_ASSIGN_OR_RETURN(Bytes deflated, ZlibDeflate(body));
    // Keep whichever representation is smaller (incompressible data).
    if (deflated.size() < body.size()) {
      out.push_back(static_cast<uint8_t>(Compression::kZlib));
      Append(out, deflated);
      return out;
    }
  }
  out.push_back(static_cast<uint8_t>(Compression::kNone));
  Append(out, body);
  return out;
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
