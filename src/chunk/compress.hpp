// Chunk compression (§4.1 / §5): time series points are delta-encoded
// (timestamps and values) into zigzag varints, then optionally deflated with
// zlib — the paper's default lossless codec. Delta encoding exploits the
// regular sampling cadence; zlib squeezes the residue. A body shorter than
// kMinDeflateBody is stored raw without trying zlib: on such bodies zlib
// almost never wins, and the attempt costs more than the rest of the seal.
#pragma once

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "index/digest.hpp"

namespace tc::chunk {

/// A chunk payload's codec byte. Any other byte fails to decode with
/// DataLoss, and CompressPoints rejects any other value with
/// InvalidArgument. Byte 2 was a gorilla XOR codec that no writer selected.
enum class Compression : uint8_t {
  kNone = 0,  // delta+varint only
  kZlib = 1,  // delta+varint, then zlib (the paper's default); bodies
              // under kMinDeflateBody, and bodies zlib cannot shrink,
              // are stored as kNone
};

/// The shortest delta+varint body that kZlib tries to deflate. An attempt
/// costs 5-9 us on x86-64, a third of it deflateReset clearing zlib's 64 KB
/// hash table: more than the rest of a 10-point chunk's seal. On mhealth data
/// at 5-50 points per chunk and 20/100/1,000 ms cadence, skipping shorter
/// bodies costs at most 0.21 bytes per chunk on average (20 points at
/// 100 ms, where zlib shrinks 13% of them); at 10 points or fewer it costs
/// under 0.002 bytes.
inline constexpr size_t kMinDeflateBody = 64;

/// Serialize and compress a batch of points: the format byte, the codec
/// byte, then the delta+varint body, raw or deflated.
Result<Bytes> CompressPoints(std::span<const index::DataPoint> points,
                             Compression codec);

/// Append CompressPoints' bytes to `out`. Each byte is written once, in
/// place; a deflated body is deflated from the raw one in `out` into the
/// room behind it and moved down over it.
Status AppendCompressedPoints(std::span<const index::DataPoint> points,
                              Compression codec, Bytes& out);

/// Inverse of CompressPoints.
Result<std::vector<index::DataPoint>> DecompressPoints(BytesView data);

/// Raw zlib helpers (exposed for tests and for callers compressing other
/// payloads, e.g. archived rollups).
///
/// ZlibDeflate returns exactly the bytes of compress2(…,
/// Z_DEFAULT_COMPRESSION). Each thread that calls it keeps one deflate
/// state of about 256 KB for the rest of its life and resets it per call,
/// instead of building and freeing one per call; the state is freed at
/// thread exit.
Result<Bytes> ZlibDeflate(BytesView data);
/// Inflates a payload of at most `max_output` bytes; a larger one is
/// DataLoss.
Result<Bytes> ZlibInflate(BytesView data, size_t max_output = 256 << 20);

}  // namespace tc::chunk
