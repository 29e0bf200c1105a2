// Chunk building and sealing (§4.1): the client-side serialization pipeline.
//
// A ChunkBuilder accumulates points for one fixed Δ window and compresses
// them. The payload is sealed under AES-GCM with the per-chunk key
// H(k_i - k_{i+1}) (§4.3), bound to the chunk index by ChunkAad():
// SealPayload() seals one chunk, the owner seals CompressedPoints() four
// chunks at a time, and OpenPayload() reverses either. The owner encrypts
// the window's digest (HEAC, for the server's index) separately and uploads
// the two together.
#pragma once

#include <array>

#include "chunk/compress.hpp"
#include "common/time.hpp"
#include "crypto/aes_gcm.hpp"
#include "index/digest.hpp"

namespace tc::chunk {

/// Accumulates the points of one chunk window and enforces the window
/// bounds. Reusable: Reset() starts the next window.
class ChunkBuilder {
 public:
  ChunkBuilder(uint64_t chunk_index, TimeRange window, Compression codec)
      : index_(chunk_index), window_(window), codec_(codec) {}

  /// Points must arrive in non-decreasing time order inside the window.
  Status Add(const index::DataPoint& point);

  size_t num_points() const { return points_.size(); }
  uint64_t index() const { return index_; }
  const TimeRange& window() const { return window_; }
  std::span<const index::DataPoint> points() const { return points_; }

  /// The points as CompressPoints encodes them, in a buffer the builder
  /// reuses from chunk to chunk; valid until the builder next changes.
  Result<BytesView> CompressedPoints();

  /// Compress and AES-GCM-seal the payload under `payload_key`, binding the
  /// chunk index as AAD so chunks cannot be transplanted.
  Result<Bytes> SealPayload(const crypto::Key128& payload_key);

  /// Start the next window.
  void Reset(uint64_t chunk_index, TimeRange window);

 private:
  uint64_t index_;
  TimeRange window_;
  Compression codec_;
  std::vector<index::DataPoint> points_;
  Bytes compressed_;
};

/// Open a sealed payload: verify the AAD/chunk binding and decompress.
Result<std::vector<index::DataPoint>> OpenPayload(
    const crypto::Key128& payload_key, uint64_t chunk_index,
    BytesView sealed);

inline constexpr size_t kChunkAadSize = 17;

/// AAD used to bind a payload to its chunk position: varint 8, "tc-chunk",
/// then the chunk index as u64 little-endian.
std::array<uint8_t, kChunkAadSize> ChunkAad(uint64_t chunk_index);

}  // namespace tc::chunk
