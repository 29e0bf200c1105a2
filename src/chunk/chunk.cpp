#include "chunk/chunk.hpp"

#include <cstring>
#include <string_view>

namespace tc::chunk {

std::array<uint8_t, kChunkAadSize> ChunkAad(uint64_t chunk_index) {
  constexpr std::string_view kLabel = "tc-chunk";
  std::array<uint8_t, kChunkAadSize> aad{};
  aad[0] = static_cast<uint8_t>(kLabel.size());
  std::memcpy(aad.data() + 1, kLabel.data(), kLabel.size());
  for (size_t i = 0; i < 8; ++i) {
    aad[1 + kLabel.size() + i] = static_cast<uint8_t>(chunk_index >> (8 * i));
  }
  return aad;
}

Status ChunkBuilder::Add(const index::DataPoint& point) {
  if (!window_.Contains(point.timestamp_ms)) {
    return OutOfRange("point timestamp outside chunk window " +
                      window_.ToString());
  }
  if (!points_.empty() && point.timestamp_ms < points_.back().timestamp_ms) {
    return FailedPrecondition("points must arrive in time order");
  }
  points_.push_back(point);
  return Status::Ok();
}

Result<BytesView> ChunkBuilder::CompressedPoints() {
  compressed_.clear();
  TC_RETURN_IF_ERROR(AppendCompressedPoints(points_, codec_, compressed_));
  return BytesView(compressed_);
}

Result<Bytes> ChunkBuilder::SealPayload(const crypto::Key128& payload_key) {
  TC_ASSIGN_OR_RETURN(BytesView compressed, CompressedPoints());
  return crypto::GcmSeal(payload_key, compressed, ChunkAad(index_));
}

void ChunkBuilder::Reset(uint64_t chunk_index, TimeRange window) {
  index_ = chunk_index;
  window_ = window;
  points_.clear();
}

Result<std::vector<index::DataPoint>> OpenPayload(
    const crypto::Key128& payload_key, uint64_t chunk_index,
    BytesView sealed) {
  TC_ASSIGN_OR_RETURN(
      Bytes compressed,
      crypto::GcmOpen(payload_key, sealed, ChunkAad(chunk_index)));
  return DecompressPoints(compressed);
}

}  // namespace tc::chunk
