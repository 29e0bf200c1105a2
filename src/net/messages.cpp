#include "net/messages.hpp"

namespace tc::net {

std::string_view CipherKindName(CipherKind kind) {
  switch (kind) {
    case CipherKind::kPlain: return "Plaintext";
    case CipherKind::kHeac: return "TimeCrypt";
  }
  return "?";
}

StreamConfig RollupConfig(const StreamConfig& source,
                          uint64_t granularity_chunks, uint64_t first_chunk) {
  StreamConfig derived = source;
  derived.name += "/rollup" + std::to_string(granularity_chunks);
  derived.delta_ms *= static_cast<int64_t>(granularity_chunks);
  derived.t0 = source.clock().RangeOfChunk(first_chunk).start;
  derived.integrity = false;
  return derived;
}

}  // namespace tc::net
