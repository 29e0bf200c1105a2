#include "client/key_manager.hpp"

#include "common/io.hpp"
#include "crypto/sha256.hpp"

namespace tc::client {

namespace {
/// Windows per resolution keystream.
constexpr uint64_t kResolutionStreamLength = 1 << 16;

/// Domain-separated subseed derivation from the master seed: half 0 or 1 of
/// HMAC(master, label || param).
crypto::Key128 Subseed(const crypto::Key128& master, std::string_view label,
                       uint64_t param, size_t half = 0) {
  BinaryWriter w;
  w.PutString(label);
  w.PutU64(param);
  return crypto::HmacSubkey(master, w.data(), half);
}
}  // namespace

StreamKeys::StreamKeys(crypto::Key128 master_seed, StreamKeysConfig config)
    : master_(master_seed),
      config_(config),
      tree_(std::make_shared<crypto::GgmTree>(
          Subseed(master_seed, "ggm-root", 0), config.tree_height)),
      path_(*tree_->DeriveNode(0, 0), 0, 0, config.tree_height, 0) {}

crypto::Key128 StreamKeys::Leaf(uint64_t i) {
  path_.Seek(i);
  return path_.Current();
}

crypto::Key128 StreamKeys::PayloadKey(uint64_t chunk) {
  crypto::Key128 leaf_i = Leaf(chunk);
  crypto::Key128 leaf_n = Leaf(chunk + 1);
  return crypto::ChunkPayloadKey(leaf_i, leaf_n);
}

crypto::DualKeyRegression& StreamKeys::Resolution(uint64_t resolution_chunks) {
  auto it = resolutions_.find(resolution_chunks);
  if (it == resolutions_.end()) {
    auto chains = std::make_unique<crypto::DualKeyRegression>(
        Subseed(master_, "res-primary", resolution_chunks),
        Subseed(master_, "res-secondary", resolution_chunks, /*half=*/1),
        kResolutionStreamLength);
    it = resolutions_.emplace(resolution_chunks, std::move(chains)).first;
  }
  return *it->second;
}

Result<std::vector<Bytes>> StreamKeys::MakeEnvelopes(
    uint64_t resolution_chunks, uint64_t lower, uint64_t upper) {
  // Window j's envelope seals leaf j*r, which must be in the keystream.
  if (resolution_chunks > 0 &&
      upper > (tree_->num_leaves() - 1) / resolution_chunks) {
    return OutOfRange("envelope leaf exceeds the keystream");
  }
  TC_ASSIGN_OR_RETURN(
      crypto::SecretKeys res_keys,
      Resolution(resolution_chunks).DeriveKeys(lower, upper));
  std::vector<Bytes> envelopes;
  envelopes.reserve(res_keys.size());
  for (uint64_t j = lower; j <= upper; ++j) {
    envelopes.push_back(crypto::GcmSealKey(res_keys[j - lower],
                                           Leaf(j * resolution_chunks)));
  }
  return envelopes;
}

}  // namespace tc::client
