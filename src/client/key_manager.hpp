// Owner-side key management (§4.2.3, §4.4.2): the per-stream GGM key tree,
// the ingest keystream fast path, and the resolution keystreams (dual key
// regression) with their envelope publication.
#pragma once

#include <map>
#include <memory>

#include "common/secret.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "crypto/key_regression.hpp"

namespace tc::client {

struct StreamKeysConfig {
  uint32_t tree_height = 30;  // ~10^9 keys (the §6 setup)
};

/// All secret material for one stream the owner writes. Deterministic from
/// (master_seed, config): exportable and re-importable.
class StreamKeys {
 public:
  StreamKeys(crypto::Key128 master_seed, StreamKeysConfig config = {});

  const crypto::GgmTree& tree() const { return *tree_; }
  std::shared_ptr<const crypto::GgmTree> shared_tree() const { return tree_; }
  uint32_t tree_height() const { return config_.tree_height; }

  /// Leaf for chunk i < 2^tree_height. One held path seeks from leaf to
  /// leaf, so sequential calls (i, i+1, ...) cost about one PRG call each.
  crypto::Key128 Leaf(uint64_t i);

  /// Per-chunk payload key H(k_i - k_{i+1}) (§4.3).
  crypto::Key128 PayloadKey(uint64_t chunk);

  /// The dual key regression for a resolution (created lazily; deterministic
  /// from the master seed so re-opened streams agree). Not const: its hash
  /// chains build their checkpoints as grants and envelopes ask for states.
  crypto::DualKeyRegression& Resolution(uint64_t resolution_chunks);

  /// Envelopes for windows lower..upper of a resolution, in window order;
  /// window j's is enc_{k̄_j}(leaf(j*r)) (§4.4.2).
  Result<std::vector<Bytes>> MakeEnvelopes(uint64_t resolution_chunks,
                                           uint64_t lower, uint64_t upper);

  const crypto::Key128& master_seed() const { return master_; }

 private:
  Scrubbed<crypto::Key128> master_;
  StreamKeysConfig config_;
  std::shared_ptr<crypto::GgmTree> tree_;
  crypto::SequentialLeafIterator path_;
  std::map<uint64_t, std::unique_ptr<crypto::DualKeyRegression>> resolutions_;
};

}  // namespace tc::client
