// GGM key-derivation tree (§4.2.3, §A.1.3): a virtual balanced binary tree
// whose root is a secret seed and whose 2^height leaves form the keystream
// {k_0, k_1, ...}. Children are derived with a length-doubling PRG, so
// possession of an inner node ("access token") yields exactly the leaves of
// its subtree and — by the PRG's one-wayness — nothing else. This is the
// mechanism behind TimeCrypt's cryptographic time-range access control.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/constant_time.hpp"
#include "crypto/prg.hpp"

namespace tc::crypto {

/// An inner (or leaf) node handed out to principals. Holding a token is
/// equivalent to holding all leaves in [FirstLeaf(), LastLeaf()].
struct AccessToken {
  uint32_t depth = 0;   // 0 = root
  uint64_t index = 0;   // node index within its level, left-to-right
  Scrubbed<Key128> node_key;

  static void Visit(auto& t, auto& v) { v(t.depth, t.index, t.node_key); }

  friend bool operator==(const AccessToken& a, const AccessToken& b) {
    // node_key is secret material: compare it in constant time so token
    // equality can never leak key bytes through timing. The position
    // fields are public and may short-circuit.
    return a.depth == b.depth && a.index == b.index &&
           ConstantTimeEqual(a.node_key, b.node_key);
  }
};

/// The owner-side tree: knows the root seed and can derive any leaf or any
/// token cover. Thread-compatible (const methods are safe concurrently).
class GgmTree {
 public:
  /// height in [1, 63]; the keystream has 2^height leaves.
  GgmTree(Key128 root_seed, uint32_t height,
          PrgKind prg_kind = PrgKind::kAesNi);

  uint32_t height() const { return height_; }
  uint64_t num_leaves() const { return uint64_t{1} << height_; }

  /// Derive leaf key k_i by walking the root->leaf path (height PRG calls).
  Result<Key128> DeriveLeaf(uint64_t index) const;

  /// Minimal set of subtree roots exactly covering leaves [first, last]
  /// (inclusive). At most 2*height tokens (canonical segment cover).
  Result<std::vector<AccessToken>> CoverRange(uint64_t first,
                                              uint64_t last) const;

  /// Derive the node key at (depth, index). depth 0/index 0 is the root.
  Result<Key128> DeriveNode(uint32_t depth, uint64_t index) const;

 private:
  Scrubbed<Key128> root_;
  uint32_t height_;
  std::unique_ptr<Prg> prg_;
};

/// A GGM root->leaf path that moves from leaf to leaf. Where it turns left
/// it keeps the right sibling the same expansion produced. Seek() re-derives
/// only the path below the deepest ancestor the new leaf shares with the
/// current one, so a sequential walk costs about one PRG call per leaf and a
/// jump costs the height of the subtree the two leaves part in. The path
/// lives in fixed per-depth slots overwritten in place, held in Scrubbed
/// storage.
class SequentialLeafIterator {
 public:
  /// A path at start_leaf of the subtree rooted at root_key, where
  /// root_depth/root_index identify that root in the global tree (use
  /// depth 0/index 0 with the master seed for the whole keystream). The
  /// subtree height, tree_height - root_depth, is at most kMaxHeight.
  SequentialLeafIterator(Key128 root_key, uint32_t root_depth,
                         uint64_t root_index, uint32_t tree_height,
                         uint64_t start_leaf,
                         PrgKind prg_kind = PrgKind::kAesNi);
  // A move copies the slots; the source scrubs its own when destroyed.
  SequentialLeafIterator(SequentialLeafIterator&&) noexcept = default;
  SequentialLeafIterator& operator=(SequentialLeafIterator&&) noexcept =
      default;

  /// GgmTree's bound: the leaf indices fit a uint64 with the end index.
  static constexpr uint32_t kMaxHeight = 63;

  /// Key of the current leaf.
  const Key128& Current() const { return nodes_[height_]; }
  uint64_t CurrentIndex() const { return current_; }
  bool AtEnd() const { return current_ >= end_; }

  /// Move to leaf `leaf`, which must lie in the subtree (forward, backward,
  /// or after AtEnd()). A no-op when it is the current leaf.
  void Seek(uint64_t leaf);

  /// Advance to the next leaf. Returns false at the end of the subtree.
  bool Next();

 private:
  /// Expand the path from depth `from` down to `leaf`.
  void Descend(uint32_t from, uint64_t leaf);

  std::unique_ptr<Prg> prg_;
  uint32_t height_ = 0;  // subtree height: nodes_[height_] is the leaf
  uint64_t current_ = 0;
  uint64_t end_ = 0;
  // nodes_[d] is the path's node d levels below the subtree root. At the
  // end of the subtree it still holds the last leaf's path.
  Scrubbed<std::array<Key128, kMaxHeight + 1>> nodes_;
  // rights_[d] is nodes_[d]'s right child while the path goes through its
  // left child (a step right takes it next). Stepping into one zeroes it;
  // where the path goes right the slot is not read.
  Scrubbed<std::array<Key128, kMaxHeight>> rights_;
};

/// Consumer-side view: a set of tokens received in a grant. Can derive
/// exactly the leaves covered by its tokens.
class TokenSet {
 public:
  TokenSet(std::vector<AccessToken> tokens, uint32_t tree_height,
           PrgKind prg_kind = PrgKind::kAesNi);

  /// Leaf range [first, last] covered by a single token.
  static uint64_t FirstLeaf(const AccessToken& t, uint32_t tree_height);
  static uint64_t LastLeaf(const AccessToken& t, uint32_t tree_height);

  bool Covers(uint64_t leaf_index) const;

  /// Derive leaf k_i; PermissionDenied if no token covers it — this is the
  /// cryptographic enforcement surface (we simply cannot compute the key).
  /// Seeks one held path, rooted at the token that covers the leaf and
  /// re-rooted (the old path scrubbed) only when that token changes.
  Result<Key128> DeriveLeaf(uint64_t leaf_index);

 private:
  /// Index of the token covering `leaf_index`, or tokens_.size().
  size_t Find(uint64_t leaf_index) const;

  std::vector<AccessToken> tokens_;
  uint32_t height_;
  PrgKind prg_kind_;
  size_t path_token_ = 0;  // the token path_ is rooted at
  std::optional<SequentialLeafIterator> path_;
};

}  // namespace tc::crypto
