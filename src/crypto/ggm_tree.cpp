#include "crypto/ggm_tree.hpp"

#include <bit>
#include <cassert>

namespace tc::crypto {

GgmTree::GgmTree(Key128 root_seed, uint32_t height, PrgKind prg_kind)
    : root_(root_seed), height_(height), prg_(MakePrg(prg_kind)) {
  assert(height >= 1 && height <= 63);
}

Result<Key128> GgmTree::DeriveLeaf(uint64_t index) const {
  return DeriveNode(height_, index);
}

Result<Key128> GgmTree::DeriveNode(uint32_t depth, uint64_t index) const {
  if (depth > height_) return OutOfRange("node depth exceeds tree height");
  if (depth < 64 && index >= (uint64_t{1} << depth)) {
    return OutOfRange("node index out of range for depth");
  }
  Key128 node = root_;
  // Walk the path from the root: bit (depth-1-i) of `index` selects the
  // child at step i.
  for (uint32_t i = 0; i < depth; ++i) {
    bool right = (index >> (depth - 1 - i)) & 1;
    node = prg_->ExpandOne(node, right);
  }
  return node;
}

Result<std::vector<AccessToken>> GgmTree::CoverRange(uint64_t first,
                                                     uint64_t last) const {
  if (first > last) return InvalidArgument("empty token range");
  if (last >= num_leaves()) return OutOfRange("leaf index exceeds keystream");

  // Canonical cover: greedily take the largest aligned subtree that starts
  // at `first` and does not extend past `last`.
  std::vector<AccessToken> cover;
  uint64_t pos = first;
  while (pos <= last) {
    // Largest level such that pos is aligned and the subtree fits.
    uint32_t up = 0;
    while (up < height_) {
      uint64_t size = uint64_t{2} << up;  // subtree leaf count at up+1
      if ((pos & (size - 1)) != 0) break;
      if (pos + size - 1 > last) break;
      ++up;
    }
    uint64_t size = uint64_t{1} << up;
    uint32_t depth = height_ - up;
    uint64_t index = pos >> up;
    TC_ASSIGN_OR_RETURN(Key128 key, DeriveNode(depth, index));
    cover.push_back(AccessToken{depth, index, key});
    SecureZero(key);
    pos += size;
    if (pos == 0) break;  // wrapped (whole 2^64 space) — cannot happen h<=63
  }
  return cover;
}

TokenSet::TokenSet(std::vector<AccessToken> tokens, uint32_t tree_height,
                   PrgKind prg_kind)
    : tokens_(std::move(tokens)), height_(tree_height), prg_kind_(prg_kind) {}

uint64_t TokenSet::FirstLeaf(const AccessToken& t, uint32_t tree_height) {
  return t.index << (tree_height - t.depth);
}

uint64_t TokenSet::LastLeaf(const AccessToken& t, uint32_t tree_height) {
  uint32_t up = tree_height - t.depth;
  return (t.index << up) + ((uint64_t{1} << up) - 1);
}

size_t TokenSet::Find(uint64_t leaf_index) const {
  size_t t = 0;
  while (t < tokens_.size() && (leaf_index < FirstLeaf(tokens_[t], height_) ||
                                leaf_index > LastLeaf(tokens_[t], height_))) {
    ++t;
  }
  return t;
}

bool TokenSet::Covers(uint64_t leaf_index) const {
  return Find(leaf_index) < tokens_.size();
}

Result<Key128> TokenSet::DeriveLeaf(uint64_t leaf_index) {
  const size_t t = Find(leaf_index);
  if (t == tokens_.size()) {
    return PermissionDenied("no access token covers requested key");
  }
  if (path_ && path_token_ == t) {
    path_->Seek(leaf_index);
  } else {
    const AccessToken& token = tokens_[t];
    path_.emplace(token.node_key, token.depth, token.index, height_,
                  leaf_index, prg_kind_);
    path_token_ = t;
  }
  return path_->Current();
}

SequentialLeafIterator::SequentialLeafIterator(Key128 root_key,
                                               uint32_t root_depth,
                                               uint64_t root_index,
                                               uint32_t tree_height,
                                               uint64_t start_leaf,
                                               PrgKind prg_kind)
    : prg_(MakePrg(prg_kind)), height_(tree_height - root_depth) {
  assert(root_depth <= tree_height && height_ <= kMaxHeight);
  const uint64_t first = root_index << height_;
  end_ = first + (uint64_t{1} << height_);
  assert(start_leaf >= first && start_leaf < end_);
  current_ = start_leaf;
  nodes_[0] = root_key;
  Descend(0, start_leaf);
}

void SequentialLeafIterator::Descend(uint32_t from, uint64_t leaf) {
  // Bit (height_ - 1 - d) of the leaf picks the child at depth d. A left
  // turn keeps the right child for a later step right.
  for (uint32_t d = from; d < height_; ++d) {
    if ((leaf >> (height_ - 1 - d)) & 1) {
      Key128 left;
      prg_->Expand(nodes_[d], left, nodes_[d + 1]);
      SecureZero(left);
    } else {
      prg_->Expand(nodes_[d], nodes_[d + 1], rights_[d]);
    }
  }
}

void SequentialLeafIterator::Seek(uint64_t leaf) {
  assert(leaf < end_ && leaf >= end_ - (uint64_t{1} << height_));
  // Past the end, the path still holds the last leaf.
  const uint64_t held = AtEnd() ? end_ - 1 : current_;
  current_ = leaf;
  const uint64_t diff = leaf ^ held;
  if (diff == 0) return;
  // The paths part below the highest bit in which the leaves differ. Where
  // the new leaf turns right there, the held one turned left and kept the
  // sibling; where it turns left, re-expand.
  const uint32_t shared =
      height_ - static_cast<uint32_t>(std::bit_width(diff));
  if ((leaf >> (height_ - 1 - shared)) & 1) {
    nodes_[shared + 1] = rights_[shared];
    SecureZero(rights_[shared]);
    Descend(shared + 1, leaf);
  } else {
    Descend(shared, leaf);
  }
}

bool SequentialLeafIterator::Next() {
  if (current_ + 1 >= end_) {
    current_ = end_;
    return false;
  }
  Seek(current_ + 1);
  return true;
}

}  // namespace tc::crypto
