#include "crypto/ggm_tree.hpp"

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
    : tokens_(std::move(tokens)),
      height_(tree_height),
      prg_(MakePrg(prg_kind)) {}

uint64_t TokenSet::FirstLeaf(const AccessToken& t, uint32_t tree_height) {
  return t.index << (tree_height - t.depth);
}

uint64_t TokenSet::LastLeaf(const AccessToken& t, uint32_t tree_height) {
  uint32_t up = tree_height - t.depth;
  return (t.index << up) + ((uint64_t{1} << up) - 1);
}

bool TokenSet::Covers(uint64_t leaf_index) const {
  for (const auto& t : tokens_) {
    if (leaf_index >= FirstLeaf(t, height_) &&
        leaf_index <= LastLeaf(t, height_)) {
      return true;
    }
  }
  return false;
}

Result<Key128> TokenSet::DeriveLeaf(uint64_t leaf_index) const {
  for (const auto& t : tokens_) {
    uint64_t first = FirstLeaf(t, height_);
    uint64_t last = LastLeaf(t, height_);
    if (leaf_index < first || leaf_index > last) continue;
    // Walk down from the token: the low (height - depth) bits of leaf_index
    // select the path within the subtree.
    uint32_t sub_height = height_ - t.depth;
    Key128 node = t.node_key;
    for (uint32_t i = 0; i < sub_height; ++i) {
      bool right = (leaf_index >> (sub_height - 1 - i)) & 1;
      node = prg_->ExpandOne(node, right);
    }
    return node;
  }
  return PermissionDenied("no access token covers requested key");
}

SequentialLeafIterator::SequentialLeafIterator(Key128 root_key,
                                               uint32_t root_depth,
                                               uint64_t root_index,
                                               uint32_t tree_height,
                                               uint64_t start_leaf,
                                               PrgKind prg_kind)
    : prg_(MakePrg(prg_kind)), root_depth_(root_depth), height_(tree_height) {
  uint32_t sub_height = tree_height - root_depth;
  uint64_t first = root_index << sub_height;
  end_ = first + (uint64_t{1} << sub_height);
  assert(start_leaf >= first && start_leaf < end_);
  path_.reserve(sub_height + 1);
  path_.push_back({root_key, root_index});
  current_ = start_leaf;
  DescendTo(start_leaf);
}

void SequentialLeafIterator::DescendTo(uint64_t leaf_index) {
  while (path_.size() < static_cast<size_t>(height_ - root_depth_) + 1) {
    PathEntry& parent = path_.back();
    uint32_t depth = root_depth_ + static_cast<uint32_t>(path_.size()) - 1;
    bool right = (leaf_index >> (height_ - depth - 1)) & 1;
    Key128 left_child, right_child;
    prg_->Expand(parent.key, left_child, right_child);
    uint64_t child_index = (parent.index << 1) | (right ? 1 : 0);
    if (right) {
      path_.push_back({right_child, child_index});
    } else {
      parent.right = right_child;
      path_.push_back({left_child, child_index});
    }
    SecureZero(left_child);
    SecureZero(right_child);
  }
}

bool SequentialLeafIterator::Next() {
  if (current_ + 1 >= end_) {
    current_ = end_;
    return false;
  }
  ++current_;
  // Pop up to the deepest ancestor shared with the new leaf: the number of
  // trailing one-bits of the previous leaf, plus one (leaf 0b0111 -> 0b1000
  // changes the bottom 4 path steps). The path went left from that
  // ancestor and now goes right, into the sibling it kept.
  uint64_t prev = current_ - 1;
  size_t pops = 1;
  while ((prev & 1) == 1) {
    prev >>= 1;
    ++pops;
  }
  path_.resize(path_.size() - pops);
  PathEntry& ancestor = path_.back();
  path_.push_back({ancestor.right, (ancestor.index << 1) | 1});
  SecureZero(path_[path_.size() - 2].right);
  DescendTo(current_);
  return true;
}

}  // namespace tc::crypto
