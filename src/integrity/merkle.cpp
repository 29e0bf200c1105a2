#include "integrity/merkle.hpp"

#include <bit>

namespace tc::integrity {

namespace {

/// Largest power of two strictly less than n (n >= 2).
uint64_t SplitPoint(uint64_t n) {
  return uint64_t{1} << (63 - std::countl_zero(n - 1));
}

BytesView HashView(const Hash& h) { return BytesView(h.data(), h.size()); }

}  // namespace

Hash LeafHash(BytesView data) {
  const uint8_t prefix = 0x00;
  return crypto::Sha256Concat(BytesView(&prefix, 1), data);
}

Hash NodeHash(const Hash& left, const Hash& right) {
  Bytes buf;
  buf.reserve(1 + 2 * sizeof(Hash));
  buf.push_back(0x01);
  Append(buf, HashView(left));
  Append(buf, HashView(right));
  return crypto::Sha256(buf);
}

void MerkleTree::Append(const Hash& leaf_hash) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf_hash);
  // Cascade: whenever a level gains an even number of entries, the parent
  // over the last pair is complete — push it one level up.
  for (size_t l = 0; levels_[l].size() % 2 == 0; ++l) {
    if (l + 1 == levels_.size()) levels_.emplace_back();
    const auto& level = levels_[l];
    levels_[l + 1].push_back(
        NodeHash(level[level.size() - 2], level[level.size() - 1]));
  }
}

Hash MerkleTree::Root() const { return SubtreeRoot(0, size()); }

Result<Hash> MerkleTree::RootAt(uint64_t n) const {
  if (n > size()) {
    return OutOfRange("attested size exceeds tree size");
  }
  return SubtreeRoot(0, n);
}

Hash MerkleTree::SubtreeRoot(uint64_t first, uint64_t last) const {
  uint64_t n = last - first;
  if (n == 0) return crypto::Sha256({});  // empty-tree convention
  if (n == 1) return levels_[0][first];
  // Complete aligned subtrees were cascaded at append time: O(1) lookup.
  // The RFC 6962 recursion only ever produces aligned power-of-two left
  // children, so at most the ragged right spine recurses — O(log n) total.
  if (std::has_single_bit(n) && first % n == 0) {
    uint32_t level = static_cast<uint32_t>(std::countr_zero(n));
    return levels_[level][first >> level];
  }
  uint64_t k = SplitPoint(n);
  return NodeHash(SubtreeRoot(first, first + k), SubtreeRoot(first + k, last));
}

Result<AuditPath> MerkleTree::Proof(uint64_t index, uint64_t n) const {
  if (n > size()) {
    return OutOfRange("proof size exceeds tree size");
  }
  if (index >= n) return OutOfRange("leaf index outside attested prefix");
  AuditPath path;
  TC_RETURN_IF_ERROR(BuildProof(index, 0, n, path));
  return path;
}

Status MerkleTree::BuildProof(uint64_t index, uint64_t first, uint64_t last,
                              AuditPath& path) const {
  uint64_t n = last - first;
  if (n == 1) return Status::Ok();  // reached the leaf
  uint64_t k = SplitPoint(n);
  if (index < first + k) {
    // Leaf in the left subtree: right sibling joins the path above us.
    TC_RETURN_IF_ERROR(BuildProof(index, first, first + k, path));
    path.steps.push_back({false, SubtreeRoot(first + k, last)});
  } else {
    TC_RETURN_IF_ERROR(BuildProof(index, first + k, last, path));
    path.steps.push_back({true, SubtreeRoot(first, first + k)});
  }
  return Status::Ok();
}

Status VerifyAuditPath(const Hash& expected_root, const Hash& leaf_hash,
                       const AuditPath& path) {
  Hash running = leaf_hash;
  for (const AuditPath::Step& step : path.steps) {
    running = step.left ? NodeHash(step.sibling, running)
                        : NodeHash(running, step.sibling);
  }
  if (running != expected_root) {
    return PermissionDenied("audit path does not match attested root");
  }
  return Status::Ok();
}

}  // namespace tc::integrity
