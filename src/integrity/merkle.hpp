// Append-only Merkle tree over chunk witness hashes (the integrity
// extension's core data structure). Follows the Certificate-Transparency
// tree shape (RFC 6962): defined for any leaf count, stable under append,
// with logarithmic audit paths — the right fit for an in-order append-only
// chunk stream (§4.5).
//
// Domain separation prevents leaf/node confusion attacks:
//   leaf hash  = SHA-256(0x00 || data)
//   inner hash = SHA-256(0x01 || left || right)
// The tree over n leaves splits at k, the largest power of two < n:
//   MTH(L[0..n)) = H(0x01 || MTH(L[0..k)) || MTH(L[k..n)))
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "crypto/sha256.hpp"
#include "net/codec.hpp"

namespace tc::integrity {

using Hash = crypto::Sha256Digest;

/// Hash a leaf's content (domain-separated).
Hash LeafHash(BytesView data);

/// Hash two child subtree roots (domain-separated).
Hash NodeHash(const Hash& left, const Hash& right);

/// An audit path: sibling hashes from the leaf's level up to the root.
struct AuditPath {
  struct Step {
    /// Whether the sibling sits to the LEFT of the running hash (order
    /// matters: SHA-256 is not commutative).
    bool left = false;
    Hash sibling{};

    static void Visit(auto& m, auto& v) { v(net::Flag(m.left), m.sibling); }
    friend bool operator==(const Step&, const Step&) = default;
  };
  std::vector<Step> steps;

  static void Visit(auto& m, auto& v) { v(m.steps); }
  size_t size() const { return steps.size(); }
};

/// In-memory append-only Merkle tree. Leaves arrive in order; Root() and
/// Proof() answer for the current size. Storage is ~2n hashes: every
/// complete power-of-two-aligned subtree hash is cascaded into a per-level
/// cache at append time, making Proof()/RootAt() logarithmic instead of
/// rescanning the leaves (the server serves thousands of audit paths per
/// second on large streams).
class MerkleTree {
 public:
  MerkleTree() = default;

  /// Append a pre-hashed leaf.
  void Append(const Hash& leaf_hash);

  /// Convenience: hash + append raw leaf content.
  void AppendLeaf(BytesView data) { Append(LeafHash(data)); }

  uint64_t size() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }

  /// Root over all current leaves. Empty tree: SHA-256 of the empty string
  /// (the RFC 6962 convention).
  Hash Root() const;

  /// Root over the first `n` leaves (n <= size) — lets a verifier check an
  /// attestation that is older than the server's current tree.
  Result<Hash> RootAt(uint64_t n) const;

  /// Audit path proving leaf `index` is in the tree over the first `n`
  /// leaves. Verify with VerifyAuditPath.
  Result<AuditPath> Proof(uint64_t index, uint64_t n) const;

 private:
  Hash SubtreeRoot(uint64_t first, uint64_t last) const;  // [first, last)
  Status BuildProof(uint64_t index, uint64_t first, uint64_t last,
                    AuditPath& path) const;

  // levels_[l][i] = hash over leaves [i*2^l, (i+1)*2^l) for every COMPLETE
  // aligned subtree; levels_[0] is the leaves themselves.
  std::vector<std::vector<Hash>> levels_;
};

/// Recompute the root from a leaf hash and its audit path; OK iff it equals
/// `expected_root`. This is the consumer-side verification primitive.
Status VerifyAuditPath(const Hash& expected_root, const Hash& leaf_hash,
                       const AuditPath& path);

}  // namespace tc::integrity
