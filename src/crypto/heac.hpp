// HEAC — Homomorphic Encryption-based Access Control (§4.2, §A.1).
//
// Castelluccia-style symmetric additive encryption over the ring Z_{2^64}
// with TimeCrypt's two extensions:
//
//  1. Key canceling (§4.2.2): chunk i is encrypted with k'_i = k_i - k_{i+1},
//     so an in-range sum over [a, b) telescopes to sum(m) + k_a - k_b and
//     decryption needs only the two *outer* keys regardless of range length.
//
//  2. GGM-derived keystream (§4.2.3): k_i comes from leaf i of a key
//     derivation tree, so time-range access is granted by sharing subtree
//     tokens rather than individual keys.
//
// A chunk digest is a small vector of uint64 fields (sum, count, sumsq,
// histogram bins...). Each field f has its own independent keystream derived
// from leaf i by one extra PRF step: k_{i,f} = fold64(AES_{leaf_i}(f)),
// where fold64 is the length-matching hash of §A.1.5 (128 -> 64 bits).
//
// All arithmetic uses native uint64 wraparound — exactly mod 2^64 (M = 2^64,
// §4.2.1: "we set M to 2^64").
#pragma once

#include <cstdint>
#include <vector>

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/aesni.hpp"
#include "crypto/ggm_tree.hpp"

namespace tc::crypto {

/// Length-matching hash (§A.1.5): XOR-fold a 128-bit PRF output to 64 bits.
/// Preserves uniformity; collision resistance is not required.
inline uint64_t Fold64(const Key128& k) {
  uint64_t lo, hi;
  static_assert(sizeof(lo) + sizeof(hi) == sizeof(Key128));
  std::memcpy(&lo, k.data(), 8);
  std::memcpy(&hi, k.data() + 8, 8);
  return lo ^ hi;
}

/// Per-field keys derived from one GGM leaf. Field f's key is
/// fold64(AES_{leaf}(f)) — one AES block op per field.
class FieldKeys {
 public:
  FieldKeys(TC_SECRET const Key128& leaf, size_t num_fields);
  /// Storage for `num_fields` keys, all zero until Derive.
  explicit FieldKeys(size_t num_fields) : keys_(num_fields) {}
  FieldKeys(const FieldKeys&) = default;
  FieldKeys& operator=(const FieldKeys&) = default;
  FieldKeys(FieldKeys&&) noexcept = default;
  FieldKeys& operator=(FieldKeys&&) noexcept = default;
  ~FieldKeys() {
    SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(keys_.data()),
                                keys_.size() * sizeof(uint64_t)));
  }

  /// Replace the keys with leaf `leaf`'s, reusing the storage.
  void Derive(TC_SECRET const Key128& leaf);

  /// keys[l].Derive(leaves[l]) for every l, for up to kCryptoLanes leaves
  /// of one field count. With CpuHasLanes(), two or more leaves derive at
  /// once in the lanes of one zmm key schedule (VaesFieldKeys); one leaf,
  /// or a CPU without VAES, derives each alone.
  static void DeriveLanes(TC_SECRET std::span<const Key128> leaves,
                          std::span<FieldKeys> keys);

  uint64_t key(size_t field) const { return keys_[field]; }
  size_t num_fields() const { return keys_.size(); }

 private:
  TC_SECRET std::vector<uint64_t> keys_;
};

/// An encrypted digest: one uint64 ciphertext per field, plus the chunk
/// index range [first, last) it aggregates. Adding two adjacent encrypted
/// digests yields the encrypted digest of the union range — this is the only
/// operation the server ever performs.
struct HeacCiphertext {
  std::vector<uint64_t> fields;
  uint64_t first_chunk = 0;  // inclusive
  uint64_t last_chunk = 0;   // exclusive

  friend bool operator==(const HeacCiphertext&,
                         const HeacCiphertext&) = default;
};

/// Homomorphic add. Ranges must be adjacent or identical-width aggregates
/// under the caller's control; the server's aggregation tree only ever adds
/// adjacent ranges. Returns error if ranges are not contiguous.
Result<HeacCiphertext> HeacAdd(const HeacCiphertext& a,
                               const HeacCiphertext& b);

/// In-place variant of HeacAdd for the index hot path (no allocation when
/// field counts match).
Status HeacAddInPlace(HeacCiphertext& acc, const HeacCiphertext& b);

/// Open an aggregate over chunks [first, last) in place:
/// m[f] = c[f] - k_{first,f} + k_{last,f}. Applied once per stream, it opens
/// inter-stream sums too (§4.3), whose outer keys add up across streams.
void HeacOpen(std::span<uint64_t> fields, const Key128& leaf_first,
              const Key128& leaf_last);

/// Encrypts / decrypts digests given access to leaf keys. The key source is
/// abstract so both the owner (full GgmTree) and a consumer (TokenSet) can
/// supply keys.
class HeacCodec {
 public:
  explicit HeacCodec(size_t num_fields) : num_fields_(num_fields) {}

  size_t num_fields() const { return num_fields_; }

  /// Encrypt chunk i's digest fields: c[f] = m[f] + k_{i,f} - k_{i+1,f}.
  /// `leaf_i` and `leaf_next` are GGM leaves i and i+1.
  HeacCiphertext Encrypt(std::span<const uint64_t> fields, uint64_t chunk,
                         const Key128& leaf_i, const Key128& leaf_next) const;

  /// The same, from the field keys of leaves i and i+1. A sequential writer
  /// keeps `keys_next` and passes it as `keys_i` of the next chunk, which
  /// derives each leaf's field keys once instead of twice.
  HeacCiphertext Encrypt(std::span<const uint64_t> fields, uint64_t chunk,
                         const FieldKeys& keys_i,
                         const FieldKeys& keys_next) const;

  /// The same ciphertext fields, written to `out` as num_fields() raw
  /// uint64s in host byte order (the digest blob layout), with no
  /// allocation.
  void EncryptTo(std::span<const uint64_t> fields, const FieldKeys& keys_i,
                 const FieldKeys& keys_next, uint8_t* out) const;

  /// Decrypt an aggregate over [c.first_chunk, c.last_chunk):
  /// m[f] = c[f] - k_{first,f} + k_{last,f}.
  /// `leaf_first`/`leaf_last` are GGM leaves first_chunk and last_chunk.
  std::vector<uint64_t> Decrypt(const HeacCiphertext& c,
                                const Key128& leaf_first,
                                const Key128& leaf_last) const;

 private:
  size_t num_fields_;
};

}  // namespace tc::crypto
