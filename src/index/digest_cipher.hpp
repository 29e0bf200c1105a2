// Digest cipher backends: how digest fields are protected inside the index.
//
// The aggregation tree (agg_tree.hpp) is generic over this interface. The
// product serves two backends:
//   - Plaintext   (the paper's insecure baseline)
//   - HEAC        (TimeCrypt)
// The paper's two public-key strawmen implement it too, in the bench-only
// library under bench/strawman/, so the benchmarks run the identical index
// code over all four.
//
// Server-side the index only needs Add() over opaque fixed-size blobs;
// Encrypt/Decrypt live on the client side of the deployment but are exposed
// here so microbenchmarks (Tables 2-3, Fig 5) can exercise each scheme in
// isolation.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"

namespace tc::index {

class DigestCipher {
 public:
  virtual ~DigestCipher() = default;

  virtual size_t num_fields() const = 0;

  /// Serialized size of one encrypted digest blob (fixed per backend —
  /// this is the ciphertext-expansion column of Table 2).
  virtual size_t blob_size() const = 0;

  /// Encrypt chunk `index`'s digest fields into a blob.
  virtual Result<Bytes> Encrypt(std::span<const uint64_t> fields,
                                uint64_t index) const = 0;

  /// acc += other (homomorphic). Blobs must be exactly blob_size(); for
  /// HEAC the tree guarantees the contiguity precondition by construction
  /// (it always folds adjacent ranges left-to-right).
  virtual Status Add(std::span<uint8_t> acc, BytesView other) const = 0;

  /// Decrypt an aggregate blob covering chunks [first, last).
  virtual Result<std::vector<uint64_t>> Decrypt(BytesView blob,
                                                uint64_t first,
                                                uint64_t last) const = 0;

  /// An all-zero aggregate blob (additive identity), used as accumulator
  /// seed by backends where one exists; HEAC/strawman backends start from
  /// the first real operand instead.
  virtual Bytes ZeroBlob() const;
};

/// Insecure baseline: fields stored as little-endian uint64.
std::unique_ptr<DigestCipher> MakePlainCipher(size_t num_fields);

/// TimeCrypt's HEAC over a GGM keystream. The cipher shares ownership of
/// the key tree (the data-owner configuration; consumers decrypt through
/// TokenSet-derived leaves via client::Consumer instead).
std::unique_ptr<DigestCipher> MakeHeacCipher(
    size_t num_fields, std::shared_ptr<const crypto::GgmTree> tree);

}  // namespace tc::index
