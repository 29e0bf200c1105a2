// Single and dual key regression (§4.4.2, §A.2): hash-chain constructions
// for distributing the *resolution keystreams* that protect outer keys.
//
// Single key regression: states s_n ... s_0 form a hash chain computed in
// reverse (s_{i-1} = MSB(G(s_i))); holding s_i yields keys k_j for all
// j <= i but nothing newer.
//
// Dual key regression adds a lower bound: a second chain consumed in the
// opposite direction. Key j = LSB(G(s1_j XOR s2_j)); holding (s1_i, s2_j)
// with j <= i yields exactly keys j..i.
//
// G here is SHA-256: 32 bytes out = 16-byte next state (MSB) || 16-byte key
// material (LSB), matching the paper's G : {0,1}^λ -> {0,1}^{λ+l}.
//
// Enumerating state t from an anchor state requires walking the chain;
// the owner keeps √n-spaced checkpoints so any state costs O(√n) hashes
// (the paper's §6.2 bound). The checkpoints are built on first need, from
// the top of the chain down and only as far as the lowest state asked for:
// a grant over key windows 0..1092 of a 2^16-state keystream walks the
// primary chain once down to state 1092 and the secondary chain not at all
// (its state for window 0 is its seed). Every walk goes through
// Sha256ChainWalk (crypto/sha256.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

/// Derived keys; the storage is scrubbed when released.
using SecretKeys = std::vector<Key128, ZeroizingAllocator<Key128>>;

/// Forward direction of chain consumption relative to generation.
struct KeyRegressionState {
  Scrubbed<Key128> state;
  uint64_t index = 0;
};

/// One hash chain of `length` states with owner-side checkpoints.
/// Generation order is reverse of disclosure order: the chain is generated
/// from seed = state[length-1] down to state[0], and disclosing state[i]
/// reveals states 0..i.
class HashChain {
 public:
  /// Hashes nothing: the checkpoints, spaced ~sqrt(length) apart, are
  /// built by StateAt as it needs them.
  HashChain(Key128 seed, uint64_t length);

  uint64_t length() const { return length_; }

  /// State i (owner-side). The first request below the lowest checkpoint
  /// built so far extends the checkpoints down to i's anchor in one walk
  /// from there; with the anchor built, state i costs O(sqrt(n)) hashes.
  Result<Key128> StateAt(uint64_t i);

  /// Walk from a disclosed state down to an earlier one (consumer-side).
  /// steps = from.index - target_index hashes.
  static Result<Key128> Walk(const KeyRegressionState& from,
                             uint64_t target_index);

  /// The hash-chain step: next_lower_state = MSB128(SHA256(state)); a
  /// one-step Sha256ChainWalk.
  static Key128 StepDown(const Key128& state);

  /// Key material of a state: LSB128(SHA256(state)).
  static Key128 KeyOf(const Key128& state);

 private:
  uint64_t length_;
  Scrubbed<Key128> seed_;  // state at index length-1 (the top anchor)
  uint64_t stride_;
  // checkpoints_[j] = state at j*stride_ for j >= built_from_; the entries
  // below are not built yet. Every built entry is chain state, i.e. key
  // material, scrubbed when released.
  SecretKeys checkpoints_;
  size_t built_from_;
};

/// A consumer's view of a dual key regression interval: can derive keys
/// k_j for lower <= j <= upper only.
class DualKeyRegressionView {
 public:
  DualKeyRegressionView(KeyRegressionState primary,
                        KeyRegressionState secondary)
      : primary_(primary), secondary_(secondary) {}

  /// [lower, upper] interval this view can derive.
  uint64_t lower() const { return secondary_.index; }
  uint64_t upper() const { return primary_.index; }

  /// Derive key k_j = LSB(G(s1_j xor s2_j)); PermissionDenied outside the
  /// interval (outside keys are computationally unreachable).
  Result<Key128> DeriveKey(uint64_t j) const;

  /// Raw token states (for embedding in a serialized grant).
  const Key128& primary_state() const { return primary_.state; }
  const Key128& secondary_state() const { return secondary_.state; }

 private:
  KeyRegressionState primary_;    // discloses indices <= primary_.index
  KeyRegressionState secondary_;  // discloses indices >= secondary_.index
};

/// Owner side of a dual key regression (two chains + checkpoints).
class DualKeyRegression {
 public:
  DualKeyRegression(Key128 primary_seed, Key128 secondary_seed,
                    uint64_t length);

  uint64_t length() const { return length_; }

  /// Key k_j (owner can compute any key); DeriveKeys(j, j).
  Result<Key128> DeriveKey(uint64_t j);

  /// Keys k_lower..k_upper in index order. One checkpointed StateAt per
  /// chain, then one walk down the primary chain and one up the secondary:
  /// about 3*(upper-lower) + 2*sqrt(length) hashes in all once the two
  /// anchors are built, where DeriveKey costs up to 2*sqrt(length) per key.
  /// InvalidArgument if lower > upper, OutOfRange if upper >= length.
  Result<SecretKeys> DeriveKeys(uint64_t lower, uint64_t upper);

  /// Grant the interval [lower, upper]: tokens (s1_upper, s2_lower).
  Result<DualKeyRegressionView> Share(uint64_t lower, uint64_t upper);

 private:
  uint64_t length_;
  HashChain primary_;    // consumed forward: state i discloses <= i
  HashChain secondary_;  // generated forward, so state i discloses >= i
};

}  // namespace tc::crypto
