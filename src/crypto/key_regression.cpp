#include "crypto/key_regression.hpp"

#include <cmath>
#include <cstring>

#include "crypto/sha256.hpp"

namespace tc::crypto {

namespace {
Key128 Msb128(const Sha256Digest& d) {
  Key128 k;
  std::memcpy(k.data(), d.data(), 16);
  return k;
}
Key128 Lsb128(const Sha256Digest& d) {
  Key128 k;
  std::memcpy(k.data(), d.data() + 16, 16);
  return k;
}
}  // namespace

Key128 HashChain::StepDown(const Key128& state) {
  return Msb128(Sha256(state));
}

Key128 HashChain::KeyOf(const Key128& state) {
  return Lsb128(Sha256(state));
}

HashChain::HashChain(Key128 seed, uint64_t length)
    : length_(length), seed_(seed) {
  stride_ = static_cast<uint64_t>(std::sqrt(static_cast<double>(length)));
  if (stride_ == 0) stride_ = 1;
  // Generate from the top (index length-1 = seed) down to 0, recording
  // every stride-th state. checkpoints_[j] holds state j*stride_.
  size_t num_cp = static_cast<size_t>((length - 1) / stride_) + 1;
  checkpoints_.assign(num_cp, Key128{});
  Key128 cur = seed;
  for (uint64_t i = length; i-- > 0;) {
    if (i % stride_ == 0) checkpoints_[i / stride_] = cur;
    if (i > 0) cur = StepDown(cur);
  }
  SecureZero(cur);
}

Result<Key128> HashChain::StateAt(uint64_t i) const {
  if (i >= length_) return OutOfRange("hash chain index out of range");
  // Start from the smallest anchor at-or-above i and walk down. Anchors are
  // the checkpoints plus the seed (state length-1), so the walk is at most
  // stride_ steps: O(sqrt(n)).
  uint64_t cp = (i + stride_ - 1) / stride_;  // ceil(i / stride)
  uint64_t anchor_index;
  Key128 cur;
  if (cp < checkpoints_.size()) {
    anchor_index = cp * stride_;
    cur = checkpoints_[cp];
  } else {
    anchor_index = length_ - 1;
    cur = seed_;
  }
  for (uint64_t step = anchor_index; step > i; --step) cur = StepDown(cur);
  return cur;
}

Result<Key128> HashChain::Walk(const KeyRegressionState& from,
                               uint64_t target_index) {
  if (target_index > from.index) {
    return PermissionDenied("hash chain cannot be walked forward");
  }
  Key128 cur = from.state;
  for (uint64_t i = from.index; i > target_index; --i) cur = StepDown(cur);
  return cur;
}

Result<Key128> DualKeyRegressionView::DeriveKey(uint64_t j) const {
  if (j > primary_.index || j < secondary_.index) {
    return PermissionDenied("key index outside shared dual-regression range");
  }
  TC_ASSIGN_OR_RETURN(Key128 s1, HashChain::Walk(primary_, j));
  // The secondary chain runs in the opposite direction: walking "down" its
  // chain moves to *higher* key indices. Translate: secondary state for key
  // index j lives at chain position (length-independent) — we store the
  // secondary state indexed by key index directly and walk the chain by
  // (j - secondary_.index) steps.
  KeyRegressionState sec{secondary_.state,
                         /*index as walkable distance=*/secondary_.index};
  // Walk forward in key-index space = step down the secondary chain.
  Key128 s2 = sec.state;
  for (uint64_t i = secondary_.index; i < j; ++i) s2 = HashChain::StepDown(s2);
  Key128 mixed;
  for (size_t b = 0; b < mixed.size(); ++b) mixed[b] = s1[b] ^ s2[b];
  Key128 out = HashChain::KeyOf(mixed);
  SecureZero(s1);
  SecureZero(s2);
  SecureZero(mixed);
  return out;
}

DualKeyRegression::DualKeyRegression(Key128 primary_seed, Key128 secondary_seed,
                                     uint64_t length)
    : length_(length),
      primary_(primary_seed, length),
      secondary_(secondary_seed, length) {}

Result<Key128> DualKeyRegression::DeriveKey(uint64_t j) const {
  TC_ASSIGN_OR_RETURN(SecretKeys keys, DeriveKeys(j, j));
  return keys[0];
}

Result<SecretKeys> DualKeyRegression::DeriveKeys(uint64_t lower,
                                                 uint64_t upper) const {
  if (lower > upper) return InvalidArgument("lower > upper in key range");
  if (upper >= length_) return OutOfRange("key index out of range");
  // keys[i] first holds primary state lower+i, walked down from upper.
  SecretKeys keys(upper - lower + 1);
  TC_ASSIGN_OR_RETURN(Key128 s1, primary_.StateAt(upper));
  for (size_t i = keys.size(); i-- > 0;) {
    keys[i] = s1;
    if (i > 0) s1 = HashChain::StepDown(s1);
  }
  SecureZero(s1);
  // Secondary chain consumed in reverse: key index j uses secondary state
  // at chain position length-1-j, i.e. walking down the secondary chain
  // moves forward in key-index space.
  TC_ASSIGN_OR_RETURN(Key128 s2, secondary_.StateAt(length_ - 1 - lower));
  Key128 mixed;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) s2 = HashChain::StepDown(s2);
    for (size_t b = 0; b < mixed.size(); ++b) mixed[b] = keys[i][b] ^ s2[b];
    keys[i] = HashChain::KeyOf(mixed);
  }
  SecureZero(s2);
  SecureZero(mixed);
  return keys;
}

Result<DualKeyRegressionView> DualKeyRegression::Share(uint64_t lower,
                                                       uint64_t upper) const {
  if (lower > upper) return InvalidArgument("lower > upper in share range");
  if (upper >= length_) return OutOfRange("share range exceeds chain length");
  TC_ASSIGN_OR_RETURN(Key128 s1, primary_.StateAt(upper));
  TC_ASSIGN_OR_RETURN(Key128 s2, secondary_.StateAt(length_ - 1 - lower));
  DualKeyRegressionView view(KeyRegressionState{s1, upper},
                             KeyRegressionState{s2, lower});
  SecureZero(s1);
  SecureZero(s2);
  return view;
}

}  // namespace tc::crypto
