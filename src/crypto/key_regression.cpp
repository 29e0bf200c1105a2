#include "crypto/key_regression.hpp"

#include <algorithm>
#include <cmath>

#include "crypto/sha256.hpp"

namespace tc::crypto {

namespace {
Key128 Xor(const Key128& a, const Key128& b) {
  Key128 out;
  for (size_t i = 0; i < sizeof(out); ++i) {
    out.secret_bytes()[i] = a.secret_bytes()[i] ^ b.secret_bytes()[i];
  }
  return out;
}
}  // namespace

Key128 HashChain::StepDown(const Key128& state) {
  Key128 next = state;
  Sha256ChainWalk(next, 1);
  return next;
}

Key128 HashChain::KeyOf(const Key128& state) { return Sha256ChainKey(state); }

HashChain::HashChain(Key128 seed, uint64_t length)
    : length_(length), seed_(seed) {
  stride_ = static_cast<uint64_t>(std::sqrt(static_cast<double>(length)));
  if (stride_ == 0) stride_ = 1;
  size_t num_cp = static_cast<size_t>((length - 1) / stride_) + 1;
  checkpoints_.assign(num_cp, Key128{});
  built_from_ = num_cp;
}

Result<Key128> HashChain::StateAt(uint64_t i) {
  if (i >= length_) return OutOfRange("hash chain index out of range");
  // Start from the smallest anchor at-or-above i and walk down. Anchors are
  // the checkpoints plus the seed (state length-1), so the walk is at most
  // stride_ steps: O(sqrt(n)). Anchor j is checkpoint j, or the seed for
  // j = checkpoints_.size().
  const size_t top = checkpoints_.size();
  auto index_of = [&](size_t j) { return j < top ? j * stride_ : length_ - 1; };
  const size_t cp = std::min<uint64_t>((i + stride_ - 1) / stride_, top);
  // Build the checkpoints still missing above i's anchor, each walked down
  // in place from the anchor above it.
  for (; built_from_ > cp; --built_from_) {
    Key128& next = checkpoints_[built_from_ - 1];
    next = built_from_ < top ? checkpoints_[built_from_] : seed_;
    Sha256ChainWalk(next, index_of(built_from_) - index_of(built_from_ - 1));
  }
  Key128 cur = cp < top ? checkpoints_[cp] : seed_;
  Sha256ChainWalk(cur, index_of(cp) - i);
  return cur;
}

Result<Key128> HashChain::Walk(const KeyRegressionState& from,
                               uint64_t target_index) {
  if (target_index > from.index) {
    return PermissionDenied("hash chain cannot be walked forward");
  }
  Key128 cur = from.state;
  Sha256ChainWalk(cur, from.index - target_index);
  return cur;
}

Result<Key128> DualKeyRegressionView::DeriveKey(uint64_t j) const {
  if (j > primary_.index || j < secondary_.index) {
    return PermissionDenied("key index outside shared dual-regression range");
  }
  // Walking down the primary chain moves to lower key indices; the
  // secondary chain runs the other way, so walking down it moves to higher
  // ones.
  Key128 s1 = primary_.state;
  Key128 s2 = secondary_.state;
  Sha256ChainWalkPair(s1, primary_.index - j, s2, j - secondary_.index);
  Key128 mixed = Xor(s1, s2);
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

Result<Key128> DualKeyRegression::DeriveKey(uint64_t j) {
  TC_ASSIGN_OR_RETURN(SecretKeys keys, DeriveKeys(j, j));
  return keys[0];
}

Result<SecretKeys> DualKeyRegression::DeriveKeys(uint64_t lower,
                                                 uint64_t upper) {
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
    mixed = Xor(keys[i], s2);
    keys[i] = HashChain::KeyOf(mixed);
  }
  SecureZero(s2);
  SecureZero(mixed);
  return keys;
}

Result<DualKeyRegressionView> DualKeyRegression::Share(uint64_t lower,
                                                       uint64_t upper) {
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
