// Dual key regression tests (§4.4.2, §A.2): bounded-interval key derivation,
// forward/backward secrecy at the interval boundaries, checkpoint
// acceleration consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "crypto/key_regression.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {
namespace {

/// The 16 bytes start, start + 1, ..., start + 15.
Key128 Sequence(uint8_t start) {
  Key128 k;
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(start + i);
  return k;
}

// Known answers: every stored grant and envelope depends on these bytes, so
// a faster hash must reproduce them exactly. StepDown and KeyOf are the two
// halves of SHA-256(00 01 .. 0f).
TEST(HashChain, KnownAnswers) {
  const Key128 state = Sequence(0x00);
  EXPECT_EQ(ToHex(HashChain::StepDown(state)),
            "be45cb2605bf36bebde684841a28f0fd");
  EXPECT_EQ(ToHex(HashChain::KeyOf(state)), "43c69850a3dce5fedba69928ee3a8991");
}

TEST(DualKeyRegression, KnownAnswers) {
  DualKeyRegression kr(Sequence(0x10), Sequence(0x20), 16);
  auto keys = kr.DeriveKeys(0, 3);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys->size(), 4u);
  EXPECT_EQ(ToHex((*keys)[0]), "938bcc82e88633fd29f0e2df0cb5a1dd");
  EXPECT_EQ(ToHex((*keys)[1]), "1ae6f99db8f9ea7fdb16e70ccc08b438");
  EXPECT_EQ(ToHex((*keys)[2]), "c2e9f7ab33abf13b4cb55320ee4b7a18");
  EXPECT_EQ(ToHex((*keys)[3]), "34e079dcb419fa2d8ded4f92c6f88a5b");
}

TEST(HashChain, StateAtMatchesManualWalk) {
  Key128 seed = RandomKey128();
  constexpr uint64_t kLen = 100;
  HashChain chain(seed, kLen);

  // Manually walk from the seed (state 99) down to every state.
  Key128 cur = seed;
  std::vector<Key128> states(kLen);
  for (uint64_t i = kLen; i-- > 0;) {
    states[i] = cur;
    if (i > 0) cur = HashChain::StepDown(cur);
  }
  for (uint64_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(chain.StateAt(i).value(), states[i]) << "state " << i;
  }
}

TEST(HashChain, RejectsOutOfRange) {
  HashChain chain(RandomKey128(), 10);
  EXPECT_FALSE(chain.StateAt(10).ok());
  EXPECT_TRUE(chain.StateAt(9).ok());
}

TEST(HashChain, WalkOnlyGoesDown) {
  HashChain chain(RandomKey128(), 50);
  KeyRegressionState s{chain.StateAt(30).value(), 30};
  EXPECT_EQ(HashChain::Walk(s, 10).value(), chain.StateAt(10).value());
  EXPECT_FALSE(HashChain::Walk(s, 31).ok());
}

TEST(HashChain, LengthOneChain) {
  HashChain chain(RandomKey128(), 1);
  EXPECT_TRUE(chain.StateAt(0).ok());
}

TEST(DualKeyRegression, OwnerDerivesAllKeysDeterministically) {
  Key128 p = RandomKey128(), s = RandomKey128();
  DualKeyRegression a(p, s, 64);
  DualKeyRegression b(p, s, 64);
  for (uint64_t j = 0; j < 64; ++j) {
    EXPECT_EQ(a.DeriveKey(j).value(), b.DeriveKey(j).value());
  }
}

TEST(DualKeyRegression, KeysAreDistinct) {
  DualKeyRegression kr(RandomKey128(), RandomKey128(), 32);
  std::set<Bytes> seen;
  for (uint64_t j = 0; j < 32; ++j) {
    Key128 k = kr.DeriveKey(j).value();
    seen.insert(Bytes(k.begin(), k.end()));
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(DualKeyRegression, SharedViewDerivesExactInterval) {
  constexpr uint64_t kLen = 200;
  DualKeyRegression kr(RandomKey128(), RandomKey128(), kLen);
  auto view = kr.Share(50, 120).value();
  EXPECT_EQ(view.lower(), 50u);
  EXPECT_EQ(view.upper(), 120u);

  for (uint64_t j = 50; j <= 120; ++j) {
    EXPECT_EQ(view.DeriveKey(j).value(), kr.DeriveKey(j).value())
        << "key " << j;
  }
  // Outside the interval: computationally unreachable, API denies.
  EXPECT_EQ(view.DeriveKey(49).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(view.DeriveKey(121).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(DualKeyRegression, SingleKeyShare) {
  DualKeyRegression kr(RandomKey128(), RandomKey128(), 100);
  auto view = kr.Share(42, 42).value();
  EXPECT_EQ(view.DeriveKey(42).value(), kr.DeriveKey(42).value());
  EXPECT_FALSE(view.DeriveKey(41).ok());
  EXPECT_FALSE(view.DeriveKey(43).ok());
}

TEST(DualKeyRegression, FullRangeShare) {
  constexpr uint64_t kLen = 75;
  DualKeyRegression kr(RandomKey128(), RandomKey128(), kLen);
  auto view = kr.Share(0, kLen - 1).value();
  for (uint64_t j = 0; j < kLen; j += 7) {
    EXPECT_EQ(view.DeriveKey(j).value(), kr.DeriveKey(j).value());
  }
}

TEST(DualKeyRegression, InvalidRangesAreRejected) {
  DualKeyRegression kr(RandomKey128(), RandomKey128(), 10);
  EXPECT_FALSE(kr.Share(5, 4).ok());
  EXPECT_FALSE(kr.Share(0, 10).ok());
  EXPECT_EQ(kr.DeriveKey(10).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kr.DeriveKeys(5, 4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(kr.DeriveKeys(0, 10).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kr.DeriveKeys(10, 10).status().code(), StatusCode::kOutOfRange);
}

// DeriveKeys against two independent derivations: the consumer's view,
// which walks down from the two disclosed states, and both chains walked
// by hand from their seeds. Lengths are not multiples of the checkpoint
// stride floor(sqrt(length)) (8, 22, 31), so the top anchor is the seed.
TEST(DualKeyRegression, DeriveKeysMatchesViewAndHandWalkedChains) {
  for (uint64_t len : {75u, 512u, 1000u}) {
    Key128 primary_seed = RandomKey128(), secondary_seed = RandomKey128();
    DualKeyRegression kr(primary_seed, secondary_seed, len);
    auto walk = [len](Key128 cur) {
      std::vector<Key128> states(len);
      for (uint64_t i = len; i-- > 0;) {
        states[i] = cur;
        if (i > 0) cur = HashChain::StepDown(cur);
      }
      return states;
    };
    std::vector<Key128> primary = walk(primary_seed);
    std::vector<Key128> secondary = walk(secondary_seed);
    auto by_hand = [&](uint64_t j) {
      Key128 mixed;
      for (size_t b = 0; b < mixed.size(); ++b) {
        mixed[b] = primary[j][b] ^ secondary[len - 1 - j][b];
      }
      return HashChain::KeyOf(mixed);
    };

    const uint64_t stride = static_cast<uint64_t>(std::sqrt(len));
    const std::pair<uint64_t, uint64_t> ranges[] = {
        {0, 0},
        {len - 1, len - 1},
        {0, len - 1},
        {stride - 1, stride + 1},          // one checkpoint inside
        {stride + 1, 3 * stride + 2},      // two, neither at an end
        {2 * stride, 4 * stride},          // starts and ends on one
        {len - stride - 2, len - 1},       // last checkpoint, then the seed
    };
    for (auto [lo, hi] : ranges) {
      auto keys = kr.DeriveKeys(lo, hi);
      ASSERT_TRUE(keys.ok()) << keys.status().ToString();
      ASSERT_EQ(keys->size(), hi - lo + 1);
      auto view = kr.Share(lo, hi).value();
      for (uint64_t j = lo; j <= hi; ++j) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " range [" << lo
                                          << ", " << hi << "] key " << j);
        EXPECT_EQ((*keys)[j - lo], view.DeriveKey(j).value());
        EXPECT_EQ((*keys)[j - lo], by_hand(j));
      }
    }
  }
}

TEST(DualKeyRegression, DistinctSeedsDistinctKeystreams) {
  DualKeyRegression a(RandomKey128(), RandomKey128(), 16);
  DualKeyRegression b(RandomKey128(), RandomKey128(), 16);
  EXPECT_NE(a.DeriveKey(3).value(), b.DeriveKey(3).value());
}

// Two principals with different intervals derive identical keys in the
// overlap — the mechanism that lets a new consumer be granted a different
// window over the same resolution keystream.
TEST(DualKeyRegression, OverlappingViewsAgree) {
  DualKeyRegression kr(RandomKey128(), RandomKey128(), 300);
  auto doctor = kr.Share(10, 200).value();
  auto trainer = kr.Share(150, 250).value();
  for (uint64_t j = 150; j <= 200; j += 10) {
    EXPECT_EQ(doctor.DeriveKey(j).value(), trainer.DeriveKey(j).value());
  }
}

// Property sweep over random intervals.
class DualKrProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualKrProperty, RandomIntervalsEnforceBounds) {
  constexpr uint64_t kLen = 512;
  DeterministicRng rng(GetParam());
  DualKeyRegression kr(RandomKey128(), RandomKey128(), kLen);
  uint64_t lo = rng.NextBelow(kLen);
  uint64_t hi = lo + rng.NextBelow(kLen - lo);
  auto view = kr.Share(lo, hi).value();

  uint64_t probe = lo + rng.NextBelow(hi - lo + 1);
  EXPECT_EQ(view.DeriveKey(probe).value(), kr.DeriveKey(probe).value());
  auto keys = kr.DeriveKeys(lo, hi).value();
  ASSERT_EQ(keys.size(), hi - lo + 1);
  EXPECT_EQ(keys.front(), view.DeriveKey(lo).value());
  EXPECT_EQ(keys[probe - lo], view.DeriveKey(probe).value());
  EXPECT_EQ(keys.back(), view.DeriveKey(hi).value());
  if (lo > 0) EXPECT_FALSE(view.DeriveKey(rng.NextBelow(lo)).ok());
  if (hi + 1 < kLen) {
    EXPECT_FALSE(view.DeriveKey(hi + 1 + rng.NextBelow(kLen - hi - 1)).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIntervals, DualKrProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace tc::crypto
