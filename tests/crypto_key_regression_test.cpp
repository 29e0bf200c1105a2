// Dual key regression tests (§4.4.2, §A.2): bounded-interval key derivation,
// forward/backward secrecy at the interval boundaries, checkpoint
// acceleration consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "crypto/key_regression.hpp"
#include "crypto/rand.hpp"
#include "tests/kernel_arms.hpp"
#include "tests/key_testing.hpp"

namespace tc::crypto {
namespace {

/// The 16 bytes start, start + 1, ..., start + 15.
Key128 Sequence(uint8_t start) {
  Key128 k;
  for (size_t i = 0; i < sizeof(k); ++i) {
    k.secret_bytes()[i] = static_cast<uint8_t>(start + i);
  }
  return k;
}

// Known answers: every stored grant and envelope depends on these bytes, so
// a faster hash must reproduce them exactly, on both kernel arms (the SHA-NI
// chain kernels and the portable SHA-256). StepDown and KeyOf are the two
// halves of SHA-256(00 01 .. 0f).
class HashChainPins : public test::KernelArmTest {};
class DualKeyRegressionPins : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(HashChainPins);
TC_INSTANTIATE_KERNEL_ARMS(DualKeyRegressionPins);

TEST_P(HashChainPins, KnownAnswers) {
  const Key128 state = Sequence(0x00);
  EXPECT_EQ(ToHex(HashChain::StepDown(state)),
            "be45cb2605bf36bebde684841a28f0fd");
  EXPECT_EQ(ToHex(HashChain::KeyOf(state)), "43c69850a3dce5fedba69928ee3a8991");
}

TEST_P(DualKeyRegressionPins, KnownAnswers) {
  DualKeyRegression kr(Sequence(0x10), Sequence(0x20), 16);
  auto keys = kr.DeriveKeys(0, 3);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys->size(), 4u);
  EXPECT_EQ(ToHex((*keys)[0]), "938bcc82e88633fd29f0e2df0cb5a1dd");
  EXPECT_EQ(ToHex((*keys)[1]), "1ae6f99db8f9ea7fdb16e70ccc08b438");
  EXPECT_EQ(ToHex((*keys)[2]), "c2e9f7ab33abf13b4cb55320ee4b7a18");
  EXPECT_EQ(ToHex((*keys)[3]), "34e079dcb419fa2d8ded4f92c6f88a5b");
}

// The resolution keystreams' shape: 2^16 states, a grant over windows
// 0..1092. Pinned from the build that walked every chain in full at
// construction, so building checkpoints on demand must not move a byte.
TEST_P(HashChainPins, LongChainKnownAnswers) {
  HashChain chain(Sequence(0x30), 1 << 16);
  EXPECT_EQ(ToHex(chain.StateAt(65535 - 1092).value()),
            "2a7a645d00b36df2c1a8b62547c41177");
  EXPECT_EQ(ToHex(chain.StateAt(1092).value()),
            "d779a57e563200d976b92062e685a61f");
  EXPECT_EQ(ToHex(chain.StateAt(0).value()),
            "0942ef092c8666febd86c5267664e24e");
}

TEST_P(DualKeyRegressionPins, LongChainKnownAnswers) {
  DualKeyRegression kr(Sequence(0x40), Sequence(0x50), 1 << 16);
  auto view = kr.Share(0, 1092).value();
  EXPECT_EQ(ToHex(view.primary_state()), "9281bc8e0c6fc1839f8a7e0b8eb5bf95");
  EXPECT_EQ(ToHex(view.secondary_state()), "505152535455565758595a5b5c5d5e5f");
  auto low = kr.DeriveKeys(0, 3).value();
  ASSERT_EQ(low.size(), 4u);
  EXPECT_EQ(ToHex(low[0]), "6b5895ae56096dad4f51c5350e70dc86");
  EXPECT_EQ(ToHex(low[3]), "bb590bb1db76afc141de87054e81120d");
  auto high = kr.DeriveKeys(1089, 1092).value();
  ASSERT_EQ(high.size(), 4u);
  EXPECT_EQ(ToHex(high[0]), "009500249d33795181a0d464239fadbf");
  EXPECT_EQ(ToHex(high[3]), "fae0e93c61e6a0391b1724d122345c3e");
}

/// States 0..len-1 of the chain whose top state (len - 1) is `seed`, by
/// stepping down one hash at a time.
std::vector<Key128> WalkByHand(Key128 cur, uint64_t len) {
  std::vector<Key128> states(len);
  for (uint64_t i = len; i-- > 0;) {
    states[i] = cur;
    if (i > 0) cur = HashChain::StepDown(cur);
  }
  return states;
}

// Checkpoints are built from the top down as far as the lowest state asked
// for; every order of requests must see the same states.
TEST(HashChain, StateAtInAnyOrderMatchesHandWalk) {
  constexpr uint64_t kLen = 1000;
  const Key128 seed = Sequence(0x60);
  const std::vector<Key128> states = WalkByHand(seed, kLen);
  HashChain descending(seed, kLen);
  for (uint64_t i = kLen; i-- > 0;) {
    ASSERT_EQ(descending.StateAt(i).value(), states[i]) << "state " << i;
  }
  HashChain ascending(seed, kLen);
  for (uint64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(ascending.StateAt(i).value(), states[i]) << "state " << i;
  }
  HashChain random(seed, kLen);
  DeterministicRng rng(31);
  for (int n = 0; n < 2000; ++n) {
    const uint64_t i = rng.NextBelow(kLen);
    ASSERT_EQ(random.StateAt(i).value(), states[i]) << "state " << i;
  }
}

// Share and DeriveKeys after the chains have been built part of the way
// down: a high state first, then a low one, then both kinds of call again.
TEST(DualKeyRegression, ShareAndDeriveKeysAfterPartialBuild) {
  constexpr uint64_t kLen = 1000;
  const Key128 primary_seed = Sequence(0x70), secondary_seed = Sequence(0x80);
  const std::vector<Key128> primary = WalkByHand(primary_seed, kLen);
  const std::vector<Key128> secondary = WalkByHand(secondary_seed, kLen);
  auto by_hand = [&](uint64_t j) {
    Key128 mixed;
    for (size_t b = 0; b < sizeof(mixed); ++b) {
      mixed.secret_bytes()[b] = primary[j].secret_bytes()[b] ^
                               secondary[kLen - 1 - j].secret_bytes()[b];
    }
    return HashChain::KeyOf(mixed);
  };
  DualKeyRegression kr(primary_seed, secondary_seed, kLen);
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {990, 995}, {3, 40}, {500, 560}, {0, 0}, {998, 999}, {0, kLen - 1}};
  for (auto [lo, hi] : ranges) {
    SCOPED_TRACE(::testing::Message() << "range [" << lo << ", " << hi << "]");
    auto view = kr.Share(lo, hi).value();
    EXPECT_EQ(view.primary_state(), primary[hi]);
    EXPECT_EQ(view.secondary_state(), secondary[kLen - 1 - lo]);
    auto keys = kr.DeriveKeys(lo, hi).value();
    ASSERT_EQ(keys.size(), hi - lo + 1);
    for (uint64_t j = lo; j <= hi; j += 7) {
      EXPECT_EQ(keys[j - lo], by_hand(j)) << "key " << j;
    }
    EXPECT_EQ(keys.back(), by_hand(hi));
    EXPECT_EQ(kr.DeriveKey(lo).value(), by_hand(lo));
  }
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
  std::set<std::string> seen;
  for (uint64_t j = 0; j < 32; ++j) {
    Key128 k = kr.DeriveKey(j).value();
    seen.insert(ToHex(k));
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
      for (size_t b = 0; b < sizeof(mixed); ++b) {
        mixed.secret_bytes()[b] = primary[j].secret_bytes()[b] ^
                                  secondary[len - 1 - j].secret_bytes()[b];
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
