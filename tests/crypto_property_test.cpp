// Property-style sweeps over the crypto substrate: invariants that must
// hold for every PRG construction, tree height, token cover, and key
// regression interval — parameterized gtest (TEST_P) as the probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "crypto/key_regression.hpp"
#include "crypto/prg.hpp"
#include "crypto/rand.hpp"
#include "crypto/sealed_box.hpp"
#include "tests/key_testing.hpp"

namespace tc::crypto {
namespace {

/// gtest parameterized-test names must be alphanumeric; "AES-NI" is not.
std::string SafeName(PrgKind kind) {
  std::string name(PrgKindName(kind));
  std::erase_if(name, [](char c) { return !std::isalnum(c); });
  return name;
}

// ---------------------------------------------------------------- GGM x PRG

/// Every invariant below must hold regardless of the PRG construction
/// (Fig 6 compares AES-NI, software AES, SHA-256 — all must be equivalent
/// in correctness, differing only in speed).
class GgmPrgProperty
    : public ::testing::TestWithParam<std::tuple<PrgKind, uint32_t>> {
 protected:
  PrgKind kind() const { return std::get<0>(GetParam()); }
  uint32_t height() const { return std::get<1>(GetParam()); }
};

TEST_P(GgmPrgProperty, LeafDerivationIsDeterministic) {
  Key128 seed{};
  seed.secret_bytes()[0] = 0x42;
  GgmTree a(seed, height(), kind());
  GgmTree b(seed, height(), kind());
  for (uint64_t leaf : {uint64_t{0}, uint64_t{1}, a.num_leaves() - 1}) {
    EXPECT_EQ(a.DeriveLeaf(leaf).value(), b.DeriveLeaf(leaf).value());
  }
}

TEST_P(GgmPrgProperty, DistinctLeavesDistinctKeys) {
  GgmTree tree(RandomKey128(), height(), kind());
  std::set<std::string> seen;
  uint64_t n = std::min<uint64_t>(tree.num_leaves(), 64);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(seen.insert(ToHex(tree.DeriveLeaf(i).value())).second)
        << "duplicate key at leaf " << i;
  }
}

TEST_P(GgmPrgProperty, SequentialIteratorMatchesRandomAccess) {
  Key128 seed = RandomKey128();
  GgmTree tree(seed, height(), kind());
  uint64_t n = std::min<uint64_t>(tree.num_leaves(), 200);
  SequentialLeafIterator it(seed, 0, 0, height(), 0, kind());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(it.CurrentIndex(), i);
    EXPECT_EQ(it.Current(), tree.DeriveLeaf(i).value()) << "leaf " << i;
    it.Next();
  }
}

TEST_P(GgmPrgProperty, SequentialIteratorFromArbitraryStart) {
  Key128 seed = RandomKey128();
  GgmTree tree(seed, height(), kind());
  uint64_t start = tree.num_leaves() / 3;
  uint64_t n = std::min<uint64_t>(tree.num_leaves() - start, 50);
  SequentialLeafIterator it(seed, 0, 0, height(), start, kind());
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(it.Current(), tree.DeriveLeaf(start + i).value());
    it.Next();
  }
}

TEST_P(GgmPrgProperty, TokenSetDerivesExactlyTheCoveredLeaves) {
  GgmTree tree(RandomKey128(), height(), kind());
  DeterministicRng rng(height() * 131 + static_cast<int>(kind()));
  uint64_t n = tree.num_leaves();
  uint64_t first = rng.NextBelow(n);
  uint64_t last = first + rng.NextBelow(n - first);

  auto cover = tree.CoverRange(first, last);
  ASSERT_TRUE(cover.ok());
  TokenSet tokens(*cover, height(), kind());

  // Inside: derivable and equal to the owner's keys.
  for (uint64_t leaf : {first, last, (first + last) / 2}) {
    auto key = tokens.DeriveLeaf(leaf);
    ASSERT_TRUE(key.ok()) << "leaf " << leaf;
    EXPECT_EQ(*key, tree.DeriveLeaf(leaf).value());
  }
  // Outside: underivable.
  if (first > 0) {
    EXPECT_FALSE(tokens.DeriveLeaf(first - 1).ok());
  }
  if (last + 1 < n) {
    EXPECT_FALSE(tokens.DeriveLeaf(last + 1).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrgsAndHeights, GgmPrgProperty,
    ::testing::Combine(::testing::Values(PrgKind::kAesNi, PrgKind::kAesSoft,
                                         PrgKind::kSha256),
                       ::testing::Values(4u, 10u, 20u, 31u)),
    [](const auto& info) {
      return SafeName(std::get<0>(info.param)) + "h" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------ cover bounds

class CoverRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoverRangeProperty, CanonicalCoverIsMinimalAndExact) {
  constexpr uint32_t kHeight = 16;
  GgmTree tree(RandomKey128(), kHeight);
  DeterministicRng rng(GetParam());
  uint64_t n = tree.num_leaves();
  uint64_t first = rng.NextBelow(n);
  uint64_t last = first + rng.NextBelow(n - first);

  auto cover = tree.CoverRange(first, last);
  ASSERT_TRUE(cover.ok());

  // At most 2*height tokens (canonical segment cover bound).
  EXPECT_LE(cover->size(), 2 * kHeight);

  // Tokens tile [first, last] exactly: disjoint, sorted, gap-free.
  uint64_t expect_next = first;
  for (const auto& token : *cover) {
    EXPECT_EQ(TokenSet::FirstLeaf(token, kHeight), expect_next);
    expect_next = TokenSet::LastLeaf(token, kHeight) + 1;
  }
  EXPECT_EQ(expect_next, last + 1);
}

INSTANTIATE_TEST_SUITE_P(RandomRanges, CoverRangeProperty,
                         ::testing::Range(0, 25));

TEST(CoverRange, SingleLeafAndFullTreeEdges) {
  constexpr uint32_t kHeight = 8;
  GgmTree tree(RandomKey128(), kHeight);

  auto single = tree.CoverRange(5, 5);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->size(), 1u);
  EXPECT_EQ((*single)[0].depth, kHeight);

  auto full = tree.CoverRange(0, tree.num_leaves() - 1);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), 1u);
  EXPECT_EQ((*full)[0].depth, 0u);  // the root covers everything

  EXPECT_FALSE(tree.CoverRange(3, 2).ok());                  // inverted
  EXPECT_FALSE(tree.CoverRange(0, tree.num_leaves()).ok());  // past the end
}

// ------------------------------------------------- dual key regression

class DualKeyRegressionProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualKeyRegressionProperty, ViewDerivesExactlyTheSharedInterval) {
  constexpr uint64_t kLength = 512;
  DualKeyRegression owner(RandomKey128(), RandomKey128(), kLength);
  DeterministicRng rng(GetParam() * 7919);
  uint64_t lower = rng.NextBelow(kLength);
  uint64_t upper = lower + rng.NextBelow(kLength - lower);

  auto view = owner.Share(lower, upper);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->lower(), lower);
  EXPECT_EQ(view->upper(), upper);

  for (uint64_t j : {lower, upper, (lower + upper) / 2}) {
    auto key = view->DeriveKey(j);
    ASSERT_TRUE(key.ok()) << "index " << j;
    EXPECT_EQ(*key, owner.DeriveKey(j).value());
  }
  if (lower > 0) {
    EXPECT_FALSE(view->DeriveKey(lower - 1).ok());
  }
  if (upper + 1 < kLength) {
    EXPECT_FALSE(view->DeriveKey(upper + 1).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIntervals, DualKeyRegressionProperty,
                         ::testing::Range(0, 20));

TEST(DualKeyRegression, DisjointIntervalsNeedSeparateInstances) {
  // §A.2: "it is not possible to share two distinct intervals of keys" from
  // one dual key regression — a view of [10, 20] must not reach [30, 40].
  DualKeyRegression owner(RandomKey128(), RandomKey128(), 64);
  auto early = owner.Share(10, 20);
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early->DeriveKey(30).ok());
  EXPECT_FALSE(early->DeriveKey(40).ok());
}

TEST(HashChain, StateAtMatchesConsumerWalk) {
  HashChain chain(RandomKey128(), 300);
  // Owner-side StateAt (checkpointed) must agree with a consumer walking
  // down from a disclosed state.
  auto high = chain.StateAt(250);
  ASSERT_TRUE(high.ok());
  KeyRegressionState disclosed{*high, 250};
  for (uint64_t target : {uint64_t{0}, uint64_t{100}, uint64_t{249}}) {
    auto walked = HashChain::Walk(disclosed, target);
    ASSERT_TRUE(walked.ok());
    EXPECT_EQ(*walked, chain.StateAt(target).value());
  }
  // Walking *up* is impossible by construction; the API rejects it.
  EXPECT_FALSE(HashChain::Walk(disclosed, 251).ok());
}

// --------------------------------------------------------- HEAC x PRG kind

class HeacPrgProperty : public ::testing::TestWithParam<PrgKind> {};

TEST_P(HeacPrgProperty, TelescopingHoldsUnderEveryPrg) {
  GgmTree tree(RandomKey128(), 12, GetParam());
  HeacCodec codec(1);
  auto leaf = [&](uint64_t i) { return tree.DeriveLeaf(i).value(); };

  HeacCiphertext agg = codec.Encrypt(std::vector<uint64_t>{7}, 0, leaf(0),
                                     leaf(1));
  for (uint64_t i = 1; i < 50; ++i) {
    auto c = codec.Encrypt(std::vector<uint64_t>{7}, i, leaf(i), leaf(i + 1));
    ASSERT_TRUE(HeacAddInPlace(agg, c).ok());
  }
  EXPECT_EQ(codec.Decrypt(agg, leaf(0), leaf(50))[0], 350u);
}

INSTANTIATE_TEST_SUITE_P(AllPrgs, HeacPrgProperty,
                         ::testing::Values(PrgKind::kAesNi, PrgKind::kAesSoft,
                                           PrgKind::kSha256),
                         [](const auto& info) { return SafeName(info.param); });

// ----------------------------------------------------------- sealed boxes

class SealedBoxProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SealedBoxProperty, RoundTripsArbitrarySizes) {
  BoxKeyPair recipient = GenerateBoxKeyPair();
  Bytes msg(GetParam());
  DeterministicRng(GetParam() + 1).Fill(msg);

  auto sealed = SealToPublicKey(recipient.public_key, msg);
  ASSERT_TRUE(sealed.ok());
  auto opened = OpenSealed(recipient, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

TEST_P(SealedBoxProperty, TamperAnywhereBreaksOpening) {
  BoxKeyPair recipient = GenerateBoxKeyPair();
  Bytes msg(std::max<size_t>(GetParam(), 1));
  DeterministicRng(GetParam() + 2).Fill(msg);
  auto sealed = SealToPublicKey(recipient.public_key, msg);
  ASSERT_TRUE(sealed.ok());

  // Flip one byte in each region: ephemeral key, nonce, ciphertext, tag.
  for (size_t pos : {size_t{0}, size_t{33}, sealed->size() / 2,
                     sealed->size() - 1}) {
    Bytes tampered = *sealed;
    tampered[pos] ^= 1;
    EXPECT_FALSE(OpenSealed(recipient, tampered).ok()) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealedBoxProperty,
                         ::testing::Values(0, 1, 16, 100, 4096));

TEST(SealedBox, WrongRecipientCannotOpen) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  BoxKeyPair eve = GenerateBoxKeyPair();
  auto sealed = SealToPublicKey(alice.public_key, ToBytes("secret"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(OpenSealed(eve, *sealed).ok());
}

// ------------------------------------------------------------- Fold64 bits

TEST(Fold64Property, OutputBitsAreBalanced) {
  // The length-matching hash (§A.1.5) must preserve uniformity: over many
  // PRF outputs each output bit should be ~50/50. A fixed root key keeps the
  // check deterministic, and the bound is sized for the MAX deviation over
  // 64 bits (Bonferroni): a per-bit 3-sigma bound trips for some bit in
  // ~16% of random keys, which made this test flaky.
  constexpr int kSamples = 4096;
  Key128 root{};
  for (size_t i = 0; i < sizeof(root); ++i) {
    root.secret_bytes()[i] = static_cast<uint8_t>(i * 17 + 3);
  }
  GgmTree tree(root, 13);
  std::array<int, 64> ones{};
  for (int i = 0; i < kSamples; ++i) {
    uint64_t folded = Fold64(tree.DeriveLeaf(i).value().secret_bytes());
    for (int b = 0; b < 64; ++b) ones[b] += (folded >> b) & 1;
  }
  // sigma = sqrt(n*p*q) = sqrt(4096*0.25) = 32; 4.5-sigma = 144 keeps the
  // per-run false-positive rate for max-over-64-bits below ~0.1%.
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(ones[b], kSamples / 2, 144) << "bit " << b;
  }
}

}  // namespace
}  // namespace tc::crypto
