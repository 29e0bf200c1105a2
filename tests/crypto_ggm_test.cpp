// GGM key-derivation tree tests: leaf derivation, range covers, token-set
// enforcement, and the sequential iterator fast path. Includes property
// sweeps over random ranges.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "crypto/ggm_tree.hpp"
#include "crypto/rand.hpp"
#include "tests/key_testing.hpp"

namespace tc::crypto {
namespace {

TEST(GgmTree, LeavesAreDeterministic) {
  Key128 seed = RandomKey128();
  GgmTree a(seed, 10);
  GgmTree b(seed, 10);
  for (uint64_t i : {uint64_t{0}, uint64_t{1}, uint64_t{511}, uint64_t{1023}}) {
    EXPECT_EQ(a.DeriveLeaf(i).value(), b.DeriveLeaf(i).value());
  }
}

TEST(GgmTree, LeavesAreDistinct) {
  GgmTree tree(RandomKey128(), 8);
  std::set<std::string> seen;
  for (uint64_t i = 0; i < 256; ++i) {
    Key128 k = tree.DeriveLeaf(i).value();
    seen.insert(ToHex(k));
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(GgmTree, RejectsOutOfRangeLeaf) {
  GgmTree tree(RandomKey128(), 4);
  EXPECT_FALSE(tree.DeriveLeaf(16).ok());
  EXPECT_TRUE(tree.DeriveLeaf(15).ok());
}

TEST(GgmTree, RootNodeIsSeed) {
  Key128 seed = RandomKey128();
  GgmTree tree(seed, 4);
  EXPECT_EQ(tree.DeriveNode(0, 0).value(), seed);
}

TEST(GgmTree, NodeChildrenConsistentWithLeaves) {
  GgmTree tree(RandomKey128(), 6);
  // The subtree rooted at (3, 5) covers leaves [40, 47].
  Key128 node = tree.DeriveNode(3, 5).value();
  TokenSet ts({AccessToken{3, 5, node}}, 6);
  for (uint64_t leaf = 40; leaf <= 47; ++leaf) {
    EXPECT_EQ(ts.DeriveLeaf(leaf).value(), tree.DeriveLeaf(leaf).value());
  }
}

TEST(GgmTree, CoverRangeFullTreeIsSingleToken) {
  GgmTree tree(RandomKey128(), 8);
  auto cover = tree.CoverRange(0, 255).value();
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].depth, 0u);
}

TEST(GgmTree, CoverRangeSingleLeaf) {
  GgmTree tree(RandomKey128(), 8);
  auto cover = tree.CoverRange(77, 77).value();
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].depth, 8u);
  EXPECT_EQ(cover[0].index, 77u);
}

TEST(GgmTree, CoverSizeBoundedBy2H) {
  GgmTree tree(RandomKey128(), 16);
  DeterministicRng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t a = rng.NextBelow(1 << 16);
    uint64_t b = a + rng.NextBelow((1 << 16) - a);
    auto cover = tree.CoverRange(a, b).value();
    EXPECT_LE(cover.size(), 2u * 16u);
  }
}

TEST(GgmTree, RejectsInvertedOrOutOfRangeCover) {
  GgmTree tree(RandomKey128(), 8);
  EXPECT_FALSE(tree.CoverRange(5, 4).ok());
  EXPECT_FALSE(tree.CoverRange(0, 256).ok());
}

// Property: for random ranges, the token cover derives exactly the granted
// leaves — every inside leaf matches the owner's derivation, every outside
// leaf is PermissionDenied.
class GgmCoverProperty : public ::testing::TestWithParam<int> {};

TEST_P(GgmCoverProperty, CoverGrantsExactlyTheRange) {
  constexpr uint32_t kHeight = 10;
  constexpr uint64_t kLeaves = 1 << kHeight;
  GgmTree tree(RandomKey128(), kHeight);
  DeterministicRng rng(GetParam());

  uint64_t a = rng.NextBelow(kLeaves);
  uint64_t b = a + rng.NextBelow(kLeaves - a);
  auto cover = tree.CoverRange(a, b).value();
  TokenSet ts(cover, kHeight);

  // Inside: derivable and equal to owner's keys.
  for (int probe = 0; probe < 32; ++probe) {
    uint64_t i = a + rng.NextBelow(b - a + 1);
    ASSERT_TRUE(ts.Covers(i));
    EXPECT_EQ(ts.DeriveLeaf(i).value(), tree.DeriveLeaf(i).value());
  }
  // Boundaries just outside.
  if (a > 0) {
    EXPECT_FALSE(ts.Covers(a - 1));
    EXPECT_EQ(ts.DeriveLeaf(a - 1).status().code(),
              StatusCode::kPermissionDenied);
  }
  if (b + 1 < kLeaves) {
    EXPECT_FALSE(ts.Covers(b + 1));
    EXPECT_EQ(ts.DeriveLeaf(b + 1).status().code(),
              StatusCode::kPermissionDenied);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRanges, GgmCoverProperty,
                         ::testing::Range(1, 26));

TEST(TokenSet, LeafSpanHelpers) {
  AccessToken t{2, 3, {}};
  // Height 5: token at depth 2, index 3 covers leaves [3*8, 3*8+7].
  EXPECT_EQ(TokenSet::FirstLeaf(t, 5), 24u);
  EXPECT_EQ(TokenSet::LastLeaf(t, 5), 31u);
}

TEST(SequentialLeafIterator, MatchesDirectDerivation) {
  constexpr uint32_t kHeight = 12;
  Key128 seed = RandomKey128();
  GgmTree tree(seed, kHeight);
  SequentialLeafIterator it(seed, 0, 0, kHeight, 0);
  uint64_t count = 0;
  do {
    ASSERT_EQ(it.Current(), tree.DeriveLeaf(it.CurrentIndex()).value())
        << "leaf " << it.CurrentIndex();
    ++count;
  } while (it.Next() && count < 4096);
  EXPECT_EQ(count, 4096u);
}

TEST(SequentialLeafIterator, StartsMidStream) {
  constexpr uint32_t kHeight = 10;
  Key128 seed = RandomKey128();
  GgmTree tree(seed, kHeight);
  SequentialLeafIterator it(seed, 0, 0, kHeight, 777);
  EXPECT_EQ(it.CurrentIndex(), 777u);
  EXPECT_EQ(it.Current(), tree.DeriveLeaf(777).value());
  it.Next();
  EXPECT_EQ(it.Current(), tree.DeriveLeaf(778).value());
}

TEST(SequentialLeafIterator, WorksWithinSubtreeToken) {
  constexpr uint32_t kHeight = 8;
  Key128 seed = RandomKey128();
  GgmTree tree(seed, kHeight);
  // Token subtree at depth 3, index 5 covers leaves [160, 191].
  Key128 node = tree.DeriveNode(3, 5).value();
  SequentialLeafIterator it(node, 3, 5, kHeight, 160);
  for (uint64_t leaf = 160; leaf <= 191; ++leaf) {
    EXPECT_EQ(it.CurrentIndex(), leaf);
    EXPECT_EQ(it.Current(), tree.DeriveLeaf(leaf).value());
    bool more = it.Next();
    EXPECT_EQ(more, leaf != 191);
  }
  EXPECT_TRUE(it.AtEnd());
}

class SequentialLeafIteratorPrg : public ::testing::TestWithParam<PrgKind> {
};

// Walks the iterator from `start` to AtEnd() and checks every leaf against
// a root walk of the same tree.
void ExpectMatchesTree(const GgmTree& tree, SequentialLeafIterator& it,
                       uint64_t start, uint64_t end) {
  uint64_t leaf = start;
  for (; !it.AtEnd(); ++leaf) {
    ASSERT_EQ(it.CurrentIndex(), leaf);
    ASSERT_EQ(it.Current(), tree.DeriveLeaf(leaf).value()) << "leaf " << leaf;
    EXPECT_EQ(it.Next(), leaf + 1 < end) << "leaf " << leaf;
  }
  EXPECT_EQ(leaf, end);
}

TEST_P(SequentialLeafIteratorPrg, MatchesTreeFromEvenAndOddStarts) {
  // Every start from 0 to 70 in a 2^7-leaf tree: even and odd starts, and
  // walks that cross the 2^k boundaries at 8, 16, 32 and 64 up to the end.
  constexpr uint32_t kHeight = 7;
  const Key128 seed = RandomKey128();
  GgmTree tree(seed, kHeight, GetParam());
  for (uint64_t start = 0; start <= 70; ++start) {
    SCOPED_TRACE("start " + std::to_string(start));
    SequentialLeafIterator it(seed, 0, 0, kHeight, start, GetParam());
    ExpectMatchesTree(tree, it, start, uint64_t{1} << kHeight);
  }
}

TEST_P(SequentialLeafIteratorPrg, MatchesTreeInsideATokenSubtree) {
  // Token subtrees at depths 1 to 9 of a height-12 tree, each walked from
  // its first leaf and from an odd leaf inside it up to AtEnd().
  constexpr uint32_t kHeight = 12;
  const Key128 seed = RandomKey128();
  GgmTree tree(seed, kHeight, GetParam());
  for (uint32_t depth = 1; depth <= 9; ++depth) {
    const uint64_t index = (uint64_t{1} << depth) - 2 + (depth % 2);
    const Key128 node = tree.DeriveNode(depth, index).value();
    const AccessToken token{depth, index, node};
    const uint64_t first = TokenSet::FirstLeaf(token, kHeight);
    const uint64_t end = TokenSet::LastLeaf(token, kHeight) + 1;
    for (uint64_t start : {first, first + (end - first) / 2 - 1}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " start " +
                   std::to_string(start));
      SequentialLeafIterator it(node, depth, index, kHeight, start,
                                GetParam());
      ExpectMatchesTree(tree, it, start, end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Prgs, SequentialLeafIteratorPrg,
                         ::testing::Values(PrgKind::kAesNi, PrgKind::kAesSoft),
                         [](const auto& info) {
                           return info.param == PrgKind::kAesNi ? "AesNi"
                                                                : "Soft";
                         });

// Known answers for leaves of a fixed-root height-30 tree, through both
// GgmTree::DeriveLeaf and SequentialLeafIterator, on each AES PRG. The
// leaves sit at the 2^k boundaries the iterator's path crosses (63 -> 64,
// 127 -> 128), at 65,519 -> 65,520 (a query_full prefill's last chunk) and
// at the last leaf. Every stored digest and payload key depends on these.
struct PinnedLeaf {
  uint64_t index;
  const char* hex;
};

constexpr uint32_t kPinHeight = 30;
constexpr PinnedLeaf kPinnedLeaves[] = {
    {0, "2b3ef779e3ccd999a430f47e3263edf9"},
    {1, "5e0a88b4ea981a6fdcf00bf5eec05b76"},
    {63, "9dc81061dd6fcf9a2062855ee27b6535"},
    {64, "82c1a4de795167b5116a77a49a582aad"},
    {127, "c21d2073af9fe840fb099ea5d8573224"},
    {128, "c66232f3a939816dc8cb1b9c86aa9b3a"},
    {65519, "673f4f2e0af4fe205b9c9a6a06ccbe46"},
    {65520, "ecd787dbb4dc693bff4525e7857f65ff"},
    {(uint64_t{1} << kPinHeight) - 1, "44538bc8a90150ba3bd8c953e302e1df"},
};

Key128 PinRoot() {
  Key128 root;
  for (size_t i = 0; i < sizeof(root); ++i) {
    root.secret_bytes()[i] = static_cast<uint8_t>(0x11 * i + 7);
  }
  return root;
}

TEST_P(SequentialLeafIteratorPrg, LeavesArePinned) {
  const GgmTree tree(PinRoot(), kPinHeight, GetParam());
  for (const PinnedLeaf& pin : kPinnedLeaves) {
    EXPECT_EQ(ToHex(*tree.DeriveLeaf(pin.index)), pin.hex)
        << "DeriveLeaf " << pin.index;
  }
  // One walk from leaf 0 over the first six pins, and one from each later
  // pin (65,520 is reached by a step from 65,519).
  SequentialLeafIterator walk(PinRoot(), 0, 0, kPinHeight, 0, GetParam());
  for (size_t p = 0; p < 6; ++p) {
    while (walk.CurrentIndex() < kPinnedLeaves[p].index) {
      ASSERT_TRUE(walk.Next());
    }
    EXPECT_EQ(ToHex(walk.Current()), kPinnedLeaves[p].hex)
        << "iterator " << kPinnedLeaves[p].index;
  }
  SequentialLeafIterator tail(PinRoot(), 0, 0, kPinHeight, 65519, GetParam());
  EXPECT_EQ(ToHex(tail.Current()), kPinnedLeaves[6].hex);
  ASSERT_TRUE(tail.Next());
  EXPECT_EQ(ToHex(tail.Current()), kPinnedLeaves[7].hex);
  SequentialLeafIterator last(PinRoot(), 0, 0, kPinHeight,
                              kPinnedLeaves[8].index, GetParam());
  EXPECT_EQ(ToHex(last.Current()), kPinnedLeaves[8].hex);
  EXPECT_FALSE(last.Next());
}

// Property: Seek lands on the key a root walk derives, whatever leaf the
// path held before: a random leaf ahead or behind, the same leaf again, a
// leaf after Next() ran off the end, or one Next() on from a Seek. Over the
// whole tree and the subtree under a random token, on every PRG.
class SeekProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, PrgKind>> {};

TEST_P(SeekProperty, MatchesDeriveLeaf) {
  const auto [height, kind] = GetParam();
  DeterministicRng rng(height * 3 + static_cast<uint64_t>(kind));
  const GgmTree tree(PinRoot(), height, kind);
  const uint32_t depth = height / 2;
  const uint64_t index = rng.NextBelow(uint64_t{1} << depth);
  const AccessToken whole{0, 0, PinRoot()};
  const AccessToken token{depth, index, *tree.DeriveNode(depth, index)};
  for (const AccessToken& root : {whole, token}) {
    SCOPED_TRACE("root depth " + std::to_string(root.depth));
    const uint64_t first = TokenSet::FirstLeaf(root, height);
    const uint64_t last = TokenSet::LastLeaf(root, height);
    const uint64_t leaves = last - first + 1;
    SequentialLeafIterator it(root.node_key, root.depth, root.index, height,
                              first + rng.NextBelow(leaves), kind);
    for (int step = 0; step < 300; ++step) {
      uint64_t target = first + rng.NextBelow(leaves);
      switch (rng.NextBelow(4)) {
        case 0:  // anywhere: forward or backward
          break;
        case 1:  // the same leaf again
          if (!it.AtEnd()) target = it.CurrentIndex();
          break;
        case 2:  // run off the end first
          it.Seek(last);
          EXPECT_FALSE(it.Next());
          ASSERT_TRUE(it.AtEnd());
          break;
        case 3:  // one Next() on
          if (it.CurrentIndex() < last) {
            ASSERT_TRUE(it.Next());
            target = it.CurrentIndex();
          }
          break;
      }
      it.Seek(target);
      ASSERT_EQ(it.CurrentIndex(), target);
      ASSERT_FALSE(it.AtEnd());
      ASSERT_EQ(it.Current(), *tree.DeriveLeaf(target))
          << "step " << step << " leaf " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    HeightsAndPrgs, SeekProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 12u, 30u),
                       ::testing::Values(PrgKind::kAesNi, PrgKind::kAesSoft,
                                         PrgKind::kSha256)),
    [](const auto& info) {
      const PrgKind kind = std::get<1>(info.param);
      return "h" + std::to_string(std::get<0>(info.param)) +
             (kind == PrgKind::kAesNi     ? "_AesNi"
              : kind == PrgKind::kAesSoft ? "_Soft"
                                          : "_Sha256");
    });

TEST(TokenSet, LeavesAlternatingBetweenTokensMatchTheTree) {
  // A cover of [37, 900] in a height-10 tree has tokens of many depths.
  // Leaves taken from two tokens in turn re-root the held path each time;
  // leaves from one token seek it. Every key matches a root walk, and a
  // leaf outside the cover stays underivable with a path held.
  constexpr uint32_t kHeight = 10;
  const GgmTree tree(RandomKey128(), kHeight);
  auto cover = *tree.CoverRange(37, 900);
  ASSERT_GE(cover.size(), 4u);
  TokenSet ts(cover, kHeight);
  DeterministicRng rng(17);
  for (int step = 0; step < 400; ++step) {
    const AccessToken& t = cover[step % 2 == 0 ? 0 : cover.size() - 1 -
                                                      rng.NextBelow(2)];
    const uint64_t first = TokenSet::FirstLeaf(t, kHeight);
    const uint64_t leaf =
        first + rng.NextBelow(TokenSet::LastLeaf(t, kHeight) - first + 1);
    ASSERT_EQ(*ts.DeriveLeaf(leaf), *tree.DeriveLeaf(leaf)) << "leaf " << leaf;
    if (step % 50 == 0) {
      const uint64_t outside = rng.NextBelow(2) ? 36 : 901 + rng.NextBelow(123);
      EXPECT_EQ(ts.DeriveLeaf(outside).status().code(),
                StatusCode::kPermissionDenied)
          << "leaf " << outside;
    }
  }
  for (uint64_t leaf = 37; leaf <= 900; ++leaf) {
    ASSERT_EQ(*ts.DeriveLeaf(leaf), *tree.DeriveLeaf(leaf)) << "leaf " << leaf;
  }
}

TEST(SequentialLeafIterator, EndOfStreamStops) {
  Key128 seed = RandomKey128();
  SequentialLeafIterator it(seed, 0, 0, 3, 6);
  EXPECT_TRUE(it.Next());   // -> 7
  EXPECT_FALSE(it.Next());  // past the end
  EXPECT_TRUE(it.AtEnd());
}

}  // namespace
}  // namespace tc::crypto
