// HEAC tests: encrypt/decrypt round trips, the key-canceling telescoping
// property over ranges, homomorphic addition, per-field key independence,
// and the access-control interaction with GGM tokens. Every test that
// derives leaves or field keys runs on both kernel arms: the AES-NI GGM
// step and field keys, and the software AES.
#include <gtest/gtest.h>

#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "crypto/rand.hpp"
#include "tests/kernel_arms.hpp"

namespace tc::crypto {
namespace {

constexpr uint32_t kHeight = 12;

class HeacTest : public test::KernelArmTest {
 protected:
  HeacTest() : tree_(RandomKey128(), kHeight) {}

  Key128 Leaf(uint64_t i) { return tree_.DeriveLeaf(i).value(); }

  HeacCiphertext EncryptChunk(uint64_t chunk,
                              std::vector<uint64_t> fields) {
    HeacCodec codec(fields.size());
    return codec.Encrypt(fields, chunk, Leaf(chunk), Leaf(chunk + 1));
  }

  GgmTree tree_;
};

TC_INSTANTIATE_KERNEL_ARMS(HeacTest);

TEST_P(HeacTest, SingleChunkRoundTrip) {
  HeacCodec codec(3);
  std::vector<uint64_t> m = {42, 7, 1};
  auto c = codec.Encrypt(m, 5, Leaf(5), Leaf(6));
  EXPECT_NE(c.fields, m);  // actually encrypted
  auto back = codec.Decrypt(c, Leaf(5), Leaf(6));
  EXPECT_EQ(back, m);
}

TEST_P(HeacTest, CiphertextHidesPlaintext) {
  HeacCodec codec(1);
  auto c1 = codec.Encrypt(std::vector<uint64_t>{0}, 0, Leaf(0), Leaf(1));
  auto c2 = codec.Encrypt(std::vector<uint64_t>{0}, 1, Leaf(1), Leaf(2));
  // Same plaintext, different positions -> different ciphertexts.
  EXPECT_NE(c1.fields, c2.fields);
}

TEST_P(HeacTest, TelescopingSumNeedsOnlyOuterKeys) {
  constexpr uint64_t kN = 100;
  HeacCodec codec(1);
  uint64_t expected = 0;
  HeacCiphertext agg = EncryptChunk(0, {10});
  expected += 10;
  for (uint64_t i = 1; i < kN; ++i) {
    uint64_t v = i * 3 + 1;
    expected += v;
    ASSERT_TRUE(HeacAddInPlace(agg, EncryptChunk(i, {v})).ok());
  }
  // Only leaves 0 and kN are needed — the inner 99 keys canceled out.
  auto m = codec.Decrypt(agg, Leaf(0), Leaf(kN));
  EXPECT_EQ(m[0], expected);
}

TEST_P(HeacTest, MidRangeAggregateDecrypts) {
  HeacCodec codec(2);
  HeacCiphertext agg = EncryptChunk(10, {1, 100});
  ASSERT_TRUE(HeacAddInPlace(agg, EncryptChunk(11, {2, 200})).ok());
  ASSERT_TRUE(HeacAddInPlace(agg, EncryptChunk(12, {3, 300})).ok());
  auto m = codec.Decrypt(agg, Leaf(10), Leaf(13));
  EXPECT_EQ(m, (std::vector<uint64_t>{6, 600}));
}

TEST_P(HeacTest, WrongOuterKeysGiveGarbage) {
  HeacCodec codec(1);
  auto c = EncryptChunk(4, {1234});
  auto wrong = codec.Decrypt(c, Leaf(3), Leaf(5));
  EXPECT_NE(wrong[0], 1234u);
}

TEST_P(HeacTest, NonContiguousAddRejected) {
  auto a = EncryptChunk(0, {1});
  auto b = EncryptChunk(2, {2});  // gap at chunk 1
  EXPECT_FALSE(HeacAdd(a, b).ok());
}

TEST_P(HeacTest, FieldCountMismatchRejected) {
  auto a = EncryptChunk(0, {1});
  auto b = EncryptChunk(1, {1, 2});
  EXPECT_FALSE(HeacAdd(a, b).ok());
}

TEST_P(HeacTest, ModularWraparoundMatchesPlaintextRing) {
  // Values near 2^64 wrap exactly like plaintext uint64 arithmetic (§4.2.1:
  // "there will be an overflow (modulo M), if the aggregated values grow
  // larger than M" — same as plaintext).
  HeacCodec codec(1);
  uint64_t big = ~uint64_t{0} - 5;  // 2^64 - 6
  HeacCiphertext agg = EncryptChunk(0, {big});
  ASSERT_TRUE(HeacAddInPlace(agg, EncryptChunk(1, {20})).ok());
  auto m = codec.Decrypt(agg, Leaf(0), Leaf(2));
  EXPECT_EQ(m[0], big + 20);  // wrapped
}

TEST_P(HeacTest, FieldsUseIndependentKeystreams) {
  HeacCodec codec(2);
  auto c = codec.Encrypt(std::vector<uint64_t>{5, 5}, 0, Leaf(0), Leaf(1));
  // Same plaintext in both fields must yield different ciphertexts.
  EXPECT_NE(c.fields[0], c.fields[1]);
}

TEST_P(HeacTest, ConsumerWithTokensCanDecryptGrantedRange) {
  // Grant chunks [8, 16): consumer needs leaves 8..16 (outer key of the last
  // chunk is leaf 16).
  auto cover = tree_.CoverRange(8, 16).value();
  TokenSet tokens(cover, kHeight);
  HeacCodec codec(1);

  HeacCiphertext agg = EncryptChunk(8, {11});
  for (uint64_t i = 9; i < 16; ++i) {
    ASSERT_TRUE(HeacAddInPlace(agg, EncryptChunk(i, {11})).ok());
  }
  auto m = codec.Decrypt(agg, tokens.DeriveLeaf(8).value(),
                         tokens.DeriveLeaf(16).value());
  EXPECT_EQ(m[0], 11u * 8);
}

TEST_P(HeacTest, ConsumerCannotDeriveKeysOutsideGrant) {
  auto cover = tree_.CoverRange(8, 16).value();
  TokenSet tokens(cover, kHeight);
  EXPECT_FALSE(tokens.DeriveLeaf(7).ok());
  EXPECT_FALSE(tokens.DeriveLeaf(17).ok());
}

class HeacOuterKeySharing : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(HeacOuterKeySharing);

TEST_P(HeacOuterKeySharing, ResolutionRestriction) {
  // §4.4.1: sharing only every 6th key restricts the consumer to 6-fold
  // aggregates. Verify a consumer holding outer keys {k_0, k_6} can decrypt
  // the 6-aggregate but no finer granularity.
  GgmTree tree(RandomKey128(), 10);
  HeacCodec codec(1);
  auto leaf = [&](uint64_t i) { return tree.DeriveLeaf(i).value(); };

  std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6};
  HeacCiphertext agg =
      codec.Encrypt(std::vector<uint64_t>{values[0]}, 0, leaf(0), leaf(1));
  HeacCiphertext first_three = agg;
  for (uint64_t i = 1; i < 6; ++i) {
    auto c = codec.Encrypt(std::vector<uint64_t>{values[i]}, i, leaf(i),
                           leaf(i + 1));
    ASSERT_TRUE(HeacAddInPlace(agg, c).ok());
    if (i < 3) ASSERT_TRUE(HeacAddInPlace(first_three, c).ok());
  }

  // With outer keys k_0 and k_6 the full 6-aggregate decrypts...
  auto m = codec.Decrypt(agg, leaf(0), leaf(6));
  EXPECT_EQ(m[0], 21u);
  // ...but the 3-aggregate (needs k_3, which was not shared) does not.
  auto wrong = codec.Decrypt(first_three, leaf(0), leaf(6));
  EXPECT_NE(wrong[0], 6u);
}

TEST(Fold64, MixesBothHalves) {
  Key128 a{};
  a[0] = 1;  // low half
  Key128 b{};
  b[8] = 1;  // high half
  EXPECT_NE(Fold64(a), Fold64(Key128{}));
  EXPECT_NE(Fold64(b), Fold64(Key128{}));
}

class FieldKeysTest : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(FieldKeysTest);

TEST_P(FieldKeysTest, DeterministicPerLeafAndField) {
  Key128 leaf = RandomKey128();
  FieldKeys a(leaf, 4), b(leaf, 4);
  for (size_t f = 0; f < 4; ++f) EXPECT_EQ(a.key(f), b.key(f));
  EXPECT_NE(a.key(0), a.key(1));
}

// Known answer for a fixed leaf, 19 fields: two full batches of eight
// counter blocks and a remainder of three. Every stored digest depends on
// these keys, on either arm.
TEST_P(FieldKeysTest, KnownAnswer) {
  Key128 leaf;
  for (size_t i = 0; i < leaf.size(); ++i) leaf[i] = static_cast<uint8_t>(0x50 + i);
  constexpr uint64_t kExpected[19] = {
      0x390afdf4903b2fb3ULL, 0xebc7a1dc7d566c70ULL, 0xd115fa936f560981ULL,
      0xe6490527fe9c49f8ULL, 0xe4e3c61d889fc3abULL, 0x021025e94f4c66eeULL,
      0xab133cfda78f3b25ULL, 0x37aa468f4ddf22c3ULL, 0x3e11979b98d73797ULL,
      0x5bd22e80a4d53cfcULL, 0x59cee38d8c1908ebULL, 0x2b727e55407f26feULL,
      0xd41c3b7eba8a4acaULL, 0x577ed4ea71636795ULL, 0xacf247ac8d7586a8ULL,
      0x37d3df448b35fbc6ULL, 0x5bb152c16e08ebfbULL, 0xd3bcc7a026a53c1cULL,
      0xfec7cd6f2e3e0556ULL};
  FieldKeys keys(leaf, 19);
  ASSERT_EQ(keys.num_fields(), 19u);
  for (size_t f = 0; f < 19; ++f) {
    EXPECT_EQ(keys.key(f), kExpected[f]) << "field " << f;
  }
  // A shorter key set is a prefix of the longer one.
  FieldKeys five(leaf, 5);
  for (size_t f = 0; f < 5; ++f) EXPECT_EQ(five.key(f), kExpected[f]);
}

// DeriveLanes on one to four leaves, at field counts across the lane
// kernel's runs of eight (and none): each leaf's keys equal Derive's, and
// storage that held another leaf's keys is fully overwritten.
TEST_P(FieldKeysTest, LanesMatchDerive) {
  DeterministicRng rng(17);
  for (size_t num_fields : {0, 1, 5, 8, 9, 16, 19, 40}) {
    for (size_t lanes = 1; lanes <= kCryptoLanes; ++lanes) {
      std::vector<Key128> leaves(lanes);
      std::vector<FieldKeys> derived;
      for (auto& leaf : leaves) {
        rng.Fill(leaf);
        derived.emplace_back(RandomKey128(), num_fields);
      }
      FieldKeys::DeriveLanes(leaves, derived);
      for (size_t l = 0; l < lanes; ++l) {
        FieldKeys expected(num_fields);
        expected.Derive(leaves[l]);
        for (size_t f = 0; f < num_fields; ++f) {
          ASSERT_EQ(derived[l].key(f), expected.key(f))
              << num_fields << " fields, " << lanes << " lanes, leaf " << l
              << ", field " << f;
        }
      }
    }
  }
}

TEST_P(HeacTest, FieldKeysOverloadMatchesLeafOverload) {
  HeacCodec codec(5);
  DeterministicRng rng(11);
  for (uint64_t chunk : {0, 1, 2, 17, 4094}) {
    std::vector<uint64_t> m(5);
    for (auto& v : m) v = rng.NextU64();
    FieldKeys ki(Leaf(chunk), 5), kn(Leaf(chunk + 1), 5);
    EXPECT_EQ(codec.Encrypt(m, chunk, ki, kn),
              codec.Encrypt(m, chunk, Leaf(chunk), Leaf(chunk + 1)))
        << "chunk " << chunk;
  }
}

// Property sweep: random chunk ranges with random values always telescope.
class HeacRangeProperty : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(HeacRangeProperty);

TEST_P(HeacRangeProperty, RandomRangesTelescope) {
  GgmTree tree(RandomKey128(), 10);
  auto leaf = [&](uint64_t i) { return tree.DeriveLeaf(i).value(); };
  HeacCodec codec(2);
  for (int seed = 100; seed < 120; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    DeterministicRng rng(seed);
    uint64_t start = rng.NextBelow(500);
    uint64_t len = 1 + rng.NextBelow(100);
    uint64_t sum0 = 0, sum1 = 0;
    HeacCiphertext agg;
    for (uint64_t i = start; i < start + len; ++i) {
      uint64_t v0 = rng.NextBelow(1'000'000);
      uint64_t v1 = rng.NextBelow(1'000'000);
      sum0 += v0;
      sum1 += v1;
      auto c = codec.Encrypt(std::vector<uint64_t>{v0, v1}, i, leaf(i),
                             leaf(i + 1));
      if (i == start) {
        agg = c;
      } else {
        ASSERT_TRUE(HeacAddInPlace(agg, c).ok());
      }
    }
    auto m = codec.Decrypt(agg, leaf(start), leaf(start + len));
    EXPECT_EQ(m[0], sum0);
    EXPECT_EQ(m[1], sum1);
  }
}

}  // namespace
}  // namespace tc::crypto
