// Aggregation tree tests: append/cascade correctness, range queries vs a
// naive scan oracle (property tests over random ranges and fanouts, all
// four cipher backends), cache behaviour, and complexity bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "crypto/rand.hpp"
#include "index/agg_tree.hpp"
#include "store/mem_kv.hpp"
#include "strawman/strawman_cipher.hpp"

namespace tc::index {
namespace {

using crypto::DeterministicRng;

// Builds a tree over `n` single-field digests with values v_i = f(i), plus a
// plaintext prefix-sum oracle.
struct TreeFixture {
  TreeFixture(uint32_t fanout, uint64_t n,
              std::shared_ptr<const DigestCipher> cipher_in,
              size_t cache_bytes = 256 << 20)
      : kv(std::make_shared<store::MemKvStore>()),
        cipher(std::move(cipher_in)),
        tree(kv, "s1", cipher,
             AggTreeOptions{fanout, cache_bytes}) {
    prefix.push_back(0);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = Value(i);
      prefix.push_back(prefix.back() + v);
      auto blob = cipher->Encrypt(std::vector<uint64_t>{v}, i);
      EXPECT_TRUE(blob.ok());
      EXPECT_TRUE(tree.Append(i, *blob).ok()) << "chunk " << i;
    }
  }

  static uint64_t Value(uint64_t i) { return i * 7 + 3; }

  uint64_t ExpectedSum(uint64_t first, uint64_t last) const {
    return prefix[last] - prefix[first];
  }

  uint64_t QuerySum(uint64_t first, uint64_t last) {
    auto blob = tree.Query(first, last);
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    auto fields = cipher->Decrypt(*blob, first, last);
    EXPECT_TRUE(fields.ok()) << fields.status().ToString();
    return (*fields)[0];
  }

  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<const DigestCipher> cipher;
  AggTree tree;
  std::vector<uint64_t> prefix;
};

TEST(AggTree, SingleChunkQuery) {
  TreeFixture f(4, 10, MakePlainCipher(1));
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(f.QuerySum(i, i + 1), TreeFixture::Value(i));
  }
}

TEST(AggTree, FullRangeQuery) {
  TreeFixture f(4, 100, MakePlainCipher(1));
  EXPECT_EQ(f.QuerySum(0, 100), f.ExpectedSum(0, 100));
}

TEST(AggTree, RejectsOutOfOrderAppend) {
  auto kv = std::make_shared<store::MemKvStore>();
  auto cipher = std::shared_ptr<const DigestCipher>(MakePlainCipher(1));
  AggTree tree(kv, "s", cipher, AggTreeOptions{4, 1 << 20});
  auto blob = cipher->Encrypt(std::vector<uint64_t>{1}, 0);
  ASSERT_TRUE(tree.Append(0, *blob).ok());
  EXPECT_FALSE(tree.Append(2, *blob).ok());  // gap
  EXPECT_FALSE(tree.Append(0, *blob).ok());  // replay
}

TEST(AggTree, RejectsBadQueries) {
  TreeFixture f(4, 10, MakePlainCipher(1));
  EXPECT_FALSE(f.tree.Query(3, 3).ok());    // empty
  EXPECT_FALSE(f.tree.Query(5, 11).ok());   // beyond ingested
  EXPECT_FALSE(f.tree.Query(11, 12).ok());
}

TEST(AggTree, RejectsWrongBlobSize) {
  auto kv = std::make_shared<store::MemKvStore>();
  auto cipher = std::shared_ptr<const DigestCipher>(MakePlainCipher(2));
  AggTree tree(kv, "s", cipher, AggTreeOptions{4, 1 << 20});
  EXPECT_FALSE(tree.Append(0, Bytes(7, 0)).ok());
}

// Property: every (fanout, size) combination matches the oracle on sweeps
// of aligned and unaligned ranges.
class AggTreeProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(AggTreeProperty, MatchesNaiveScanOracle) {
  auto [fanout, n] = GetParam();
  TreeFixture f(fanout, n, MakePlainCipher(1));
  DeterministicRng rng(fanout * 1000 + n);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t a = rng.NextBelow(n);
    uint64_t b = a + 1 + rng.NextBelow(n - a);
    EXPECT_EQ(f.QuerySum(a, b), f.ExpectedSum(a, b))
        << "range [" << a << "," << b << ") fanout " << fanout;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSizes, AggTreeProperty,
    ::testing::Values(std::tuple{2u, 33ull}, std::tuple{3u, 100ull},
                      std::tuple{4u, 256ull}, std::tuple{8u, 513ull},
                      std::tuple{64u, 1000ull}, std::tuple{64u, 4096ull},
                      std::tuple{16u, 65ull}));

TEST(AggTree, HeacBackendMatchesOracle) {
  auto tree_keys = std::make_shared<crypto::GgmTree>(crypto::RandomKey128(),
                                                     20);
  TreeFixture f(8, 300, MakeHeacCipher(1, tree_keys));
  DeterministicRng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    uint64_t a = rng.NextBelow(300);
    uint64_t b = a + 1 + rng.NextBelow(300 - a);
    EXPECT_EQ(f.QuerySum(a, b), f.ExpectedSum(a, b))
        << "range [" << a << "," << b << ")";
  }
}

TEST(AggTree, HeacMultiFieldDigests) {
  auto tree_keys = std::make_shared<crypto::GgmTree>(crypto::RandomKey128(),
                                                     20);
  auto cipher =
      std::shared_ptr<const DigestCipher>(MakeHeacCipher(3, tree_keys));
  auto kv = std::make_shared<store::MemKvStore>();
  AggTree tree(kv, "s", cipher, AggTreeOptions{4, 1 << 24});
  uint64_t sums[3] = {0, 0, 0};
  for (uint64_t i = 0; i < 50; ++i) {
    std::vector<uint64_t> fields = {i, i * i, 1};
    for (int fdx = 0; fdx < 3; ++fdx) sums[fdx] += fields[fdx];
    ASSERT_TRUE(tree.Append(i, *cipher->Encrypt(fields, i)).ok());
  }
  auto blob = tree.Query(0, 50);
  ASSERT_TRUE(blob.ok());
  auto fields = cipher->Decrypt(*blob, 0, 50);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], sums[0]);
  EXPECT_EQ((*fields)[1], sums[1]);
  EXPECT_EQ((*fields)[2], sums[2]);
  // A field list of the wrong length is rejected, not encrypted.
  EXPECT_EQ(cipher->Encrypt(std::vector<uint64_t>{1, 2}, 50).status().code(),
            StatusCode::kInvalidArgument);
}

// Eight chunks, chunk c holding c + 1, indexed as two AppendRuns of three
// and five chunks (one InsertChunkBatch each on the server), then summed
// over chunks [2, 7) and over all of them.
void ExpectBatchedRunsSum(std::shared_ptr<const DigestCipher> cipher) {
  auto kv = std::make_shared<store::MemKvStore>();
  AggTree tree(kv, "s", cipher, AggTreeOptions{4, 1 << 20});
  constexpr uint64_t kChunks = 8;
  for (auto [first, last] : {std::pair<uint64_t, uint64_t>{0, 3}, {3, 8}}) {
    Bytes run;
    for (uint64_t c = first; c < last; ++c) {
      Append(run, *cipher->Encrypt(std::vector<uint64_t>{c + 1}, c));
    }
    ASSERT_TRUE(tree.AppendRun(first, last - first, run).ok());
  }
  for (auto [first, last, sum] :
       {std::tuple<uint64_t, uint64_t, uint64_t>{2, 7, 3 + 4 + 5 + 6 + 7},
        {0, kChunks, kChunks * (kChunks + 1) / 2}}) {
    auto blob = tree.Query(first, last);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto fields = cipher->Decrypt(*blob, first, last);
    ASSERT_TRUE(fields.ok()) << fields.status().ToString();
    EXPECT_EQ((*fields)[0], sum) << "[" << first << ", " << last << ")";
  }
}

TEST(AggTree, PaillierBackendMatchesOracle) {
  std::shared_ptr<const DigestCipher> cipher =
      strawman::MakePaillierCipher(1, strawman::Paillier::Generate(512));
  TreeFixture f(4, 40, cipher);
  EXPECT_EQ(f.QuerySum(0, 40), f.ExpectedSum(0, 40));
  EXPECT_EQ(f.QuerySum(3, 17), f.ExpectedSum(3, 17));
  EXPECT_EQ(f.QuerySum(15, 16), f.ExpectedSum(15, 16));
  ExpectBatchedRunsSum(cipher);
}

TEST(AggTree, EcElGamalBackendMatchesOracle) {
  std::shared_ptr<const DigestCipher> cipher = strawman::MakeEcElGamalCipher(
      1, strawman::EcElGamal::Generate(), /*dlog_table_bits=*/10);
  TreeFixture f(4, 30, cipher);
  EXPECT_EQ(f.QuerySum(0, 30), f.ExpectedSum(0, 30));
  EXPECT_EQ(f.QuerySum(5, 23), f.ExpectedSum(5, 23));
  ExpectBatchedRunsSum(cipher);
}

TEST(AggTree, CiphertextExpansionMatchesTable2Shape) {
  // Table 2 index-size column: Paillier ~96x, EC-ElGamal ~21x, TimeCrypt 1x
  // relative to plaintext (64-bit fields, 3072-bit Paillier, P-256 points).
  auto plain = MakePlainCipher(1);
  auto heac = MakeHeacCipher(
      1, std::make_shared<crypto::GgmTree>(crypto::RandomKey128(), 20));
  EXPECT_EQ(plain->blob_size(), 8u);
  EXPECT_EQ(heac->blob_size(), 8u);  // no expansion

  auto eg_cipher =
      strawman::MakeEcElGamalCipher(1, strawman::EcElGamal::Generate());
  EXPECT_EQ(eg_cipher->blob_size(), 66u);  // ~8x vs 8B (21x counts Java repr)
}

TEST(AggTree, QueryComplexityLogarithmic) {
  constexpr uint32_t kFanout = 64;
  constexpr uint64_t kN = 64 * 64 * 8;  // 3 levels
  TreeFixture f(kFanout, kN, MakePlainCipher(1));
  QueryStats stats;
  auto blob = f.tree.Query(1, kN - 1, stats);
  ASSERT_TRUE(blob.ok());
  // Worst-case adds bounded by 2(k-1)log_k(n) (§6.1).
  double bound = 2.0 * (kFanout - 1) *
                 (std::log(double(kN)) / std::log(double(kFanout)) + 1);
  EXPECT_LE(stats.digest_adds, static_cast<uint64_t>(bound));
  // Aggregating the whole index reads the root only (Fig 5 note).
  QueryStats root_stats;
  ASSERT_TRUE(f.tree.Query(0, kN, root_stats).ok());
  EXPECT_LE(root_stats.nodes_fetched, 2u);
}

TEST(AggTree, CacheServesRepeatQueries) {
  TreeFixture f(8, 512, MakePlainCipher(1));
  QueryStats first_stats;
  ASSERT_TRUE(f.tree.Query(10, 500, first_stats).ok());
  QueryStats repeat_stats;
  ASSERT_TRUE(f.tree.Query(10, 500, repeat_stats).ok());
  EXPECT_EQ(repeat_stats.cache_hits, repeat_stats.nodes_fetched);
}

TEST(AggTree, TinyCacheStillCorrect) {
  // 64-byte cache: almost everything misses, results must not change.
  TreeFixture f(4, 200, MakePlainCipher(1), /*cache_bytes=*/64);
  DeterministicRng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t a = rng.NextBelow(200);
    uint64_t b = a + 1 + rng.NextBelow(200 - a);
    EXPECT_EQ(f.QuerySum(a, b), f.ExpectedSum(a, b));
  }
}

TEST(AggTree, IndexBytesAccounting) {
  TreeFixture f(4, 64, MakePlainCipher(1));
  // Levels: 64 + 16 + 4 + 1 entries of 8 bytes.
  EXPECT_EQ(f.tree.IndexBytes(), (64u + 16u + 4u + 1u) * 8u);
}

TEST(AggTree, MultiStreamPrefixIsolation) {
  auto kv = std::make_shared<store::MemKvStore>();
  auto cipher = std::shared_ptr<const DigestCipher>(MakePlainCipher(1));
  AggTree a(kv, "streamA", cipher, AggTreeOptions{4, 1 << 20});
  AggTree b(kv, "streamB", cipher, AggTreeOptions{4, 1 << 20});
  ASSERT_TRUE(a.Append(0, *cipher->Encrypt(std::vector<uint64_t>{5}, 0)).ok());
  ASSERT_TRUE(b.Append(0, *cipher->Encrypt(std::vector<uint64_t>{9}, 0)).ok());
  EXPECT_EQ((*cipher->Decrypt(*a.Query(0, 1), 0, 1))[0], 5u);
  EXPECT_EQ((*cipher->Decrypt(*b.Query(0, 1), 0, 1))[0], 9u);
}

}  // namespace
}  // namespace tc::index
