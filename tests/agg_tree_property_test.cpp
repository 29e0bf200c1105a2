// Aggregation-tree property sweeps: for every fanout and size shape, every
// query against the encrypted k-ary index must equal a brute-force oracle
// over the plaintext digests — across node boundaries, and against the
// HEAC backend with telescoped decryption.
// Appending in runs must leave the store exactly as appending chunk by
// chunk does, in one write per level-0 node.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "crypto/ggm_tree.hpp"
#include "crypto/rand.hpp"
#include "index/agg_tree.hpp"
#include "index/digest_cipher.hpp"
#include "store/mem_kv.hpp"

namespace tc::index {
namespace {

/// Plaintext fixture + oracle: values[i] = digest of chunk i (one field).
struct OracleFixture {
  explicit OracleFixture(uint32_t fanout, uint64_t chunks)
      : kv(std::make_shared<store::MemKvStore>()),
        cipher(MakePlainCipher(1)),
        tree(kv, "p", cipher, AggTreeOptions{fanout, 1 << 22}) {
    crypto::DeterministicRng rng(fanout * 1000003 + chunks);
    for (uint64_t i = 0; i < chunks; ++i) {
      uint64_t v = rng.NextBelow(1'000'000);
      values.push_back(v);
      Bytes blob = *cipher->Encrypt(std::vector<uint64_t>{v}, i);
      // gtest ASSERT_* cannot be used in a constructor (it returns).
      if (!tree.Append(i, blob).ok()) std::abort();
    }
  }

  uint64_t OracleSum(uint64_t first, uint64_t last) const {
    return std::accumulate(values.begin() + first, values.begin() + last,
                           uint64_t{0});
  }

  Result<uint64_t> QuerySum(uint64_t first, uint64_t last) const {
    TC_ASSIGN_OR_RETURN(Bytes blob, tree.Query(first, last));
    TC_ASSIGN_OR_RETURN(auto fields, cipher->Decrypt(blob, first, last));
    return fields[0];
  }

  std::shared_ptr<store::MemKvStore> kv;
  std::shared_ptr<const DigestCipher> cipher;
  AggTree tree;
  std::vector<uint64_t> values;
};

class AggTreeOracle
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(AggTreeOracle, EveryQueryShapeMatchesOracle) {
  auto [fanout, chunks] = GetParam();
  OracleFixture fx(fanout, chunks);

  // Deliberate shapes: full range, single chunks at the edges, one-node
  // ranges, node-straddling ranges, and the worst-case mid-alignment.
  std::vector<std::pair<uint64_t, uint64_t>> shapes = {
      {0, chunks},
      {0, 1},
      {chunks - 1, chunks},
      {0, std::min<uint64_t>(fanout, chunks)},
  };
  if (chunks > fanout + 2) {
    shapes.push_back({fanout - 1, fanout + 2});        // straddles node 0/1
    shapes.push_back({fanout / 2, chunks - fanout / 2});  // ragged both ends
  }
  crypto::DeterministicRng rng(fanout + chunks);
  for (int i = 0; i < 12; ++i) {
    uint64_t first = rng.NextBelow(chunks);
    uint64_t last = first + 1 + rng.NextBelow(chunks - first);
    shapes.emplace_back(first, last);
  }

  for (auto [first, last] : shapes) {
    auto sum = fx.QuerySum(first, last);
    ASSERT_TRUE(sum.ok()) << "[" << first << ", " << last << ")";
    EXPECT_EQ(*sum, fx.OracleSum(first, last))
        << "fanout=" << fanout << " chunks=" << chunks << " [" << first
        << ", " << last << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSizes, AggTreeOracle,
    ::testing::Combine(::testing::Values(2u, 3u, 8u, 64u),
                       // sizes straddling node-completion boundaries
                       ::testing::Values(uint64_t{1}, uint64_t{7},
                                         uint64_t{64}, uint64_t{65},
                                         uint64_t{513})),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(AggTreeHeacOracle, TelescopedDecryptMatchesOracleAcrossShapes) {
  // Same oracle discipline against the real HEAC backend: server-side adds
  // happen on ciphertext; decryption uses only the two outer leaves.
  constexpr uint32_t kFanout = 4;
  constexpr uint64_t kChunks = 100;
  auto ggm = std::make_shared<crypto::GgmTree>(crypto::RandomKey128(), 16);
  auto kv = std::make_shared<store::MemKvStore>();
  std::shared_ptr<const DigestCipher> cipher = MakeHeacCipher(1, ggm);
  AggTree tree(kv, "h", cipher, AggTreeOptions{kFanout, 1 << 22});

  crypto::DeterministicRng rng(42);
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < kChunks; ++i) {
    uint64_t v = rng.NextBelow(1'000'000);
    values.push_back(v);
    ASSERT_TRUE(
        tree.Append(i, *cipher->Encrypt(std::vector<uint64_t>{v}, i)).ok());
  }

  for (int round = 0; round < 40; ++round) {
    uint64_t first = rng.NextBelow(kChunks);
    uint64_t last = first + 1 + rng.NextBelow(kChunks - first);
    auto blob = tree.Query(first, last);
    ASSERT_TRUE(blob.ok());
    auto fields = cipher->Decrypt(*blob, first, last);
    ASSERT_TRUE(fields.ok());
    uint64_t oracle = std::accumulate(values.begin() + first,
                                      values.begin() + last, uint64_t{0});
    EXPECT_EQ((*fields)[0], oracle) << "[" << first << ", " << last << ")";
  }
}

TEST(AggTreeLeafDigest, ReturnsExactStoredBlob) {
  constexpr uint32_t kFanout = 4;
  auto kv = std::make_shared<store::MemKvStore>();
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(2);
  AggTree tree(kv, "l", cipher, AggTreeOptions{kFanout, 1 << 20});
  std::vector<Bytes> blobs;
  for (uint64_t i = 0; i < 10; ++i) {
    Bytes blob = *cipher->Encrypt(std::vector<uint64_t>{i * 7, i}, i);
    blobs.push_back(blob);
    ASSERT_TRUE(tree.Append(i, blob).ok());
  }
  for (uint64_t i = 0; i < 10; ++i) {
    auto leaf = tree.LeafDigest(i);
    ASSERT_TRUE(leaf.ok());
    EXPECT_EQ(*leaf, blobs[i]) << "chunk " << i;
  }
  EXPECT_FALSE(tree.LeafDigest(10).ok());
}

/// Every key and value of a store, for byte-for-byte comparison.
std::map<std::string, Bytes> Contents(const store::KvStore& kv) {
  std::map<std::string, Bytes> all;
  Status s = kv.Scan([&](const std::string& key, BytesView value) {
    all.emplace(key, Bytes(value.begin(), value.end()));
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return all;
}

class AggTreeRuns : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggTreeRuns, RunsStoreTheSameNodesAsSingleAppends) {
  const uint32_t k = GetParam();
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  const AggTreeOptions options{k, 1 << 22};
  bool saw_single = false, saw_mid_node_start = false, saw_levels = false;

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    crypto::DeterministicRng rng(k * 7919 + seed);
    const uint64_t chunks =
        seed == 1 ? 3ull * k * k : 1 + rng.NextBelow(3ull * k * k);
    auto single_kv = std::make_shared<store::MemKvStore>();
    auto run_kv = std::make_shared<store::MemKvStore>();
    AggTree single(single_kv, "t", cipher, options);
    AggTree runs(run_kv, "t", cipher, options);

    Bytes digests;
    for (uint64_t i = 0; i < chunks; ++i) {
      Bytes blob =
          *cipher->Encrypt(std::vector<uint64_t>{rng.NextBelow(1'000'000)}, i);
      ASSERT_TRUE(single.Append(i, blob).ok());
      Append(digests, blob);
    }

    // Seeded split: runs of one, runs within or across a node boundary,
    // and runs of up to k^2 + k chunks, which cross level-1 nodes.
    for (uint64_t next = 0; next < chunks;) {
      uint64_t len = 1;
      switch (rng.NextBelow(3)) {
        case 0: break;
        case 1: len = 1 + rng.NextBelow(k); break;
        default: len = 1 + rng.NextBelow(uint64_t{k} * k + k); break;
      }
      len = std::min(len, chunks - next);
      saw_single |= len == 1;
      saw_mid_node_start |= len > 1 && next % k != 0;
      const uint64_t level1 = uint64_t{k} * k;
      saw_levels |= len > k && (next + len) / level1 > next / level1;
      BytesView run = BytesView(digests).subspan(next * bs, len * bs);
      ASSERT_TRUE(runs.AppendRun(next, len, run).ok())
          << "run [" << next << ", " << next + len << ")";
      next += len;
      ASSERT_EQ(runs.num_chunks(), next);
    }

    EXPECT_EQ(runs.num_chunks(), single.num_chunks());
    EXPECT_EQ(Contents(*run_kv), Contents(*single_kv))
        << "k=" << k << " chunks=" << chunks;
    AggTree recovered(run_kv, "t", cipher, options);
    ASSERT_TRUE(recovered.Recover().ok());
    EXPECT_EQ(recovered.num_chunks(), single.num_chunks());
    for (int q = 0; q < 40; ++q) {
      uint64_t first = rng.NextBelow(chunks);
      uint64_t last = first + 1 + rng.NextBelow(chunks - first);
      auto want = single.Query(first, last);
      auto got = runs.Query(first, last);
      ASSERT_TRUE(want.ok() && got.ok()) << "[" << first << ", " << last << ")";
      EXPECT_EQ(*got, *want) << "[" << first << ", " << last << ")";
    }
  }
  EXPECT_TRUE(saw_single && saw_mid_node_start && saw_levels);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, AggTreeRuns,
                         ::testing::Values(2u, 3u, 4u, 64u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

/// Counts the writes that reach the store, and those to level-0 nodes.
class CountingKv final : public store::KvStore {
 public:
  explicit CountingKv(std::shared_ptr<store::KvStore> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& key, BytesView value) override {
    Count(key);
    return inner_->Put(key, value);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    Count(key);
    return inner_->Append(key, expected_size, suffix);
  }
  Result<Bytes> Get(const std::string& key) const override {
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override {
    return inner_->Scan(fn);
  }

  uint64_t writes = 0;
  uint64_t level0_writes = 0;

 private:
  void Count(const std::string& key) {
    ++writes;
    if (key.find("/L0/") != std::string::npos) ++level0_writes;
  }

  std::shared_ptr<store::KvStore> inner_;
};

TEST(AggTreeRunWrites, AlignedRunWritesEachLevel0NodeOnce) {
  constexpr uint32_t kFanout = 64;
  constexpr uint64_t kChunks = 256;
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  Bytes digests;
  for (uint64_t i = 0; i < kChunks; ++i) {
    Append(digests, *cipher->Encrypt(std::vector<uint64_t>{i}, i));
  }

  auto run_kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree runs(run_kv, "t", cipher, AggTreeOptions{kFanout, 1 << 22});
  ASSERT_TRUE(runs.AppendRun(0, kChunks, digests).ok());
  EXPECT_EQ(run_kv->level0_writes, 4u);
  EXPECT_EQ(run_kv->writes, 8u);  // 4 level-0 puts, then 1 put + 3 appends

  // The same digests one chunk at a time: one level-0 write per chunk.
  auto single_kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree single(single_kv, "t", cipher, AggTreeOptions{kFanout, 1 << 22});
  for (uint64_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(single.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
  }
  EXPECT_EQ(single_kv->level0_writes, kChunks);
}

}  // namespace
}  // namespace tc::index
