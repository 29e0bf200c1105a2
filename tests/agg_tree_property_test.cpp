// Aggregation-tree property sweeps: for every fanout and size shape, every
// query against the encrypted k-ary index must equal a brute-force oracle
// over the plaintext digests — across node boundaries, and against the
// HEAC backend with telescoped decryption.
// Appending in runs must leave the store exactly as appending chunk by
// chunk does, in one write per level-0 node. Ingest must leave the node
// cache to queries and read no node back, the open spine nodes'
// aggregates must survive restarts, refreshes and failed cascades, and
// concurrent queries may fill the cache between appends.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <shared_mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "crypto/ggm_tree.hpp"
#include "crypto/rand.hpp"
#include "index/agg_tree.hpp"
#include "index/digest_cipher.hpp"
#include "store/fault_kv.hpp"
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

/// Counts the reads and writes that reach the store, and the writes to
/// level-0 nodes; logs the key of every write.
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
    ++gets;
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  /// Every live key written through this store, with its value: stores
  /// have no iteration, so whole-store checks read back what was written.
  std::map<std::string, Bytes> Contents() const {
    std::map<std::string, Bytes> all;
    for (const auto& key : written) {
      if (auto value = inner_->Get(key); value.ok()) all.emplace(key, *value);
    }
    return all;
  }

  mutable uint64_t gets = 0;
  uint64_t writes = 0;
  uint64_t level0_writes = 0;
  std::vector<std::string> written;

 private:
  void Count(const std::string& key) {
    ++writes;
    if (key.find("/L0/") != std::string::npos) ++level0_writes;
    written.push_back(key);
  }

  std::shared_ptr<store::KvStore> inner_;
};

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
    auto single_kv =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
    auto run_kv =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
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
    EXPECT_EQ(run_kv->Contents(), single_kv->Contents())
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

using Runs = std::vector<std::pair<uint64_t, uint64_t>>;  // (first, count)

/// Seeded split of chunks [from, to): runs of one, runs within or across a
/// node boundary, and runs of up to k^2 + k chunks, which cross level-1
/// nodes.
Runs SeededRuns(uint64_t seed, uint32_t k, uint64_t from, uint64_t to) {
  crypto::DeterministicRng rng(seed);
  Runs runs;
  for (uint64_t next = from; next < to;) {
    uint64_t len = 1;
    switch (rng.NextBelow(3)) {
      case 0: break;
      case 1: len = 1 + rng.NextBelow(k); break;
      default: len = 1 + rng.NextBelow(uint64_t{k} * k + k); break;
    }
    len = std::min(len, to - next);
    runs.emplace_back(next, len);
    next += len;
  }
  return runs;
}

Status AppendRuns(AggTree& tree, BytesView digests, size_t blob_size,
                  const Runs& runs) {
  for (auto [first, len] : runs) {
    TC_RETURN_IF_ERROR(tree.AppendRun(
        first, len, digests.subspan(first * blob_size, len * blob_size)));
  }
  return Status::Ok();
}

/// Digests of `values`, back to back.
Bytes EncryptAll(const DigestCipher& cipher,
                 const std::vector<uint64_t>& values) {
  Bytes digests;
  for (uint64_t i = 0; i < values.size(); ++i) {
    Append(digests, *cipher.Encrypt(std::vector<uint64_t>{values[i]}, i));
  }
  return digests;
}

std::vector<uint64_t> SeededValues(uint64_t seed, uint64_t count) {
  crypto::DeterministicRng rng(seed);
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < count; ++i) {
    values.push_back(rng.NextBelow(1'000'000));
  }
  return values;
}

class AggTreeWritePath
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t>> {};

TEST_P(AggTreeWritePath, IngestLeavesTheCacheToQueriesAndReadsNothing) {
  const auto [k, cache_bytes] = GetParam();
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();

  for (bool single : {true, false}) {
    SCOPED_TRACE(single ? "one-chunk appends" : "seeded runs");
    crypto::DeterministicRng rng(k * 131 + single);
    // Three levels or more, ending inside a level-0 node, with room for k
    // more chunks.
    uint64_t chunks = uint64_t{k} * k + 1 + rng.NextBelow(2ull * k * k);
    if (chunks % k == 0) ++chunks;
    const std::vector<uint64_t> values = SeededValues(chunks, chunks + k);
    const Bytes digests = EncryptAll(*cipher, values);
    auto oracle = [&](uint64_t first, uint64_t last) {
      return std::accumulate(values.begin() + first, values.begin() + last,
                             uint64_t{0});
    };

    auto kv =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
    AggTree tree(kv, "w", cipher, AggTreeOptions{k, cache_bytes});
    auto query = [&](uint64_t first, uint64_t last, QueryStats& stats) {
      auto blob = tree.Query(first, last, stats);
      EXPECT_TRUE(blob.ok()) << blob.status().ToString();
      auto fields = cipher->Decrypt(*blob, first, last);
      EXPECT_TRUE(fields.ok());
      return (*fields)[0];
    };
    if (single) {
      for (uint64_t i = 0; i < chunks; ++i) {
        ASSERT_TRUE(
            tree.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
      }
    } else {
      ASSERT_TRUE(AppendRuns(tree, digests, bs, SeededRuns(k, k, 0, chunks))
                      .ok());
    }
    EXPECT_EQ(tree.cache().entry_count(), 0u);
    EXPECT_EQ(kv->gets, 0u);

    // A tail query across levels, then one of the open level-0 node alone,
    // fill the cache.
    const uint64_t tail = chunks - uint64_t{k} * k - 1;
    const uint64_t open = chunks - chunks % k;
    QueryStats stats;
    EXPECT_EQ(query(tail, chunks, stats), oracle(tail, chunks));
    EXPECT_EQ(query(open, chunks, stats), oracle(open, chunks));

    // Appending still reads nothing back, and grows the cached node in
    // place. The runs pass completes the node, which cascades.
    const uint64_t gets = kv->gets;
    const uint64_t end = single ? chunks + 1 : open + k;
    for (uint64_t i = chunks; i < end; ++i) {
      ASSERT_TRUE(tree.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
    }
    EXPECT_EQ(kv->gets, gets);
    QueryStats repeat;
    EXPECT_EQ(query(open, end, repeat), oracle(open, end));
    EXPECT_EQ(repeat.nodes_fetched, 1u);
    if ((end - open) * bs <= cache_bytes) {
      EXPECT_EQ(repeat.cache_hits, 1u);
    } else {
      EXPECT_EQ(repeat.cache_hits, 0u);  // dropped when it outgrew the budget
    }
    EXPECT_LE(tree.cache().size_bytes(), cache_bytes);
    EXPECT_EQ(query(tail, end, stats), oracle(tail, end));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndBudgets, AggTreeWritePath,
    ::testing::Combine(::testing::Values(2u, 4u, 64u),
                       ::testing::Values(size_t{64}, size_t{4} << 20)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "cache" +
             std::to_string(std::get<1>(info.param));
    });

class AggTreeSpine : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggTreeSpine, RestartAnywhereContinuesTheSameStore) {
  const uint32_t k = GetParam();
  const AggTreeOptions options{k, 1 << 20};
  const uint64_t chunks = 2ull * k * k + k + 2;
  auto ggm = std::make_shared<crypto::GgmTree>(crypto::RandomKey128(), 16);

  for (bool heac : {false, true}) {
    SCOPED_TRACE(heac ? "HEAC" : "plain");
    std::shared_ptr<const DigestCipher> cipher =
        heac ? MakeHeacCipher(1, ggm) : MakePlainCipher(1);
    const size_t bs = cipher->blob_size();
    const Bytes digests = EncryptAll(*cipher, SeededValues(k, chunks));
    auto ref_kv =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
    AggTree ref(ref_kv, "r", cipher, options);
    for (uint64_t i = 0; i < chunks; ++i) {
      ASSERT_TRUE(ref.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
    }

    std::set<int> open_levels_seen;
    for (uint64_t stop = 1; stop < chunks; ++stop) {
      SCOPED_TRACE("restart at " + std::to_string(stop));
      auto kv =
          std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
      {
        AggTree before(kv, "r", cipher, options);
        ASSERT_TRUE(
            before.AppendRun(0, stop, BytesView(digests).first(stop * bs))
                .ok());
      }
      AggTree after(kv, "r", cipher, options);
      const uint64_t gets = kv->gets;
      ASSERT_TRUE(after.Recover().ok());
      ASSERT_EQ(after.num_chunks(), stop);
      // The level-0 node, then one read per open level above it.
      int open_above = 0;
      for (uint64_t entries = stop / k; entries > 0; entries /= k) {
        open_above += entries % k != 0;
      }
      EXPECT_EQ(kv->gets - gets, 1u + open_above);
      open_levels_seen.insert(open_above + (stop % k != 0));

      ASSERT_TRUE(AppendRuns(after, digests, bs,
                             SeededRuns(stop, k, stop, chunks))
                      .ok());
      EXPECT_EQ(kv->Contents(), ref_kv->Contents());
    }
    EXPECT_TRUE(open_levels_seen.contains(1) && open_levels_seen.contains(2) &&
                open_levels_seen.contains(3));
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, AggTreeSpine, ::testing::Values(2u, 3u, 4u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(AggTreeSpineRefresh, RefreshedHandleAppendsWhereTheStoreIs) {
  // A second handle over the same store, as a replica's engine holds one:
  // it serves reads, falls behind while the first handle appends, then
  // refreshes and takes over the appends.
  constexpr uint32_t kFanout = 4;
  constexpr uint64_t kChunks = 3 * kFanout * kFanout + 3;
  const AggTreeOptions options{kFanout, 1 << 20};
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  const std::vector<uint64_t> values = SeededValues(17, kChunks);
  const Bytes digests = EncryptAll(*cipher, values);
  auto sum_of = [&](const AggTree& tree, uint64_t first, uint64_t last) {
    auto blob = tree.Query(first, last);
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    return (*cipher->Decrypt(*blob, first, last))[0] ==
           std::accumulate(values.begin() + first, values.begin() + last,
                           uint64_t{0});
  };

  auto ref_kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree ref(ref_kv, "f", cipher, options);
  ASSERT_TRUE(AppendRuns(ref, digests, bs, {{0, kChunks}}).ok());

  auto kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree primary(kv, "f", cipher, options);
  AggTree replica(kv, "f", cipher, options);
  constexpr uint64_t kFirst = kFanout * kFanout + 1;
  constexpr uint64_t kSecond = 2 * kFanout * kFanout + kFanout + 2;
  ASSERT_TRUE(AppendRuns(primary, digests, bs, {{0, kFirst}}).ok());
  ASSERT_TRUE(replica.Recover().ok());
  ASSERT_EQ(replica.num_chunks(), kFirst);
  EXPECT_TRUE(sum_of(replica, 1, kFirst));  // caches the spine's nodes

  for (uint64_t i = kFirst; i < kSecond; ++i) {
    ASSERT_TRUE(primary.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
  }
  ASSERT_TRUE(replica.Recover().ok());
  EXPECT_EQ(replica.cache().entry_count(), 0u);
  ASSERT_EQ(replica.num_chunks(), kSecond);
  ASSERT_TRUE(AppendRuns(replica, digests, bs,
                         SeededRuns(kFanout, kFanout, kSecond, kChunks))
                  .ok());
  EXPECT_EQ(kv->Contents(), ref_kv->Contents());
  EXPECT_TRUE(sum_of(replica, 1, kChunks));
  EXPECT_TRUE(sum_of(replica, kFirst - 1, kSecond + 1));
}

TEST(AggTreeSpineFault, FailedLevel1WriteCommitsNoSpine) {
  // Fail one level-1 write of a seeded upload, then retry from the tree's
  // position: a spine committed with the failed cascade would fold the
  // retried entries twice, or miss them, in every later parent entry.
  constexpr uint32_t kFanout = 4;
  constexpr uint64_t kChunks = 3 * kFanout * kFanout + 3;
  const AggTreeOptions options{kFanout, 1 << 20};
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  const Bytes digests = EncryptAll(*cipher, SeededValues(23, kChunks));
  const Runs runs = SeededRuns(29, kFanout, 0, kChunks);

  auto ref_kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree ref(ref_kv, "x", cipher, options);
  for (uint64_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(ref.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
  }
  // A fault-free pass numbers the upload's writes.
  auto logged =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree dry(logged, "x", cipher, options);
  ASSERT_TRUE(AppendRuns(dry, digests, bs, runs).ok());

  int tried = 0;
  for (uint64_t nth = 1; nth <= logged->writes; ++nth) {
    // Only level-1 writes, and late enough that the schedule fires once.
    if (logged->written[nth - 1].find("/L1/") == std::string::npos ||
        2 * nth <= logged->writes + 8) {
      continue;
    }
    SCOPED_TRACE("write " + std::to_string(nth) + " fails");
    store::FaultOptions fault_options;
    fault_options.fail_every_nth_put = nth;
    auto mem =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
    auto fault = std::make_shared<store::FaultKvStore>(mem, fault_options);
    AggTree tree(fault, "x", cipher, options);
    for (auto [first, len] : runs) {
      for (int attempt = 0; tree.num_chunks() < first + len; ++attempt) {
        ASSERT_LT(attempt, 2);
        const uint64_t at = tree.num_chunks();
        const uint64_t rest = first + len - at;
        (void)tree.AppendRun(
            at, rest, BytesView(digests).subspan(at * bs, rest * bs));
      }
    }
    EXPECT_EQ(fault->puts_failed(), 1u);
    EXPECT_EQ(mem->Contents(), ref_kv->Contents());
    ++tried;
  }
  EXPECT_GE(tried, 3);
}

class AggTreeLostCascade : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggTreeLostCascade, RestartResumesOneChunkBeforeLevel0) {
  // Fail each write above level 0 of a seeded upload once, then open a
  // fresh tree over what the store holds: a full level-0 node whose
  // cascade was lost. The tree stands one chunk before level 0's count, as
  // the failed tree's own recovery does, answers every query below it, and
  // takes the rest of the upload to the fault-free store.
  const uint32_t k = GetParam();
  const AggTreeOptions options{k, 1 << 20};
  const uint64_t chunks = uint64_t{k} * k * k + k + 1;
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  const std::vector<uint64_t> values = SeededValues(41 * k, chunks);
  const Bytes digests = EncryptAll(*cipher, values);
  const Runs runs = SeededRuns(43 * k, k, 0, chunks);

  auto ref_kv =
      std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
  AggTree ref(ref_kv, "y", cipher, options);
  ASSERT_TRUE(AppendRuns(ref, digests, bs, runs).ok());

  int tried = 0;
  for (uint64_t nth = 1; nth <= ref_kv->writes; ++nth) {
    if (ref_kv->written[nth - 1].find("/L0/") != std::string::npos) continue;
    SCOPED_TRACE("write " + std::to_string(nth) + " fails");
    store::FaultOptions fault_options;
    fault_options.fail_every_nth_put = nth;
    auto mem =
        std::make_shared<CountingKv>(std::make_shared<store::MemKvStore>());
    AggTree failed(std::make_shared<store::FaultKvStore>(mem, fault_options),
                   "y", cipher, options);
    ASSERT_FALSE(AppendRuns(failed, digests, bs, runs).ok());
    uint64_t level0 = 0;
    for (const auto& [key, node] : mem->Contents()) {
      if (key.find("/L0/") != std::string::npos) level0 += node.size() / bs;
    }

    AggTree tree(mem, "y", cipher, options);
    ASSERT_TRUE(tree.Recover().ok());
    const uint64_t n = tree.num_chunks();
    ASSERT_EQ(n + 1, level0);
    EXPECT_EQ(failed.num_chunks(), n);
    for (uint64_t first = 0; first < n; ++first) {
      for (uint64_t last = first + 1; last <= n; ++last) {
        auto blob = tree.Query(first, last);
        ASSERT_TRUE(blob.ok()) << "[" << first << ", " << last << "): "
                               << blob.status().ToString();
        EXPECT_EQ((*cipher->Decrypt(*blob, first, last))[0],
                  std::accumulate(values.begin() + first,
                                  values.begin() + last, uint64_t{0}))
            << "[" << first << ", " << last << ")";
      }
    }
    ASSERT_TRUE(
        AppendRuns(tree, digests, bs, SeededRuns(nth, k, n, chunks)).ok());
    EXPECT_EQ(mem->Contents(), ref_kv->Contents());
    ++tried;
  }
  EXPECT_GE(tried, 3);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, AggTreeLostCascade,
                         ::testing::Values(2u, 3u, 4u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(AggTreeConcurrentReads, ReadersFillTheCacheBetweenAppends) {
  // The server's shape: queries fill the cache together under a stream's
  // reader lock, and an append holds the writer lock alone.
  constexpr uint32_t kFanout = 8;
  constexpr uint64_t kChunks = 3 * kFanout * kFanout;
  constexpr int kReaders = 4;
  std::shared_ptr<const DigestCipher> cipher = MakePlainCipher(1);
  const size_t bs = cipher->blob_size();
  const std::vector<uint64_t> values = SeededValues(31, kChunks);
  const Bytes digests = EncryptAll(*cipher, values);
  auto kv = std::make_shared<store::MemKvStore>();
  AggTree tree(kv, "c", cipher, AggTreeOptions{kFanout, 4 << 10});
  std::shared_mutex mu;
  ASSERT_TRUE(tree.AppendRun(0, kFanout, BytesView(digests).first(kFanout * bs))
                  .ok());

  std::thread appender([&] {
    for (uint64_t i = kFanout; i < kChunks; ++i) {
      std::unique_lock lock(mu);
      ASSERT_TRUE(tree.Append(i, BytesView(digests).subspan(i * bs, bs)).ok());
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int> wrong{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      crypto::DeterministicRng rng(r + 1);
      for (int q = 0; q < 200; ++q) {
        std::shared_lock lock(mu);
        const uint64_t n = tree.num_chunks();
        const uint64_t first = rng.NextBelow(n);
        const uint64_t last = first + 1 + rng.NextBelow(n - first);
        auto blob = tree.Query(first, last);
        const uint64_t want = std::accumulate(
            values.begin() + first, values.begin() + last, uint64_t{0});
        if (!blob.ok() || (*cipher->Decrypt(*blob, first, last))[0] != want) {
          ++wrong;
        }
      }
    });
  }
  appender.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(tree.cache().size_bytes(), size_t{4} << 10);
}

}  // namespace
}  // namespace tc::index
