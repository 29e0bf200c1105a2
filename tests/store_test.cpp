// Storage substrate tests: sharded in-memory KV, file-backed log KV with
// restart/compaction, the Append contract across stores, decorators and
// the cache, prefix views, byte-budget LRU cache, latency decorator, the
// log's generations and record shipping under compaction, a differential
// test of the log store against the in-memory one, and the log store's
// heap per key.
#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "common/metrics.hpp"
#include "replica/replica_wire.hpp"
#include "replica/replicated_kv.hpp"
#include "store/fault_kv.hpp"
#include "store/latency.hpp"
#include "store/log_file.hpp"
#include "store/log_kv.hpp"
#include "store/lru_cache.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"

namespace tc::store {
namespace {

class MemKvTest : public ::testing::Test {
 protected:
  MemKvStore kv_{4};
};

TEST_F(MemKvTest, PutGetRoundTrip) {
  ASSERT_TRUE(kv_.Put("a", ToBytes("hello")).ok());
  auto v = kv_.Get("a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToString(*v), "hello");
}

TEST_F(MemKvTest, GetMissingIsNotFound) {
  EXPECT_EQ(kv_.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(MemKvTest, OverwriteReplacesValueAndAccounting) {
  ASSERT_TRUE(kv_.Put("k", ToBytes("12345")).ok());
  ASSERT_TRUE(kv_.Put("k", ToBytes("67")).ok());
  EXPECT_EQ(ToString(*kv_.Get("k")), "67");
  EXPECT_EQ(kv_.ValueBytes(), 2u);
  EXPECT_EQ(kv_.Size(), 1u);
}

TEST_F(MemKvTest, DeleteRemoves) {
  ASSERT_TRUE(kv_.Put("k", ToBytes("v")).ok());
  ASSERT_TRUE(kv_.Delete("k").ok());
  EXPECT_FALSE(kv_.Contains("k"));
  EXPECT_EQ(kv_.Delete("k").code(), StatusCode::kNotFound);
}

TEST_F(MemKvTest, ConcurrentWritersDistinctKeys) {
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(kv_.Put(key, ToBytes(key)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(kv_.Size(), static_cast<size_t>(kThreads * kPerThread));
}

class LogKvTest : public ::testing::Test {
 protected:
  LogKvTest() {
    path_ = std::filesystem::temp_directory_path() /
            ("tc_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~LogKvTest() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
  static int counter_;
};
int LogKvTest::counter_ = 0;

TEST_F(LogKvTest, PersistsAcrossReopen) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("alpha", ToBytes("1")).ok());
    ASSERT_TRUE((*kv)->Put("beta", ToBytes("2")).ok());
    ASSERT_TRUE((*kv)->Delete("alpha").ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_FALSE((*kv)->Contains("alpha"));
  EXPECT_EQ(ToString(*(*kv)->Get("beta")), "2");
  EXPECT_EQ((*kv)->Size(), 1u);
}

TEST_F(LogKvTest, OverwriteKeepsLatestAfterReplay) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*kv)->Put("k", ToBytes(std::to_string(i))).ok());
    }
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "9");
}

TEST_F(LogKvTest, CompactShrinksLog) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*kv)->Put("hot", Bytes(100, uint8_t(i))).ok());
  }
  ASSERT_TRUE((*kv)->Sync().ok());
  auto before = std::filesystem::file_size(path_);
  auto reclaimed = (*kv)->Compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  ASSERT_TRUE((*kv)->Sync().ok());
  auto after = std::filesystem::file_size(path_);
  EXPECT_LT(after, before);
  EXPECT_EQ((*kv)->Get("hot")->size(), 100u);
}

TEST_F(LogKvTest, AutoCompactionTriggersAtDeadFraction) {
  LogKvOptions options;
  options.compact_dead_fraction = 0.5;
  options.compact_min_dead_bytes = 4096;  // well below the default 1 MiB
  auto kv = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(kv.ok());

  // Live data plus repeated overwrites of one key: dead bytes accumulate
  // until they exceed half the total, then the store compacts itself.
  ASSERT_TRUE((*kv)->Put("live", Bytes(2048, 0x11)).ok());
  EXPECT_EQ((*kv)->Compaction().compactions, 0u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, uint8_t(i))).ok());
  }
  EXPECT_GE((*kv)->Compaction().compactions, 1u);
  // Post-compaction the log holds only live records.
  EXPECT_LT((*kv)->Compaction().dead_bytes, options.compact_min_dead_bytes);
  ASSERT_TRUE((*kv)->Sync().ok());
  // Far below the ~18 KiB the 9 appended records total (the live pair plus
  // at most a couple of post-compaction appends remain).
  EXPECT_LT(std::filesystem::file_size(path_), 4u * 2048u);

  // Everything survives the rewrite, in memory and on disk.
  EXPECT_EQ((*kv)->Get("live")->size(), 2048u);
  EXPECT_EQ((*(*kv)->Get("churn"))[0], uint8_t(7));
  kv->reset();
  auto reopened = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 2u);
  EXPECT_EQ((*(*reopened)->Get("churn"))[0], uint8_t(7));
}

TEST_F(LogKvTest, AutoCompactionDisabledByDefault) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(64 * 1024, uint8_t(i))).ok());
  }
  // Dead bytes pile up far past any threshold; no compaction runs.
  EXPECT_EQ((*kv)->Compaction().compactions, 0u);
  EXPECT_GT((*kv)->Compaction().dead_bytes, 60u * 64u * 1024u);
}

TEST_F(LogKvTest, TombstonesCountTowardAutoCompaction) {
  LogKvOptions options;
  options.compact_dead_fraction = 0.25;
  options.compact_min_dead_bytes = 1024;
  auto kv = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("live", Bytes(512, 0x22)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*kv)->Put("dead" + std::to_string(i), Bytes(512, 0x33)).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*kv)->Delete("dead" + std::to_string(i)).ok());
  }
  EXPECT_GE((*kv)->Compaction().compactions, 1u);
  EXPECT_TRUE((*kv)->Contains("live"));
  EXPECT_EQ((*kv)->Size(), 1u);
}

TEST_F(LogKvTest, GroupCommitSyncSkipsCoveredFlushes) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  // Sync with nothing appended (and re-sync with nothing new) is a no-op;
  // appends re-arm it. Observable contract: Sync always leaves the file
  // complete, regardless of how many callers coalesced.
  ASSERT_TRUE((*kv)->Sync().ok());
  ASSERT_TRUE((*kv)->Put("a", ToBytes("1")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  auto after_first = std::filesystem::file_size(path_);
  ASSERT_TRUE((*kv)->Sync().ok());  // covered: nothing new to flush
  EXPECT_EQ(std::filesystem::file_size(path_), after_first);
  ASSERT_TRUE((*kv)->Put("b", ToBytes("2")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  EXPECT_GT(std::filesystem::file_size(path_), after_first);

  // Concurrent writers + syncers: every record a thread synced after
  // writing must be on disk at the end.
  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "g" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Put(key, ToBytes(key)).ok());
        ASSERT_TRUE((*kv)->Sync().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  kv->reset();
  auto reopened = LogKvStore::Open(path_.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 2u + kThreads * kPerThread);
}

TEST_F(LogKvTest, ToleratesTornTailWrite) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE((*kv)->Put("good", ToBytes("value")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  // Simulate a crash mid-append: truncate a few bytes off the tail after
  // appending another record.
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE((*kv)->Put("torn", ToBytes("partial")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);

  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_TRUE((*kv)->Contains("good"));
  EXPECT_FALSE((*kv)->Contains("torn"));
}

TEST(LruCacheTest, HitAndMissCounting) {
  LruCache cache(1024);
  cache.Put("a", ToBytes("1"));
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.Put("a", Bytes(10, 1));
  cache.Put("b", Bytes(10, 2));
  cache.Put("c", Bytes(10, 3));
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Put("d", Bytes(10, 4));
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
}

TEST(LruCacheTest, OversizedValueNotCached) {
  LruCache cache(8);
  cache.Put("big", Bytes(100, 0));
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCacheTest, UpdateRefreshesSizeAccounting) {
  LruCache cache(100);
  cache.Put("k", Bytes(50, 0));
  cache.Put("k", Bytes(10, 0));
  EXPECT_EQ(cache.size_bytes(), 10u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache cache(100);
  cache.Put("a", Bytes(10, 0));
  cache.Put("b", Bytes(10, 0));
  cache.Erase("a");
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

/// The values of those of `keys` the store holds. Stores have no
/// iteration, so whole-store checks name the keys they wrote.
std::map<std::string, std::string> Values(
    const KvStore& kv, const std::vector<std::string>& keys) {
  std::map<std::string, std::string> out;
  for (const auto& key : keys) {
    auto value = kv.Get(key);
    if (value.ok()) out.emplace(key, ToString(*value));
  }
  return out;
}

/// "<prefix>0" .. "<prefix><n - 1>".
std::vector<std::string> Numbered(const std::string& prefix, int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) keys.push_back(prefix + std::to_string(i));
  return keys;
}

TEST(PrefixKvTest, EmptyPrefixIsATransparentView) {
  auto backend = std::make_shared<MemKvStore>();
  PrefixKvStore view(backend, "");
  ASSERT_TRUE(view.Put("k", ToBytes("v")).ok());
  EXPECT_EQ(ToString(*backend->Get("k")), "v");
  EXPECT_EQ(ToString(*view.Get("k")), "v");
  ASSERT_TRUE(view.Delete("k").ok());
  EXPECT_EQ(backend->Size(), 0u);
}

TEST(PrefixKvTest, NestedViewsComposePrefixes) {
  auto backend = std::make_shared<MemKvStore>();
  auto outer = std::make_shared<PrefixKvStore>(backend, "a/");
  PrefixKvStore inner(outer, "b/");
  ASSERT_TRUE(inner.Put("k", ToBytes("v")).ok());
  EXPECT_TRUE(backend->Contains("a/b/k"));
  EXPECT_EQ(ToString(*inner.Get("k")), "v");
  // Each layer adds its own prefix: the inner view takes bare keys, the
  // outer view sees the inner namespace.
  EXPECT_EQ(Values(*outer, {"k", "b/k"}),
            (std::map<std::string, std::string>{{"b/k", "v"}}));
  ASSERT_TRUE(inner.Delete("k").ok());
  EXPECT_EQ(backend->Size(), 0u);
}

TEST(PrefixKvTest, ViewReachesOnlyKeysUnderItsPrefix) {
  // "s1/" must not reach "s10/..." or the bare "s1" key, and a key that
  // merely starts with the prefix's first bytes ("s1" alone, "s1.") stays
  // out — the boundary is an exact prefix, not a range guess.
  auto backend = std::make_shared<MemKvStore>();
  ASSERT_TRUE(backend->Put("s1/inside", ToBytes("yes")).ok());
  ASSERT_TRUE(backend->Put("s1/", ToBytes("empty-key")).ok());
  ASSERT_TRUE(backend->Put("s10/outside", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s1", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s1.z", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s2/other", ToBytes("no")).ok());
  PrefixKvStore view(backend, "s1/");
  EXPECT_EQ(Values(view, {"", "inside", "0/outside", "s10/outside", "s1",
                          ".z", "s1.z", "s2/other", "../s2/other"}),
            (std::map<std::string, std::string>{{"", "empty-key"},
                                                {"inside", "yes"}}));
  ASSERT_TRUE(view.Put("s10/outside", ToBytes("mine")).ok());
  EXPECT_EQ(ToString(*backend->Get("s10/outside")), "no");
  EXPECT_EQ(ToString(*backend->Get("s1/s10/outside")), "mine");
}

TEST_F(LogKvTest, CompactionDuringFollowerCatchUpKeepsLogsIdentical) {
  // A primary log full of dead bytes compacts while a follower is being
  // copied and shipped to: each compaction starts a generation the
  // follower's log is no prefix of, so it is copied again, and it ends with
  // the primary's exact bytes — and replays to the same state.
  auto follower_path = path_.string() + ".follower";
  std::filesystem::remove(follower_path);
  // What the follower's store reports after its last copy took over.
  struct State {
    size_t size = 0;
    size_t value_bytes = 0;
    size_t dead_bytes = 0;
    LogHead head;
  } live_follower;
  {
    auto opened = LogKvStore::Open(path_.string());
    ASSERT_TRUE(opened.ok());
    std::shared_ptr<LogKvStore> primary = std::move(*opened);
    auto rkv = replica::ReplicatedKvStore::Open(primary);
    ASSERT_TRUE(rkv.ok());
    // Churn: overwrites and deletes accumulate dead bytes pre-attach.
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*rkv)->Put("k" + std::to_string(i % 20),
                              Bytes(256, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE((*rkv)->Delete("k0").ok());
    EXPECT_GT(primary->Compaction().dead_bytes, 0u);

    auto follower = LogKvStore::Open(follower_path);
    ASSERT_TRUE(follower.ok());
    std::shared_ptr<LogKvStore> follower_log = std::move(*follower);
    (*rkv)->AddFollower(std::make_shared<replica::RemoteFollower>(
        std::make_shared<net::InProcTransport>(
            std::make_shared<replica::ReplicaApplier>(follower_log))));
    // Compact mid-catch-up, then keep churning so shipping continues past
    // it.
    ASSERT_TRUE(primary->Compact().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*rkv)->Put("post" + std::to_string(i % 5),
                              Bytes(64, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(primary->Compact().ok());
    ASSERT_TRUE((*rkv)->Put("last", ToBytes("x")).ok());
    ASSERT_TRUE((*rkv)->WaitCaughtUp().ok());
    ASSERT_TRUE(primary->Sync().ok());
    std::vector<std::string> keys = Numbered("k", 20);
    for (const auto& key : Numbered("post", 5)) keys.push_back(key);
    keys.push_back("last");
    EXPECT_EQ(Values(*follower_log, keys), Values(**rkv, keys));
    EXPECT_EQ(Values(*follower_log, keys).size(), keys.size() - 1);
    EXPECT_EQ(follower_log->Head().position(), primary->Head().position());
    live_follower = {follower_log->Size(), follower_log->ValueBytes(),
                     follower_log->Compaction().dead_bytes,
                     follower_log->Head()};
  }
  auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(bytes(follower_path), bytes(path_.string()));
  // The follower's own log replays to the same state.
  {
    auto reopened = LogKvStore::Open(follower_path);
    ASSERT_TRUE(reopened.ok());
    auto primary = LogKvStore::Open(path_.string());
    ASSERT_TRUE(primary.ok());
    std::vector<std::string> keys = Numbered("k", 20);
    for (const auto& key : Numbered("post", 5)) keys.push_back(key);
    keys.push_back("last");
    EXPECT_EQ(Values(**reopened, keys), Values(**primary, keys));
    EXPECT_EQ((*reopened)->Head().position(), (*primary)->Head().position());
    // The installed copy's store equals the store its replay builds.
    EXPECT_EQ((*reopened)->Size(), live_follower.size);
    EXPECT_EQ((*reopened)->ValueBytes(), live_follower.value_bytes);
    EXPECT_EQ((*reopened)->Compaction().dead_bytes, live_follower.dead_bytes);
    const LogHead head = (*reopened)->Head();
    EXPECT_EQ(head.generation.id, live_follower.head.generation.id);
    EXPECT_EQ(head.generation.parent, live_follower.head.generation.parent);
    EXPECT_EQ(head.generation.begin, live_follower.head.generation.begin);
    EXPECT_EQ(head.generation.replaced,
              live_follower.head.generation.replaced);
    EXPECT_EQ(head.length, live_follower.head.length);
  }
  std::filesystem::remove(follower_path);
}

TEST_F(LogKvTest, GenerationRecordIsAnOrdinaryPut) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("a", ToBytes("xy")).ok());
  EXPECT_EQ((*kv)->Head().generation.id, 0u);  // no replication opened it
  const uint64_t begin = (*kv)->Head().length;
  ASSERT_TRUE((*kv)->StartGeneration().ok());
  const LogGeneration first = (*kv)->Head().generation;
  EXPECT_NE(first.id, 0u);
  EXPECT_EQ(first.parent, 0u);
  EXPECT_EQ(first.begin, begin);
  ASSERT_TRUE((*kv)->Sync().ok());
  {
    // A put of kGenerationKey: the id, the parent and what it replaced
    // (0 for a fork), as little-endian u64s. Any build replays it.
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    BinaryWriter id;
    id.PutU64(first.id);
    EXPECT_EQ(ToHex(ToBytes(bytes.substr(begin))),
              "0113" + ToHex(ToBytes("meta/log/generation")) + "18" +
                  ToHex(id.data()) + "0000000000000000" +
                  "0000000000000000");
  }
  // The next generation names this one as its parent, and a reopen finds
  // the last one.
  ASSERT_TRUE((*kv)->StartGeneration().ok());
  const LogGeneration second = (*kv)->Head().generation;
  EXPECT_EQ(second.parent, first.id);
  ASSERT_TRUE((*kv)->Sync().ok());
  kv->reset();
  kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->Head().generation.id, second.id);
  EXPECT_EQ((*kv)->Head().generation.parent, first.id);
  EXPECT_EQ((*kv)->Head().generation.begin, second.begin);
  // A compaction rewrites the history: a new generation that replaced
  // the whole old log, recorded last, after every value it kept.
  const uint64_t old_length = (*kv)->Head().length;
  ASSERT_TRUE((*kv)->Compact().ok());
  const LogHead compacted = (*kv)->Head();
  EXPECT_NE(compacted.generation.id, second.id);
  EXPECT_EQ(compacted.generation.parent, second.id);
  EXPECT_EQ(compacted.generation.replaced, old_length);
  EXPECT_EQ(compacted.generation.begin, 6u);  // after put a="xy"
  EXPECT_GT(compacted.length, compacted.generation.begin);
  EXPECT_EQ(compacted.progress(), old_length + compacted.length);
  EXPECT_EQ(ToString(*(*kv)->Get("a")), "xy");
  ASSERT_TRUE((*kv)->Sync().ok());
  kv->reset();
  kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->Head().generation.id, compacted.generation.id);
  EXPECT_EQ((*kv)->Head().generation.replaced, old_length);
}

TEST_F(LogKvTest, GenerationRecordAcrossAReplayBufferBoundaryReplays) {
  // Replay reads the log a buffer at a time. A generation record placed
  // so that its header and key lie in one buffer and its value runs into
  // the next: reading the value refills the buffer the key was read from.
  constexpr uint64_t kBuffer = LogFile::kReplayBufferBytes;
  constexpr uint64_t kGenerationStart = kBuffer - 35;
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  // "filler": 1 type byte, 1 + 6 key bytes and a 3-byte value length.
  ASSERT_TRUE((*kv)->Put("filler", Bytes(kGenerationStart - 11, 'f')).ok());
  ASSERT_EQ((*kv)->Head().length, kGenerationStart);
  ASSERT_TRUE((*kv)->StartGeneration().ok());
  // A whole buffer of other bytes after it, so the refill overwrites all
  // of the buffer.
  ASSERT_TRUE((*kv)->Put("after", Bytes(kBuffer, 'x')).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  const LogHead head = (*kv)->Head();
  const size_t size = (*kv)->Size();
  const size_t value_bytes = (*kv)->ValueBytes();
  kv->reset();

  kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  const LogHead reopened = (*kv)->Head();
  EXPECT_EQ(reopened.generation.id, head.generation.id);
  EXPECT_EQ(reopened.generation.begin, kGenerationStart);
  EXPECT_EQ(reopened.length, head.length);
  EXPECT_EQ((*kv)->Size(), size);
  EXPECT_EQ((*kv)->ValueBytes(), value_bytes);
  EXPECT_EQ((*kv)->Compaction().dead_bytes, 0u);
  EXPECT_EQ((*kv)->Get("after")->size(), kBuffer);
}

TEST_F(LogKvTest, ReadLogHandsOutWholeRecordsOfOneGeneration) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->StartGeneration().ok());
  const uint64_t start = (*kv)->Head().length;
  ASSERT_TRUE((*kv)->Put("a", Bytes(100, 1)).ok());
  const uint64_t second = (*kv)->Head().length;
  ASSERT_TRUE((*kv)->Put("b", Bytes(100, 2)).ok());
  const LogHead head = (*kv)->Head();
  const uint64_t gen = head.generation.id;
  // Records that fit; the first alone when it does not; none at the end.
  EXPECT_EQ((*kv)->ReadLog(gen, start, 150)->size(), second - start);
  EXPECT_EQ((*kv)->ReadLog(gen, start, 10)->size(), second - start);
  EXPECT_EQ((*kv)->ReadLog(gen, start, 1 << 20)->size(), head.length - start);
  EXPECT_TRUE((*kv)->ReadLog(gen, head.length, 1 << 20)->empty());
  EXPECT_EQ((*kv)->ReadLog(gen, head.length + 1, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*kv)->ReadLog(gen + 1, start, 10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LatencyKvTest, DelegatesAndCounts) {
  auto inner = std::make_shared<MemKvStore>();
  LatencyKvStore kv(inner, std::chrono::microseconds(0));
  ASSERT_TRUE(kv.Put("k", ToBytes("v")).ok());
  EXPECT_EQ(ToString(*kv.Get("k")), "v");
  EXPECT_EQ(kv.ops(), 2u);
  EXPECT_EQ(inner->Size(), 1u);
}

// A store that overrides nothing optional: runs the KvStore::Append default
// (Get + length check + Put) that decorators without an override inherit.
class DefaultAppendKv final : public KvStore {
 public:
  Status Put(const std::string& key, BytesView value) override {
    return inner_.Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    return inner_.Get(key);
  }
  Status Delete(const std::string& key) override { return inner_.Delete(key); }
  bool Contains(const std::string& key) const override {
    return inner_.Contains(key);
  }
  size_t Size() const override { return inner_.Size(); }
  size_t ValueBytes() const override { return inner_.ValueBytes(); }

 private:
  MemKvStore inner_{1};
};

// The KvStore::Append contract, run against every implementation of it.
class AppendContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "log") {
      path_ = std::filesystem::temp_directory_path() /
              ("tc_append_contract_" + std::to_string(::getpid()));
      std::filesystem::remove(path_);
      auto log = LogKvStore::Open(path_.string());
      ASSERT_TRUE(log.ok());
      kv_ = std::move(*log);
    } else if (GetParam() == "mem") {
      kv_ = std::make_shared<MemKvStore>(4);
    } else {
      kv_ = std::make_shared<DefaultAppendKv>();
    }
  }
  void TearDown() override {
    kv_.reset();
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  std::shared_ptr<KvStore> kv_;
  std::filesystem::path path_;
};

TEST_P(AppendContractTest, AppendsAtTheExpectedLength) {
  ASSERT_TRUE(kv_->Put("k", ToBytes("ab")).ok());
  auto grown = kv_->Append("k", 2, ToBytes("cd"));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(*grown, 4u);
  grown = kv_->Append("k", 4, ToBytes("e"));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(*grown, 5u);
  EXPECT_EQ(ToString(*kv_->Get("k")), "abcde");
  EXPECT_EQ(kv_->ValueBytes(), 5u);
  EXPECT_EQ(kv_->Size(), 1u);
}

TEST_P(AppendContractTest, MissingKeyIsNotFound) {
  EXPECT_EQ(kv_->Append("absent", 0, ToBytes("x")).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(kv_->Contains("absent"));
}

TEST_P(AppendContractTest, LengthMismatchIsFailedPreconditionAndWritesNothing) {
  ASSERT_TRUE(kv_->Put("k", ToBytes("ab")).ok());
  EXPECT_EQ(kv_->Append("k", 1, ToBytes("x")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(kv_->Append("k", 3, ToBytes("x")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ToString(*kv_->Get("k")), "ab");
  EXPECT_EQ(kv_->ValueBytes(), 2u);
}

TEST_P(AppendContractTest, AppendAfterDeleteIsNotFound) {
  ASSERT_TRUE(kv_->Put("k", ToBytes("ab")).ok());
  ASSERT_TRUE(kv_->Delete("k").ok());
  EXPECT_EQ(kv_->Append("k", 2, ToBytes("x")).status().code(),
            StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Stores, AppendContractTest,
                         ::testing::Values("mem", "log", "default"));

TEST_F(LogKvTest, AppendedValuesSurviveReopenWithoutDeadBytes) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("node", Bytes(8, 0)).ok());
    for (uint8_t e = 1; e < 16; ++e) {
      ASSERT_TRUE((*kv)->Append("node", e * 8u, Bytes(8, e)).ok());
    }
    // Growing a value by appends leaves nothing for compaction to reclaim.
    EXPECT_EQ((*kv)->Compaction().dead_bytes, 0u);
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  Bytes expected;
  for (uint8_t e = 0; e < 16; ++e) Append(expected, Bytes(8, e));
  EXPECT_EQ(*(*kv)->Get("node"), expected);
  EXPECT_EQ((*kv)->ValueBytes(), 128u);
  EXPECT_EQ((*kv)->Compaction().dead_bytes, 0u);
}

TEST_F(LogKvTest, TornTailInsideAnAppendRecordIsTruncated) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE((*kv)->Put("k", ToBytes("ab")).ok());
    ASSERT_TRUE((*kv)->Append("k", 2, ToBytes("cdef")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  // Crash mid-append: the append record loses its last two bytes.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 2);
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    EXPECT_EQ(ToString(*(*kv)->Get("k")), "ab");
    // The torn record is gone, so the next append lands after the put.
    ASSERT_TRUE((*kv)->Append("k", 2, ToBytes("xy")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "abxy");
}

void WriteFile(const std::filesystem::path& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

TEST_F(LogKvTest, OrphanAppendRecordIsDataLossNotATornTail) {
  // put "a" = "xy", then a complete append record (type 3) for "b", which
  // was never put, then a put that must not be silently dropped.
  const Bytes log = {0x01, 0x01, 'a', 0x02, 'x', 'y',   //
                     0x03, 0x01, 'b', 0x01, 'z',        //
                     0x01, 0x01, 'c', 0x01, 'w'};
  WriteFile(path_, log);
  auto kv = LogKvStore::Open(path_.string());
  EXPECT_EQ(kv.status().code(), StatusCode::kDataLoss);
  // Nothing was truncated away.
  EXPECT_EQ(std::filesystem::file_size(path_), log.size());
}

TEST_F(LogKvTest, SeedFormatLogStillReplays) {
  // A log with only put (1) and tombstone (2) records, byte for byte as
  // stores without append records wrote it: put a="xy", put b="1",
  // put a="z", delete b.
  WriteFile(path_, Bytes{0x01, 0x01, 'a', 0x02, 'x', 'y',  //
                         0x01, 0x01, 'b', 0x01, '1',       //
                         0x01, 0x01, 'a', 0x01, 'z',       //
                         0x02, 0x01, 'b'});
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    EXPECT_EQ(Values(**kv, {"a", "b"}),
              (std::map<std::string, std::string>{{"a", "z"}}));
    EXPECT_EQ((*kv)->Compaction().dead_bytes, 3u);
    ASSERT_TRUE((*kv)->Append("a", 1, ToBytes("q")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(Values(**kv, {"a", "b"}),
            (std::map<std::string, std::string>{{"a", "zq"}}));
}

TEST_F(LogKvTest, UnreplicatedLogBytesArePinned) {
  // What a store writes, byte for byte: put a="xy", put b="1", append "z"
  // to a (2 bytes before it), delete b. A store that no replication ever
  // opened holds nothing else.
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("a", ToBytes("xy")).ok());
    ASSERT_TRUE((*kv)->Put("b", ToBytes("1")).ok());
    ASSERT_TRUE((*kv)->Append("a", 2, ToBytes("z")).ok());
    ASSERT_TRUE((*kv)->Delete("b").ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(ToHex(ToBytes(bytes)),
            "0101610278790101620131030161017a020162");
}

TEST_F(LogKvTest, CompactThenReplayYieldsTheSameMap) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 8; ++i) {
    std::string key = "n" + std::to_string(i);
    ASSERT_TRUE((*kv)->Put(key, ToBytes("e0")).ok());
    for (int e = 1; e <= i; ++e) {
      ASSERT_TRUE((*kv)->Append(key, 2u * e, ToBytes("e" + std::to_string(e)))
                      .ok());
    }
  }
  ASSERT_TRUE((*kv)->Put("n3", ToBytes("overwritten")).ok());
  ASSERT_TRUE((*kv)->Delete("n5").ok());
  const std::vector<std::string> keys = Numbered("n", 8);
  auto before = Values(**kv, keys);
  EXPECT_EQ(before.size(), 7u);

  ASSERT_TRUE((*kv)->Compact().ok());
  EXPECT_EQ(Values(**kv, keys), before);
  EXPECT_EQ((*kv)->Size(), before.size());
  // Get reads the rewritten log through the descriptor Compact swapped in.
  for (const auto& [key, value] : before) {
    EXPECT_EQ(ToString(*(*kv)->Get(key)), value) << key;
  }
  // Appends keep working on merged values after the rewrite.
  ASSERT_TRUE((*kv)->Append("n7", 16, ToBytes("e8")).ok());
  before["n7"] += "e8";
  EXPECT_EQ(ToString(*(*kv)->Get("n7")), before["n7"]);
  ASSERT_TRUE((*kv)->Sync().ok());
  kv->reset();

  auto reopened = LogKvStore::Open(path_.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Values(**reopened, keys), before);
  EXPECT_EQ((*reopened)->Size(), before.size());
}

TEST_F(LogKvTest, GetSeesPutsAndAppendsBeforeAnySync) {
  // Records sit in the write buffer until a flush; Get must flush them
  // itself before it reads the file.
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("empty", {}).ok());
  EXPECT_TRUE((*kv)->Get("empty")->empty());
  ASSERT_TRUE((*kv)->Put("k", ToBytes("ab")).ok());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "ab");
  ASSERT_TRUE((*kv)->Append("k", 2, ToBytes("cd")).ok());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "abcd");
  ASSERT_TRUE((*kv)->Put("k", ToBytes("new")).ok());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "new");
  // The flush the last Get made counts for Sync's group commit: the file
  // already holds every record.
  auto size = std::filesystem::file_size(path_);
  ASSERT_TRUE((*kv)->Sync().ok());
  EXPECT_EQ(std::filesystem::file_size(path_), size);
}

TEST_F(LogKvTest, ValueOf64InterleavedAppendsReadsBackAfterReopen) {
  // An index node's shape: one put, then 63 appends with other records in
  // between. Most gaps are small; every 16th is a value longer than the
  // gap a single read spans, so the node is read in several runs.
  Bytes expected = Bytes(40, 0);
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("node", expected).ok());
    for (uint8_t e = 1; e < 64; ++e) {
      size_t filler = e % 16 == 0 ? 3 * 4096 : 100;
      ASSERT_TRUE(
          (*kv)->Put("chunk/" + std::to_string(e), Bytes(filler, 0xee)).ok());
      ASSERT_TRUE((*kv)->Append("node", expected.size(), Bytes(40, e)).ok());
      Append(expected, Bytes(40, e));
    }
    EXPECT_EQ(*(*kv)->Get("node"), expected);
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(*(*kv)->Get("node"), expected);
  EXPECT_EQ(*(*kv)->Get("chunk/16"), Bytes(3 * 4096, 0xee));
  EXPECT_EQ((*kv)->ValueBytes(), 64u * 40u + 60u * 100u + 3u * 3u * 4096u);
}

TEST_F(LogKvTest, GetsRacingPutsAndCompactionsSeeWholeValues) {
  // Readers copy a value's extents under the lock and read the file
  // without it, while the writer overwrites, appends and compacts. Every
  // value read must be one the store held: "k" is Bytes(n, n % 251) for
  // some n, and "node" is blocks of 8 bytes, block b holding b.
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  LogKvStore& store = **kv;
  ASSERT_TRUE(store.Put("k", Bytes(1, 1)).ok());
  ASSERT_TRUE(store.Put("node", Bytes(8, 0)).ok());
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto k = store.Get("k");
        auto node = store.Get("node");
        if (!k.ok() || !node.ok() || k->empty() || node->size() % 8 != 0) {
          ++bad;
          continue;
        }
        for (uint8_t byte : *k) {
          if (byte != k->size() % 251) ++bad;
        }
        for (size_t i = 0; i < node->size(); ++i) {
          if ((*node)[i] != static_cast<uint8_t>(i / 8)) ++bad;
        }
      }
    });
  }
  auto write = [&] {
    size_t blocks = 1;
    for (size_t i = 2; i < 400; ++i) {
      ASSERT_TRUE(
          store.Put("k", Bytes(i, static_cast<uint8_t>(i % 251))).ok());
      if (blocks == 32) {
        ASSERT_TRUE(store.Put("node", Bytes(8, 0)).ok());
        blocks = 1;
      } else {
        ASSERT_TRUE(store
                        .Append("node", blocks * 8,
                                Bytes(8, static_cast<uint8_t>(blocks)))
                        .ok());
        ++blocks;
      }
      if (i % 25 == 0) ASSERT_TRUE(store.Compact().ok());
    }
  };
  write();
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(store.Compaction().compactions, 15u);
}

TEST_F(LogKvTest, LogWrittenByTheDirectoryFreeStoreReplays) {
  // Byte for byte what the store wrote before it kept a key directory,
  // when it held every value in memory: put node="n0", put chunk/0,
  // append node "n1", put chunk/1, append node "n2", put empty="",
  // put over="old value", append over "+tail", put over="new",
  // append over "!", put gone="bye", delete gone, append node "n3".
  WriteFile(path_,
            Bytes{0x01, 0x04, 'n', 'o', 'd', 'e', 0x02, 'n', '0', 0x01, 0x07,
                  'c', 'h', 'u', 'n', 'k', '/', '0', 0x09, 'p', 'a', 'y', 'l',
                  'o', 'a', 'd', '-', '0', 0x03, 0x04, 'n', 'o', 'd', 'e',
                  0x02, 'n', '1', 0x01, 0x07, 'c', 'h', 'u', 'n', 'k', '/',
                  '1', 0x09, 'p', 'a', 'y', 'l', 'o', 'a', 'd', '-', '1',
                  0x03, 0x04, 'n', 'o', 'd', 'e', 0x02, 'n', '2', 0x01, 0x05,
                  'e', 'm', 'p', 't', 'y', 0x00, 0x01, 0x04, 'o', 'v', 'e',
                  'r', 0x09, 'o', 'l', 'd', ' ', 'v', 'a', 'l', 'u', 'e',
                  0x03, 0x04, 'o', 'v', 'e', 'r', 0x05, '+', 't', 'a', 'i',
                  'l', 0x01, 0x04, 'o', 'v', 'e', 'r', 0x03, 'n', 'e', 'w',
                  0x03, 0x04, 'o', 'v', 'e', 'r', 0x01, '!', 0x01, 0x04, 'g',
                  'o', 'n', 'e', 0x03, 'b', 'y', 'e', 0x02, 0x04, 'g', 'o',
                  'n', 'e', 0x03, 0x04, 'n', 'o', 'd', 'e', 0x02, 'n', '3'});
  // What that store answered after writing it.
  const std::map<std::string, std::string> expected = {
      {"chunk/0", "payload-0"}, {"chunk/1", "payload-1"}, {"empty", ""},
      {"node", "n0n1n2n3"},     {"over", "new!"}};
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->Size(), expected.size());
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(ToString(*(*kv)->Get(key)), value) << key;
  }
  EXPECT_FALSE((*kv)->Contains("gone"));
  EXPECT_EQ((*kv)->Size(), 5u);
  EXPECT_EQ((*kv)->ValueBytes(), 30u);
  EXPECT_EQ((*kv)->Compaction().dead_bytes, 17u);
}

// Replay reads the log through a buffer of LogFile::kReplayBufferBytes.
// These logs hold 60-byte puts ("k" + 6 digits, 50 value bytes), so record
// kStraddler starts 16 bytes before the buffer's end and ends past it.
constexpr size_t kRecordBytes = 60;
constexpr size_t kStraddler = LogFile::kReplayBufferBytes / kRecordBytes;

std::string RecordKey(size_t i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%06zu", i);
  return key;
}

Bytes RecordValue(size_t i) { return Bytes(50, static_cast<uint8_t>(i % 251)); }

TEST_F(LogKvTest, RecordsAcrossReplayBufferBoundariesReplay) {
  constexpr size_t kRecords = kStraddler + 10;
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    for (size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE((*kv)->Put(RecordKey(i), RecordValue(i)).ok());
    }
    ASSERT_TRUE((*kv)->Sync().ok());
    ASSERT_EQ(std::filesystem::file_size(path_), kRecords * kRecordBytes);
    // A value longer than the buffer, then more small records after it.
    ASSERT_TRUE(
        (*kv)->Put("big", Bytes(LogFile::kReplayBufferBytes + 7, 0xb1))
            .ok());
    ASSERT_TRUE((*kv)->Put("after", ToBytes("tail")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->Size(), kRecords + 2);
  for (size_t i : {size_t{0}, kStraddler - 1, kStraddler, kRecords - 1}) {
    EXPECT_EQ(*(*kv)->Get(RecordKey(i)), RecordValue(i)) << i;
  }
  EXPECT_EQ(*(*kv)->Get("big"),
            Bytes(LogFile::kReplayBufferBytes + 7, 0xb1));
  EXPECT_EQ(ToString(*(*kv)->Get("after")), "tail");
}

TEST_F(LogKvTest, TornTailJustPastTheReplayBufferIsTruncated) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    for (size_t i = 0; i < kStraddler + 10; ++i) {
      ASSERT_TRUE((*kv)->Put(RecordKey(i), RecordValue(i)).ok());
    }
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  // Crash 3 bytes into the second buffer: the straddling record is torn.
  std::filesystem::resize_file(path_, LogFile::kReplayBufferBytes + 3);
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    EXPECT_EQ((*kv)->Size(), kStraddler);
    EXPECT_EQ(*(*kv)->Get(RecordKey(kStraddler - 1)),
              RecordValue(kStraddler - 1));
    EXPECT_FALSE((*kv)->Contains(RecordKey(kStraddler)));
    EXPECT_EQ(std::filesystem::file_size(path_), kStraddler * kRecordBytes);
    ASSERT_TRUE((*kv)->Put("next", ToBytes("kept")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->Size(), kStraddler + 1);
  EXPECT_EQ(ToString(*(*kv)->Get("next")), "kept");
}

TEST(LogKvFailureTest, RecordsLostWithAFailedWriteFailSyncAndGet) {
  // Every write to /dev/full fails with ENOSPC. The first put fits in the
  // write buffer and succeeds; the second is larger than the buffer, so its
  // write fails and takes the first put's buffered bytes with it. Sync and
  // a Get of the first key must report that, not succeed. (No Compact here:
  // it would write /dev/full.compact and rename it over the device.)
  if (!std::filesystem::is_character_file("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  auto kv = LogKvStore::Open("/dev/full");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("buffered", ToBytes("never written")).ok());
  EXPECT_FALSE((*kv)->Put("big", Bytes(64 << 10, 0xbb)).ok());
  EXPECT_FALSE((*kv)->Sync().ok());
  EXPECT_FALSE((*kv)->Get("buffered").ok());
  EXPECT_FALSE((*kv)->Sync().ok());
  EXPECT_FALSE((*kv)->Put("later", ToBytes("x")).ok());
}

TEST_F(LogKvTest, FailedWriteKeepsRecordsThatReachedTheFile) {
  // A file size limit a little past the synced log: the buffered put and
  // the start of the big one reach the file, then the write fails with
  // EFBIG. The buffered put is in the file, so Sync and Get succeed;
  // writes are refused until a compaction rewrites the log.
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("synced", ToBytes("s")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  ASSERT_TRUE((*kv)->Put("buffered", ToBytes("b")).ok());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = std::filesystem::file_size(path_) + 64;
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  Status big = (*kv)->Put("big", Bytes(64 << 10, 0xbb));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(big.ok());
  EXPECT_TRUE((*kv)->Sync().ok());
  EXPECT_EQ(ToString(*(*kv)->Get("buffered")), "b");
  EXPECT_FALSE((*kv)->Contains("big"));
  EXPECT_FALSE((*kv)->Put("refused", ToBytes("r")).ok());
  ASSERT_TRUE((*kv)->Compact().ok());
  ASSERT_TRUE((*kv)->Put("after", ToBytes("a")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  kv->reset();

  auto reopened = LogKvStore::Open(path_.string());
  ASSERT_TRUE(reopened.ok());
  const std::map<std::string, std::string> expected = {
      {"after", "a"}, {"buffered", "b"}, {"synced", "s"}};
  EXPECT_EQ(Values(**reopened, {"after", "big", "buffered", "refused",
                                 "synced"}),
            expected);
  EXPECT_EQ((*reopened)->Size(), expected.size());
}

TEST_F(LogKvTest, FailedCompactionChangesNothing) {
  // A directory where a compaction writes its new log makes every Compact
  // fail. The store keeps serving and writing its old log, and counts no
  // compaction.
  const std::filesystem::path blocker = path_.string() + ".compact";
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("a", ToBytes("1")).ok());
    ASSERT_TRUE((*kv)->Put("a", ToBytes("2")).ok());
    ASSERT_TRUE((*kv)->Put("node", ToBytes("n0")).ok());
    EXPECT_EQ((*kv)->Compact().status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(ToString(*(*kv)->Get("a")), "2");
    ASSERT_TRUE((*kv)->Put("b", ToBytes("3")).ok());
    ASSERT_EQ(*(*kv)->Append("node", 2, ToBytes("n1")), 4u);
    ASSERT_TRUE((*kv)->Sync().ok());
    EXPECT_EQ(ToString(*(*kv)->Get("node")), "n0n1");
    EXPECT_EQ((*kv)->Compaction().compactions, 0u);
    EXPECT_EQ((*kv)->Compaction().dead_bytes, 1u);
  }
  auto reopened = LogKvStore::Open(path_.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Values(**reopened, {"a", "b", "node"}),
            (std::map<std::string, std::string>{
                {"a", "2"}, {"b", "3"}, {"node", "n0n1"}}));
  EXPECT_EQ((*reopened)->Compaction().dead_bytes, 1u);
  std::filesystem::remove(blocker);
}

TEST_F(LogKvTest, FailedAutoCompactionBacksOff) {
  // The put that crosses the threshold succeeds although its compaction
  // fails. The store then waits for max(compact_min_dead_bytes, 1 MiB)
  // more dead bytes before it tries again.
  const std::filesystem::path blocker = path_.string() + ".compact";
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  LogKvOptions options;
  options.compact_dead_fraction = 0.5;
  options.compact_min_dead_bytes = 4096;
  auto kv = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("live", Bytes(2048, 0x11)).ok());
  // The fourth overwrite leaves 6 KiB dead of 10 KiB: past both bounds.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, uint8_t(i))).ok());
  }
  EXPECT_EQ((*kv)->Compaction().dead_bytes, 3u * 2048u);
  EXPECT_EQ((*kv)->Compaction().compactions, 0u);
  std::filesystem::remove(blocker);

  ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, 4)).ok());
  EXPECT_EQ((*kv)->Compaction().compactions, 0u);
  // The retry waits for 1 MiB more dead bytes than the failure saw.
  constexpr int kBackoffPuts = (1 << 20) / 2048;
  for (int i = 0; i < kBackoffPuts - 2; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, uint8_t(i))).ok());
  }
  EXPECT_EQ((*kv)->Compaction().compactions, 0u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, 0x77)).ok());
  }
  EXPECT_EQ((*kv)->Compaction().compactions, 1u);
  EXPECT_EQ((*kv)->Get("live")->size(), 2048u);
  EXPECT_EQ((*(*kv)->Get("churn"))[0], 0x77);
}

// Seeded random Put, Append, Delete, Get and Contains against MemKvStore
// as the oracle, with a Compact or a reopen between phases. 3,000 keys
// take the log store's directory table through eight doublings, and
// deleting from it at up to 3/4 load removes keys from the middle of probe
// runs. Values and suffixes are often empty, and keys grown by appends
// keep growing across every Compact. A few keys exceed the 64 KiB blocks
// the directory keeps keys in.
class LogKvDifferentialTest : public LogKvTest,
                              public ::testing::WithParamInterface<uint64_t> {
 protected:
  static constexpr size_t kKeys = 3000;

  static std::string KeyOf(size_t i) {
    std::string key = "chunk/" + std::to_string(i * 7919) + "/" +
                      std::to_string(i);
    if (i % 1000 == 999) key.append(70'000, 'x');
    return key;
  }

  // Both stores hold the same pairs, checked through every read path.
  void ExpectSame(const KvStore& log, const KvStore& mem,
                  const std::string& when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(log.Size(), mem.Size());
    EXPECT_EQ(log.ValueBytes(), mem.ValueBytes());
    for (size_t i = 0; i < kKeys; ++i) {
      std::string key = KeyOf(i);
      ASSERT_EQ(log.Contains(key), mem.Contains(key)) << i;
      auto got = log.Get(key);
      auto want = mem.Get(key);
      ASSERT_EQ(got.status().code(), want.status().code()) << i;
      if (want.ok()) ASSERT_EQ(*got, *want) << i;
    }
  }
};

TEST_P(LogKvDifferentialTest, MatchesMemKvStoreAcrossCompactionsAndReopens) {
  std::mt19937_64 rng(GetParam());
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto bytes = [&](size_t max_len) {
    Bytes b(pick(max_len + 1) * pick(2));  // empty about half the time
    for (auto& byte : b) byte = static_cast<uint8_t>(rng());
    return b;
  };
  MemKvStore mem(4);
  auto log = LogKvStore::Open(path_.string());
  ASSERT_TRUE(log.ok());
  for (int phase = 0; phase < 8; ++phase) {
    // The first phase only puts, filling the table; later ones mix in
    // the other operations.
    for (int op = 0; op < 4000; ++op) {
      std::string key = KeyOf(pick(kKeys));
      size_t kind = phase == 0 ? 0 : pick(10);
      if (kind < 3) {
        Bytes value = bytes(40);
        ASSERT_TRUE((*log)->Put(key, value).ok());
        ASSERT_TRUE(mem.Put(key, value).ok());
      } else if (kind < 6) {
        auto size = mem.Get(key);
        // Mostly the right length; sometimes one off, which must fail.
        size_t expected = size.ok() ? size->size() + pick(8) / 7 : 0;
        Bytes suffix = bytes(16);
        auto got = (*log)->Append(key, expected, suffix);
        auto want = mem.Append(key, expected, suffix);
        ASSERT_EQ(got.status().code(), want.status().code()) << key;
        if (want.ok()) ASSERT_EQ(*got, *want);
      } else if (kind < 8) {
        ASSERT_EQ((*log)->Delete(key).code(), mem.Delete(key).code());
      } else if (kind < 9) {
        auto got = (*log)->Get(key);
        auto want = mem.Get(key);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) ASSERT_EQ(*got, *want);
      } else {
        ASSERT_EQ((*log)->Contains(key), mem.Contains(key));
      }
    }
    ExpectSame(**log, mem, "phase " + std::to_string(phase));
    if (phase % 2 == 0) {
      ASSERT_TRUE((*log)->Compact().ok());
      ExpectSame(**log, mem, "compacted " + std::to_string(phase));
    } else {
      ASSERT_TRUE((*log)->Sync().ok());
      log->reset();
      log = LogKvStore::Open(path_.string());
      ASSERT_TRUE(log.ok());
      ExpectSame(**log, mem, "reopened " + std::to_string(phase));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogKvDifferentialTest,
                         ::testing::Values(1, 2, 3));

TEST_F(LogKvTest, KeyDirectoryTakesAtMost96BytesOfHeapPerKey) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer replaces malloc, which mallinfo2 measures";
#endif
  // Chunk keys as the server names them, with small values: the log holds
  // the values, so the heap grows by the directory alone. Allocations too
  // big for the heap are mapped and counted in hblkhd, not uordblks.
  constexpr size_t kKeys = 100'000;
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  auto heap_bytes = [] {
    struct mallinfo2 info = ::mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  size_t before = heap_bytes();
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*kv)
                    ->Put("chunk/18446744073709551557/" + std::to_string(i),
                          Bytes(8, static_cast<uint8_t>(i)))
                    .ok());
  }
  size_t per_key = (heap_bytes() - before) / kKeys;
  EXPECT_LE(per_key, 96u) << "heap bytes per key";
  EXPECT_EQ((*kv)->Size(), kKeys);
}

TEST(LruCacheTest, AppendGrowsACachedValueInPlace) {
  LruCache cache(64);
  cache.Put("k", ToBytes("ab"));
  cache.Append("k", 2, ToBytes("cd"));
  EXPECT_EQ(ToString(*cache.Get("k")), "abcd");
  EXPECT_EQ(cache.size_bytes(), 4u);
}

TEST(LruCacheTest, AppendDropsStaleEntriesAndLeavesAbsentOnesAbsent) {
  LruCache cache(8);
  cache.Append("absent", 0, ToBytes("x"));
  EXPECT_FALSE(cache.Get("absent").has_value());

  cache.Put("stale", ToBytes("ab"));
  cache.Append("stale", 5, ToBytes("x"));  // the store's value moved on
  EXPECT_FALSE(cache.Get("stale").has_value());

  cache.Put("big", ToBytes("abcdef"));
  cache.Append("big", 6, ToBytes("ghi"));  // would outgrow the budget
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruCacheTest, OversizedPutDropsTheOlderValue) {
  LruCache cache(8);
  cache.Put("k", ToBytes("ab"));
  cache.Put("k", ToBytes("abcdefghi"));  // larger than the whole budget
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

// Records every KvStore call that reaches it, over a MemKvStore, and
// reports a fixed compaction figure so a forwarded Compaction is visible.
class SpyKv final : public KvStore {
 public:
  Status Put(const std::string& key, BytesView value) override {
    ++calls["Put"];
    return inner_.Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    ++calls["Get"];
    return inner_.Get(key);
  }
  Status Delete(const std::string& key) override {
    ++calls["Delete"];
    return inner_.Delete(key);
  }
  bool Contains(const std::string& key) const override {
    ++calls["Contains"];
    return inner_.Contains(key);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    ++calls["Append"];
    return inner_.Append(key, expected_size, suffix);
  }
  size_t Size() const override {
    ++calls["Size"];
    return inner_.Size();
  }
  size_t ValueBytes() const override {
    ++calls["ValueBytes"];
    return inner_.ValueBytes();
  }
  Status Sync() override {
    ++calls["Sync"];
    return Status::Ok();
  }
  CompactionStats Compaction() const override {
    ++calls["Compaction"];
    return {7, 42};
  }

  mutable std::map<std::string, int> calls;

 private:
  MemKvStore inner_{1};
};

// Every decorator passes each KvStore call to the store it wraps exactly
// once: none falls back to a KvStore default (Append as Get + Put, a no-op
// Sync, zero Compaction).
TEST(DecoratorTest, EveryDecoratorForwardsEveryKvStoreCall) {
  struct Decorator {
    const char* name;
    std::function<std::shared_ptr<KvStore>(std::shared_ptr<KvStore>)> wrap;
  };
  const std::vector<Decorator> decorators = {
      {"prefix",
       [](auto inner) { return std::make_shared<PrefixKvStore>(inner, "p/"); }},
      {"fault",
       [](auto inner) { return std::make_shared<FaultKvStore>(inner); }},
      {"latency",
       [](auto inner) {
         return std::make_shared<LatencyKvStore>(inner,
                                                 std::chrono::microseconds(0));
       }},
  };
  for (const auto& d : decorators) {
    SCOPED_TRACE(d.name);
    auto spy = std::make_shared<SpyKv>();
    auto kv = d.wrap(spy);
    ASSERT_TRUE(kv->Put("k", ToBytes("ab")).ok());
    EXPECT_EQ(ToString(*kv->Get("k")), "ab");
    EXPECT_TRUE(kv->Contains("k"));
    EXPECT_EQ(*kv->Append("k", 2, ToBytes("c")), 3u);
    EXPECT_EQ(kv->Size(), 1u);
    EXPECT_EQ(kv->ValueBytes(), 3u);
    EXPECT_TRUE(kv->Sync().ok());
    const KvStore::CompactionStats compaction = kv->Compaction();
    EXPECT_EQ(compaction.compactions, 7u);
    EXPECT_EQ(compaction.dead_bytes, 42u);
    ASSERT_TRUE(kv->Delete("k").ok());
    EXPECT_EQ(spy->calls, (std::map<std::string, int>{{"Append", 1},
                                                      {"Compaction", 1},
                                                      {"Contains", 1},
                                                      {"Delete", 1},
                                                      {"Get", 1},
                                                      {"Put", 1},
                                                      {"Size", 1},
                                                      {"Sync", 1},
                                                      {"ValueBytes", 1}}));
  }

  // A Latency store pays one delay per call that crosses to the store.
  auto spy = std::make_shared<SpyKv>();
  LatencyKvStore slow(spy, std::chrono::microseconds(0));
  ASSERT_TRUE(slow.Put("k", ToBytes("a")).ok());
  ASSERT_TRUE(slow.Append("k", 1, ToBytes("b")).ok());
  ASSERT_TRUE(slow.Sync().ok());
  EXPECT_EQ(slow.ops(), 3u);

  // A Fault store's Append is a write: it takes its turn on the put
  // schedule. Under the hard outage a Sync fails and stops.
  FaultOptions options;
  options.fail_every_nth_put = 2;
  FaultKvStore faulty(spy, options);
  ASSERT_TRUE(faulty.Put("f", ToBytes("a")).ok());
  EXPECT_EQ(faulty.Append("f", 1, ToBytes("b")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(faulty.puts_failed(), 1u);
  ASSERT_TRUE(faulty.Append("f", 1, ToBytes("b")).ok());
  EXPECT_EQ(ToString(*spy->Get("f")), "ab");
  faulty.SetFailAll(true);
  const int syncs = spy->calls["Sync"];
  EXPECT_EQ(faulty.Sync().code(), StatusCode::kUnavailable);
  EXPECT_EQ(spy->calls["Sync"], syncs);
}

// With both Get schedules set, each keeps its own count: failures land on
// every nth Get, corruption on every nth Get that returned a value.
TEST(FaultKvTest, FailAndCorruptGetSchedulesAreIndependent) {
  auto inner = std::make_shared<MemKvStore>();
  ASSERT_TRUE(inner->Put("k", ToBytes("value")).ok());
  FaultOptions options;
  options.fail_every_nth_get = 3;
  options.corrupt_every_nth_get = 2;
  FaultKvStore kv(inner, options);
  std::vector<int> failed, corrupted;
  for (int get = 1; get <= 12; ++get) {
    auto value = kv.Get("k");
    if (!value.ok()) {
      failed.push_back(get);
    } else if (ToString(*value) != "value") {
      corrupted.push_back(get);
    }
  }
  // Gets 1 2 4 5 7 8 10 11 return a value; every 2nd of those is corrupted.
  EXPECT_EQ(failed, (std::vector<int>{3, 6, 9, 12}));
  EXPECT_EQ(corrupted, (std::vector<int>{2, 5, 8, 11}));
  EXPECT_EQ(kv.gets_failed(), 4u);
  EXPECT_EQ(kv.gets_corrupted(), 4u);
}

TEST(LatencyKvTest, InjectsDelay) {
  auto inner = std::make_shared<MemKvStore>();
  LatencyKvStore kv(inner, std::chrono::microseconds(2000));
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(kv.Put("k", ToBytes("v")).ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1900);
}

}  // namespace
}  // namespace tc::store
