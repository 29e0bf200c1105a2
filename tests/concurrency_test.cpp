// Concurrency tests: the server engine is shared mutable state behind
// per-stream mutexes and a shared_mutex registry; the TCP server is
// connection-per-thread; the LRU cache and KV stores claim thread safety;
// the crypto wrappers share algorithm handles fetched once per process.
// These tests drive them from many threads and assert the results stay
// exactly consistent (sums match oracles — no lost updates, no torn reads).
// The PeriodicThread tests pin the stop contract the failure detectors
// rely on. The BlockingChecks tests are death tests of the Debug-build
// blocking checks (common/thread_annotations.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "client/owner.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "common/trace.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/sha256.hpp"
#include "net/executor.hpp"
#include "net/tcp.hpp"
#include "server/server_engine.hpp"
#include "store/lru_cache.hpp"
#include "store/mem_kv.hpp"
#include "tests/support/helpers.hpp"

namespace tc {
namespace {

using client::OwnerClient;
using testing::kDelta;
using testing::HeacConfig;

// Must stay the first test in this file: nothing in the process has hashed
// or sealed yet, so the four threads race the one-time fetch of the
// SHA-256 and AES-128-GCM handles.
TEST(Concurrency, FirstCryptoCallsRaceTheAlgorithmFetch) {
  constexpr int kThreads = 4;
  const std::string kAbc =
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  // McGrew-Viega GCM spec test case 2: zero key and IV, one zero block.
  const Bytes kSpecBlob = FromHex(
                              "000000000000000000000000"
                              "0388dace60b6a392f328c2b971b2fe78"
                              "ab6e47d42cec13bdf53a67b21257bddf")
                              .value();
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      crypto::Sha256Digest d = crypto::Sha256(ToBytes("abc"));
      if (ToHex(BytesView(d.data(), d.size())) != kAbc) ++failures;
      crypto::Key128 key{};
      Bytes pt(16, 0);
      auto round_trip = crypto::GcmOpen(key, crypto::GcmSeal(key, pt));
      if (!round_trip.ok() || *round_trip != pt) ++failures;
      auto spec = crypto::GcmOpen(key, kSpecBlob);
      if (!spec.ok() || *spec != pt) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
}

TEST(Concurrency, ParallelStreamsIngestIndependently) {
  constexpr int kThreads = 8;
  constexpr uint64_t kChunks = 40;
  auto kv = std::make_shared<store::MemKvStore>();
  auto server = std::make_shared<server::ServerEngine>(kv);
  auto transport = std::make_shared<net::InProcTransport>(server);

  // One owner per thread (OwnerClient is not itself thread-safe; the shared
  // mutable state under test is the server engine).
  std::vector<std::thread> threads;
  std::vector<uint64_t> uuids(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OwnerClient owner(transport);
      auto uuid = owner.CreateStream(
          HeacConfig("concurrent/" + std::to_string(t)));
      if (!uuid.ok()) {
        ++failures;
        return;
      }
      uuids[t] = *uuid;
      for (uint64_t c = 0; c < kChunks; ++c) {
        for (int i = 0; i < 3; ++i) {
          if (!owner
                   .InsertRecord(*uuid,
                                 {static_cast<Timestamp>(c * kDelta + i),
                                  static_cast<int64_t>(t + 1)})
                   .ok()) {
            ++failures;
          }
        }
      }
      if (!owner.Flush(*uuid).ok()) ++failures;
      // Each thread verifies its own stream while others still write.
      auto stats = owner.GetStatRange(*uuid, {0, kChunks * kDelta});
      if (!stats.ok() ||
          stats->stats.Sum().value() !=
              static_cast<int64_t>(3 * kChunks * (t + 1))) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(server->NumStreams(), static_cast<size_t>(kThreads));
}

TEST(Concurrency, ReadersSeeConsistentPrefixDuringIngest) {
  auto transport = testing::ServeInProc();
  OwnerClient writer(transport);
  auto uuid = writer.CreateStream(HeacConfig("prefix/stream"));
  ASSERT_TRUE(uuid.ok());

  constexpr uint64_t kChunks = 200;
  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};

  // Readers hammer stat queries over whatever prefix exists. Every value
  // of 1 makes sum == count == #ingested chunks — any torn index state
  // would produce sum != count.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      OwnerClient reader(transport);
      while (!done) {
        net::StatRangeRequest req{*uuid, {0, kChunks * kDelta}};
        auto resp = transport->Call(net::MessageType::kGetStatRange,
                                    req.Encode());
        if (!resp.ok()) continue;  // empty prefix: NotFound is fine
        auto decoded = net::StatRangeResponse::Decode(*resp);
        if (!decoded.ok()) ++reader_failures;
      }
    });
  }

  for (uint64_t c = 0; c < kChunks; ++c) {
    ASSERT_TRUE(
        writer
            .InsertRecord(*uuid, {static_cast<Timestamp>(c * kDelta), 1})
            .ok());
  }
  ASSERT_TRUE(writer.Flush(*uuid).ok());
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_failures, 0);

  auto final_stats = writer.GetStatRange(*uuid, {0, kChunks * kDelta});
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(final_stats->stats.Sum().value(),
            static_cast<int64_t>(kChunks));
  EXPECT_EQ(final_stats->stats.Count().value(), kChunks);
}

TEST(Concurrency, TcpServerHandlesParallelClients) {
  auto kv = std::make_shared<store::MemKvStore>();
  auto engine = std::make_shared<server::ServerEngine>(kv);
  net::TcpServer server(engine, 0);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = net::TcpClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::shared_ptr<net::Transport> transport = std::move(*client);
      OwnerClient owner(transport);
      auto uuid =
          owner.CreateStream(HeacConfig("tcp/" + std::to_string(t)));
      if (!uuid.ok()) {
        ++failures;
        return;
      }
      for (uint64_t c = 0; c < 10; ++c) {
        if (!owner
                 .InsertRecord(*uuid,
                               {static_cast<Timestamp>(c * kDelta), t + 1})
                 .ok()) {
          ++failures;
        }
      }
      if (!owner.Flush(*uuid).ok()) ++failures;
      auto stats = owner.GetStatRange(*uuid, {0, 10 * kDelta});
      if (!stats.ok() || stats->stats.Sum().value() != 10 * (t + 1)) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();
  EXPECT_EQ(failures, 0);
}

TEST(Concurrency, TcpServerStopsWithClientsStillConnected) {
  // Regression test for the Stop() deadlock: connection threads blocked in
  // read() must be woken by Stop() even when clients never disconnect.
  auto kv = std::make_shared<store::MemKvStore>();
  auto engine = std::make_shared<server::ServerEngine>(kv);
  auto server = std::make_unique<net::TcpServer>(engine, 0);
  ASSERT_TRUE(server->Start().ok());

  auto c1 = net::TcpClient::Connect("127.0.0.1", server->port());
  auto c2 = net::TcpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Prove both connections are live.
  EXPECT_TRUE((*c1)->Call(net::MessageType::kPing, {}).ok());
  EXPECT_TRUE((*c2)->Call(net::MessageType::kPing, {}).ok());

  server->Stop();  // must return; the old code joined forever here
  // Calls after stop fail cleanly.
  EXPECT_FALSE((*c1)->Call(net::MessageType::kPing, {}).ok());
}

TEST(Concurrency, LruCacheParallelMixedWorkload) {
  store::LruCache cache(64 * 1024);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::string key = "k" + std::to_string((t * 31 + i) % 128);
        Bytes value(64, static_cast<uint8_t>(t));
        cache.Put(key, value);
        auto got = cache.Get(key);
        // Entry may have been evicted or overwritten by another thread,
        // but a present value must never be torn (all bytes identical).
        if (got && !got->empty()) {
          uint8_t first = (*got)[0];
          for (uint8_t byte : *got) {
            if (byte != first) ++failures;
          }
        }
        if (i % 64 == 0) cache.Erase(key);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  EXPECT_LE(cache.size_bytes(), 64u * 1024);
}

// In-place appends race Gets and Puts of the same keys. Every writer only
// ever stores runs of one repeated byte, so any value a reader sees must be
// a whole number of 8-byte entries of that byte: a torn append (bytes
// counted but not written, or a size read mid-growth) breaks the pattern.
TEST(Concurrency, LruCacheAppendRacesGetAndPut) {
  store::LruCache cache(16 * 1024);
  constexpr int kThreads = 4;
  constexpr size_t kEntry = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        std::string key = "node" + std::to_string(i % 8);
        uint8_t fill = static_cast<uint8_t>(i % 8);
        switch ((t + i) % 3) {
          case 0:
            cache.Put(key, Bytes(kEntry, fill));
            break;
          case 1:
            if (auto got = cache.Get(key)) {
              cache.Append(key, got->size(), Bytes(kEntry, fill));
            }
            break;
          default:
            if (auto got = cache.Get(key)) {
              bool whole = !got->empty() && got->size() % kEntry == 0;
              for (uint8_t byte : *got) whole = whole && byte == fill;
              if (!whole) ++failures;
            }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  EXPECT_LE(cache.size_bytes(), 16u * 1024);
  size_t held = 0;
  for (int k = 0; k < 8; ++k) {
    if (auto got = cache.Get("node" + std::to_string(k))) held += got->size();
  }
  EXPECT_EQ(held, cache.size_bytes());
}

// Drill for the stats race the thread-safety annotation sweep surfaced:
// hits()/misses() used to read the non-atomic counters without the cache
// lock while parallel Gets incremented them — a torn/lost-update race. Now
// that the reads are locked, hits + misses must equal exactly the number
// of completed Gets, which lost updates would break.
TEST(Concurrency, LruCacheStatsCountEveryGet) {
  store::LruCache cache(64 * 1024);
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 4000;
  cache.Put("present", Bytes(16, 0x5a));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        // Alternate a guaranteed hit with a guaranteed miss, and poll the
        // stats mid-flight: a reader tearing a counter while another
        // thread increments it is exactly what the locked accessors fix.
        (void)cache.Get(i % 2 == 0 ? "present" : "absent/" +
                                                     std::to_string(t));
        if (i % 256 == 0) {
          (void)cache.hits();
          (void)cache.misses();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * kGetsPerThread);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads) * kGetsPerThread / 2);
}

TEST(Concurrency, MemKvParallelDisjointAndSharedKeys) {
  store::MemKvStore kv(8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        // Private key: must always read back our own value.
        std::string own = "own/" + std::to_string(t) + "/" +
                          std::to_string(i % 16);
        Bytes value(32, static_cast<uint8_t>(t));
        if (!kv.Put(own, value).ok()) ++failures;
        auto got = kv.Get(own);
        if (!got.ok() || *got != value) ++failures;
        // Contended key: last write wins, value must never tear.
        if (!kv.Put("shared", value).ok()) ++failures;
        auto shared = kv.Get("shared");
        if (shared.ok() && !shared->empty()) {
          uint8_t first = (*shared)[0];
          for (uint8_t byte : *shared) {
            if (byte != first) ++failures;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
}

TEST(Concurrency, LatencyHistogramParallelRecordsAndSnapshots) {
  // 8 writers hammer one histogram while a reader snapshots it live; TSan
  // must see no race, and every live snapshot must be self-consistent.
  constexpr int kThreads = 8;
  constexpr uint64_t kRecordsPerThread = 50'000;
  metrics::LatencyHistogram hist;

  std::atomic<bool> done{false};
  std::atomic<int> bad_snapshots{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto s = hist.Snapshot();
      // Quantiles come from the same copied buckets as the count, so even
      // mid-write they must order and stay within the observed range.
      if (s.p50 > s.p95 || s.p95 > s.p99 || s.p99 > s.max) ++bad_snapshots;
      if (s.count > 0 && s.max == 0 && s.p99 > 0) ++bad_snapshots;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        // Thread-skewed values spread the buckets: thread t records around
        // 2^t microseconds.
        hist.Record((uint64_t{1} << t) + (i & 0xF));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_snapshots.load(), 0);

  // Quiesced: nothing may have been lost or double-counted.
  auto s = hist.Snapshot();
  EXPECT_EQ(s.count, kThreads * kRecordsPerThread);
  // Largest recorded value: (1 << 7) + 15 from thread 7.
  EXPECT_EQ(s.max, (uint64_t{1} << (kThreads - 1)) + 15);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  uint64_t bucket_sum = 0;
  for (uint64_t b : s.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.count);
}

TEST(Concurrency, CountersAndGaugesLoseNoUpdatesUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100'000;
  auto& counter =
      metrics::GetCounter("tc_test_contended_total", "case=\"drill\"");
  auto& gauge = metrics::GetGauge("tc_test_contended_depth", "case=\"drill\"");
  uint64_t counter_before = counter.value();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Inc();
        gauge.Inc();
        gauge.Dec();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value() - counter_before,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Concurrency, SpanRingParallelPushersAndSnapshotters) {
  // N writers hammer one SpanRing while readers snapshot continuously.
  // Every record a snapshot returns must be exactly one a writer pushed —
  // no torn slots (mixed fields from two different spans), even with the
  // ring wrapping many times. Writers encode a checksum relation between
  // the fields so a torn slot is detectable.
  trace::SpanRing ring;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 4 * trace::SpanRing::kCapacity;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> seen{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Writers maintain span_id == trace_id * 3 and duration_us ==
      // trace_id % 977; any snapshot record violating that is torn.
      auto drain = [&] {
        for (const trace::SpanRecord& rec : ring.Snapshot()) {
          ++seen;
          if (rec.span_id != rec.trace_id * 3 ||
              rec.duration_us != rec.trace_id % 977) {
            ++torn;
          }
        }
      };
      while (!stop.load(std::memory_order_acquire)) drain();
      // One guaranteed post-quiescence snapshot: a reader the scheduler
      // starved through the whole write phase still observes the full ring.
      drain();
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        uint64_t id = static_cast<uint64_t>(w) * kPerWriter + i + 1;
        trace::SpanRecord rec;
        rec.trace_id = id;
        rec.span_id = id * 3;
        rec.parent_span_id = id ^ 0x5a5a;
        rec.op = "drill";
        rec.shard = static_cast<uint32_t>(w);
        rec.start_us = static_cast<int64_t>(i);
        rec.duration_us = id % 977;
        rec.slow = false;
        ring.Push(rec);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "snapshot returned a torn span record";
  EXPECT_GT(seen.load(), 0u) << "snapshots observed no records at all";
  // The ring wrapped (4 writers x 4 rings each): drops are counted, and a
  // final quiescent snapshot yields only coherent records.
  EXPECT_EQ(ring.dropped(),
            kWriters * kPerWriter - trace::SpanRing::kCapacity);
  auto final_snapshot = ring.Snapshot();
  EXPECT_EQ(final_snapshot.size(), trace::SpanRing::kCapacity);
  for (const trace::SpanRecord& rec : final_snapshot) {
    EXPECT_EQ(rec.span_id, rec.trace_id * 3);
    EXPECT_EQ(rec.duration_us, rec.trace_id % 977);
  }
}

// ----------------------------------------------------------- PeriodicThread

TEST(PeriodicThread, StopCutsALongIntervalShort) {
  std::atomic<int> runs{0};
  PeriodicThread periodic(std::chrono::hours(1), [&] { ++runs; });
  const auto start = std::chrono::steady_clock::now();
  periodic.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(runs.load(), 0);
}

TEST(PeriodicThread, StopReturnsOnlyAfterARunningBodyFinishes) {
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  PeriodicThread periodic(std::chrono::milliseconds(1), [&] {
    if (started.exchange(true)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  periodic.Stop();
  EXPECT_TRUE(finished.load());
}

TEST(PeriodicThread, BodyNeverRunsAfterStop) {
  std::atomic<int> runs{0};
  PeriodicThread periodic(std::chrono::milliseconds(1), [&] { ++runs; });
  while (runs.load() < 3) std::this_thread::yield();
  periodic.Stop();
  const int stopped_at = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(runs.load(), stopped_at);
  periodic.Stop();  // a second Stop, as a destructor after Stop, is a no-op
}

// ------------------------------------------------ blocking checks, B1/B2
// A Debug build aborts a blocking call made while its thread holds a
// tc::Mutex or tc::SharedMutex (B1), or from an Executor task or a
// completion callback (B2). Release builds compile the checks out.

class BlockingChecks : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef NDEBUG
    GTEST_SKIP() << "the blocking checks are compiled out under NDEBUG";
#endif
    GTEST_FLAG_SET(death_test_style, "threadsafe");
  }
};

constexpr const char* kUnderLock = "blocking call .*while holding a lock";
constexpr const char* kOnTask =
    "blocking call .*on an executor task or completion callback";

// A blocking call that returns at once: its check runs first, then the
// empty handle reports Internal.
void Blocking() { EXPECT_FALSE(net::PendingCall().Wait().ok()); }

// Blocking reached through another function and a virtual call.
void SyncsAStore() {
  std::unique_ptr<store::KvStore> kv = std::make_unique<store::MemKvStore>();
  EXPECT_TRUE(kv->Sync().ok());
}

void BlocksWithItsOwnAllowance() {
  // The lock this caller holds exists to serialize this very call.
  ScopedAllowBlocking allow;
  Blocking();
}

TEST_F(BlockingChecks, B1BlockingUnderALockAborts) {
  Mutex mu;
  SharedMutex smu;
  EXPECT_DEATH(
      {
        MutexLock lock(mu);
        Blocking();
      },
      kUnderLock);
  EXPECT_DEATH(
      {
        MutexLock lock(mu);
        SyncsAStore();
      },
      kUnderLock);
  EXPECT_DEATH(
      {
        ReaderMutexLock lock(smu);
        Blocking();
      },
      kUnderLock);
}

TEST_F(BlockingChecks, B1UnlockBeforeIoAndAllowancesPass) {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  Blocking();
  mu.lock();  // hand over hand: the hold ends before the call
  mu.unlock();
  SyncsAStore();
  {
    MutexLock lock(mu);
    BlocksWithItsOwnAllowance();
  }
  // A condvar wait releases its mutex while parked.
  CondVar cv;
  MutexLock lock(mu);
  cv.WaitFor(mu, std::chrono::milliseconds(1));
}

TEST_F(BlockingChecks, B2BlockingOnATaskOrCallbackAborts) {
  EXPECT_DEATH(
      {
        net::Executor exec(1);
        exec.Submit([] { Blocking(); });
      },
      kOnTask);
  EXPECT_DEATH(
      {
        net::Executor exec(1);
        exec.Submit([] { SyncsAStore(); });
      },
      kOnTask);
  EXPECT_DEATH(
      {
        net::Executor exec(1);
        exec.Submit([] {
          Mutex mu;
          CondVar cv;
          MutexLock lock(mu);
          cv.WaitFor(mu, std::chrono::milliseconds(1));
        });
      },
      kOnTask);
  EXPECT_DEATH(
      {
        net::Executor inline_exec(0);
        inline_exec.Submit([] { Blocking(); });
      },
      kOnTask);
  EXPECT_DEATH(
      {
        net::CallCompleter completer(
            [](const Result<Bytes>&) { Blocking(); });
        completer.Complete(Bytes{});
      },
      kOnTask);
}

TEST_F(BlockingChecks, B2NonBlockingTasksAndAllowancesPass) {
  std::atomic<int> ran{0};
  {
    net::Executor exec(1);
    exec.Submit([&] { ran.fetch_add(1); });
    exec.Submit([&] {
      // A pool sized for parked tasks would say so here.
      ScopedAllowBlocking allow;
      Blocking();
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 2);
  Blocking();  // a plain thread may block
}

}  // namespace
}  // namespace tc
