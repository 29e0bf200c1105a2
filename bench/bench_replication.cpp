// Replication benchmark: what do read replicas buy, what does quorum ack
// cost, and what does streaming snapshot catch-up save?
//
//  1. Read scatter: a fixed reader-thread pool fires GetStatRange at a
//     sharded router, replica-less vs 2 replicas per shard. Every replica
//     engine owns its own index-node cache and locks, so replicas divide
//     the readers' contention — on a multi-core host the replicated
//     configuration should beat the baseline. (Replica routing itself is
//     a few atomic loads per request, so a 1-core host shows parity, not
//     a cliff.)
//  2. Ingest ack overhead: the same digest-only ingest run under async vs
//     quorum ack with 2 followers per shard. Quorum pays one shipper
//     round trip per mutation — the price of "a majority holds it" — and
//     the run reports the throughput ratio.
//  3. Snapshot catch-up: seeding an empty follower from a populated store,
//     monolithic (one unbounded chunk — PR 3's full-copy behavior) vs
//     streaming (bounded chunks). Reports wall time and the peak-RSS
//     delta of the catch-up, the number chunking exists to bound.
//
// `--quick` shrinks sizes for the CI smoke run. Results depend on
// available cores; like bench_cluster, the speedup column needs real
// parallelism to land on.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/shard_router.hpp"
#include "index/digest_cipher.hpp"
#include "net/messages.hpp"
#include "replica/replica_set.hpp"
#include "replica/replica_wire.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = 10 * kSecond;

net::StreamConfig PlainConfig(const std::string& name) {
  net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema.with_sum = c.schema.with_count = true;
  c.cipher = net::CipherKind::kPlain;
  c.fanout = 64;
  return c;
}

struct Cluster {
  std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
  std::shared_ptr<cluster::ShardRouter> router;

  Cluster(size_t shards, size_t replicas, replica::AckMode ack) {
    auto backend = std::make_shared<store::MemKvStore>();
    for (size_t i = 0; i < shards; ++i) {
      auto primary = std::make_shared<store::PrefixKvStore>(
          backend, "s" + std::to_string(i) + "/");
      server::ServerOptions engine_options;
      engine_options.shard_id = static_cast<uint32_t>(i);
      if (replicas == 0) {
        sets.push_back(replica::ReplicaSet::Single(
            std::make_shared<server::ServerEngine>(primary, engine_options)));
        continue;
      }
      std::vector<std::shared_ptr<store::KvStore>> followers;
      for (size_t j = 0; j < replicas; ++j) {
        followers.push_back(std::make_shared<store::PrefixKvStore>(
            backend,
            "s" + std::to_string(i) + "r" + std::to_string(j) + "/"));
      }
      replica::ReplicaSetOptions options;
      options.kv.ack = ack;
      sets.push_back(replica::ReplicaSet::Make(primary, std::move(followers),
                                               engine_options, options));
    }
    router = std::make_shared<cluster::ShardRouter>(sets);
  }

  void WaitCaughtUp() {
    for (auto& set : sets) {
      if (!set->WaitCaughtUp().ok()) std::abort();
    }
  }
};

/// Pre-encoded digest-only one-chunk bodies (encoding is client work;
/// the benchmark times the server side).
struct IngestLoad {
  std::vector<uint64_t> uuids;
  std::vector<std::vector<Bytes>> bodies;  // [stream][chunk]

  IngestLoad(size_t streams, uint64_t chunks) {
    auto cipher = index::MakePlainCipher(2);
    for (size_t s = 0; s < streams; ++s) {
      uuids.push_back(0x1000 + s);
      bodies.emplace_back();
      bodies.back().reserve(chunks);
      for (uint64_t c = 0; c < chunks; ++c) {
        std::vector<uint64_t> fields{c + 1, 1};
        net::InsertChunkBatchRequest req{
            uuids[s], {{c, *cipher->Encrypt(fields, c), {}}}};
        bodies.back().push_back(req.Encode());
      }
    }
  }
};

void Ingest(Cluster& cluster, const IngestLoad& load) {
  for (uint64_t uuid : load.uuids) {
    net::CreateStreamRequest req{uuid, PlainConfig("b" + std::to_string(uuid))};
    if (!cluster.router->Handle(net::MessageType::kCreateStream, req.Encode())
             .ok()) {
      std::abort();
    }
  }
  for (size_t s = 0; s < load.uuids.size(); ++s) {
    for (const auto& body : load.bodies[s]) {
      if (!cluster.router->Handle(net::MessageType::kInsertChunkBatch, body)
               .ok()) {
        std::abort();
      }
    }
  }
}

double RunThreads(size_t threads,
                  const std::function<void(size_t worker)>& body) {
  WallTimer timer;
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(body, w);
  for (auto& t : pool) t.join();
  return timer.Seconds();
}

void BenchReadScatter(size_t shards, size_t streams, uint64_t chunks,
                      size_t threads, uint64_t queries_per_thread) {
  IngestLoad load(streams, chunks);
  std::printf(
      "== read scatter: GetStatRange via router, %zu shard(s), %zu reader "
      "thread(s) ==\n",
      shards, threads);
  std::printf("%9s %9s %9s %11s %8s %13s\n", "replicas", "queries", "wall",
              "queries/s", "speedup", "replica-share");

  double base_rate = 0;
  for (size_t replicas : {size_t{0}, size_t{2}}) {
    Cluster cluster(shards, replicas, replica::AckMode::kAsync);
    Ingest(cluster, load);
    cluster.WaitCaughtUp();
    // Warm the replica engines (first read pays the refresh).
    for (uint64_t uuid : load.uuids) {
      net::StatRangeRequest req{uuid, {0, static_cast<Timestamp>(kDelta)}};
      for (size_t r = 0; r < std::max<size_t>(replicas, 1); ++r) {
        if (!cluster.router->Handle(net::MessageType::kGetStatRange,
                                    req.Encode())
                 .ok()) {
          std::abort();
        }
      }
    }

    uint64_t total_queries = queries_per_thread * threads;
    double wall = RunThreads(threads, [&](size_t worker) {
      uint64_t x = 0x9e3779b9u + worker;
      for (uint64_t q = 0; q < queries_per_thread; ++q) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t uuid = load.uuids[(x >> 33) % load.uuids.size()];
        uint64_t first = (x >> 17) % (chunks - 1);
        uint64_t max_span = chunks - first - 1;
        uint64_t last = first + 1 + (max_span == 0 ? 0 : x % max_span);
        net::StatRangeRequest req{
            uuid,
            {static_cast<Timestamp>(first * kDelta),
             static_cast<Timestamp>(last * kDelta)}};
        if (!cluster.router
                 ->Handle(net::MessageType::kGetStatRange, req.Encode())
                 .ok()) {
          std::abort();
        }
      }
    });

    uint64_t replica_reads = 0, primary_reads = 0;
    for (auto& set : cluster.sets) {
      replica_reads += set->replica_reads();
      primary_reads += set->primary_reads();
    }
    double rate = static_cast<double>(total_queries) / wall;
    if (base_rate == 0) base_rate = rate;
    double share = replica_reads + primary_reads == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(replica_reads) /
                             static_cast<double>(replica_reads + primary_reads);
    std::printf("%9zu %9llu %9s %10.1fk %7.2fx %12.1f%%\n", replicas,
                static_cast<unsigned long long>(total_queries),
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                rate / base_rate, share);
  }
  std::printf("\n");
}

void BenchAckOverhead(size_t shards, size_t streams, uint64_t chunks) {
  std::printf(
      "== ingest ack overhead: digest-only one-chunk batches, %zu shard(s), 2 "
      "replicas ==\n",
      shards);
  std::printf("%9s %9s %9s %11s %9s\n", "ack", "chunks", "wall", "chunks/s",
              "overhead");
  double async_rate = 0;
  for (auto ack : {replica::AckMode::kAsync, replica::AckMode::kQuorum}) {
    IngestLoad load(streams, chunks);
    Cluster cluster(shards, 2, ack);
    WallTimer timer;
    Ingest(cluster, load);
    if (ack == replica::AckMode::kAsync) cluster.WaitCaughtUp();
    double wall = timer.Seconds();
    uint64_t total = streams * chunks;
    double rate = static_cast<double>(total) / wall;
    if (ack == replica::AckMode::kAsync) async_rate = rate;
    std::printf("%9s %9llu %9s %10.1fk %8.2fx\n",
                std::string(replica::AckModeName(ack)).c_str(),
                static_cast<unsigned long long>(total),
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                async_rate / rate);
  }
  std::printf("\n");
}

// ----------------------------------------------------- snapshot catch-up

/// Peak RSS (VmHWM) in KiB from /proc/self/status; 0 if unreadable.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Reset the peak-RSS watermark to the current RSS (Linux: writing "5" to
/// /proc/self/clear_refs). Returns false where unsupported — the peak
/// column is then cumulative, not per-phase.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  return static_cast<bool>(clear_refs);
}

void BenchSnapshotCatchup(size_t entries, size_t value_bytes) {
  std::printf(
      "== snapshot catch-up: seed an empty follower from %zu x %zu-byte "
      "entries ==\n",
      entries, value_bytes);
  const bool rss_resettable = ResetPeakRss();
  if (!rss_resettable) {
    std::printf("(peak-RSS reset unsupported; peak column is cumulative)\n");
  }
  std::printf("%11s %9s %9s %11s %10s\n", "mode", "chunks", "wall",
              "entries/s", "peak-delta");

  struct Mode {
    const char* name;
    size_t chunk_bytes;
    size_t chunk_entries;
  };
  // Monolithic first: its unbounded frame sets the high-water mark the
  // streaming run must stay under, so ordering is the conservative choice
  // even where the watermark cannot be reset.
  for (const Mode& mode : {Mode{"monolithic", SIZE_MAX, SIZE_MAX},
                           Mode{"streaming", 256 << 10, 1024}}) {
    replica::ReplicatedKvOptions options;
    options.snapshot_chunk_bytes = mode.chunk_bytes;
    options.snapshot_chunk_entries = mode.chunk_entries;
    options.max_log_ops = 16;  // keep the op-log window out of the RSS story
    auto rkv = std::make_shared<replica::ReplicatedKvStore>(
        std::make_shared<store::MemKvStore>(), options);
    Bytes value(value_bytes, 0xab);
    for (size_t i = 0; i < entries; ++i) {
      // Distinct suffixes so values are not trivially shareable.
      std::string key = "chunk/" + std::to_string(i);
      value[i % value_bytes] = static_cast<uint8_t>(i);
      if (!rkv->Put(key, value).ok()) std::abort();
    }

    // Follower across the wire shape (encode + decode per frame), applying
    // into its own store — the realistic memory profile of catch-up.
    auto follower_kv = std::make_shared<store::MemKvStore>();
    auto applier = std::make_shared<replica::ReplicaApplier>(follower_kv);
    (void)ResetPeakRss();
    uint64_t peak_before = PeakRssKb();
    WallTimer timer;
    rkv->AddFollower(std::make_shared<replica::RemoteFollower>(
        std::make_shared<net::InProcTransport>(applier)));
    if (!rkv->WaitCaughtUp(120'000).ok()) std::abort();
    double wall = timer.Seconds();
    uint64_t peak_after = PeakRssKb();
    if (follower_kv->Size() < entries) std::abort();

    double rate = static_cast<double>(entries) / wall;
    std::printf("%11s %9llu %9s %10.1fk %9.1fM\n", mode.name,
                static_cast<unsigned long long>(rkv->snapshot_chunks_shipped()),
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                static_cast<double>(peak_after - peak_before) / 1024.0);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  using namespace tc::bench;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  size_t hw = std::thread::hardware_concurrency();
  size_t threads = std::max<size_t>(2, std::min<size_t>(4, hw));
  std::printf(
      "bench_replication: %zu hardware thread(s) visible — replica read "
      "speedups need cores to land on\n\n",
      hw);

  size_t shards = 2;
  size_t streams = 8;
  uint64_t chunks = quick ? 256 : 2048;
  uint64_t queries = quick ? 500 : 10'000;
  BenchReadScatter(shards, streams, chunks, threads, queries);
  BenchAckOverhead(shards, streams, quick ? 128 : 1024);
  BenchSnapshotCatchup(quick ? 4000 : 30'000, quick ? 1024 : 2048);
  return 0;
}
