// Replication rungs of the bench ladder: what do read replicas buy, what
// does a quorum ack cost, and what does streaming snapshot catch-up save?
//
//  - BM_ReplicaRead: a pool of row threads fires GetStatRange at a 2-shard
//    router, replica-less vs 2 replicas per shard. Every replica engine owns
//    its own index-node cache and locks, so replicas divide the readers'
//    contention: on a multi-core host the replicated rows should beat the
//    baseline. Replica routing itself is a few atomic loads per request, so
//    a 1-core host shows parity, not a cliff. `replica_share` is the
//    fraction of reads the replicas served.
//  - BM_ReplicatedIngest: digest-only one-chunk ingest under async vs
//    quorum ack with 2 followers per shard. Quorum pays one shipper round
//    trip per mutation, the price of "a majority holds it". The async row's
//    last iteration waits until the followers caught up, so both rows pay
//    for replicating every chunk.
//  - BM_SnapshotCatchup: seeding an empty follower from a populated store,
//    monolithic (one unbounded chunk, a full copy) vs streaming (bounded
//    chunks). `peak_delta_MB` is the growth of the process's peak RSS
//    during the catch-up, the number chunking exists to bound. Monolithic
//    runs first: where the peak cannot be reset, its unbounded frame sets
//    the high-water mark the streaming row must stay under.
//
// One iteration is one request or one catch-up; each row runs a fixed
// number of them, named in its `iterations:` suffix. Rows with chunks:256,
// chunks:128 and entries:4000 are the smoke sizes.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/shard_router.hpp"
#include "net/messages.hpp"
#include "replica/replica_set.hpp"
#include "replica/replica_wire.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"

namespace tc::bench {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kStreams = 8;
constexpr int kThreads = 4;  // fixed so row names match across hosts

struct Cluster {
  std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
  std::shared_ptr<cluster::ShardRouter> router;

  Cluster(size_t replicas, replica::AckMode ack) {
    auto backend = std::make_shared<store::MemKvStore>();
    for (size_t i = 0; i < kShards; ++i) {
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

// ------------------------------------------------------------ read scatter

/// Shared by the row's threads: thread 0 builds it before the loop (the
/// loop's start barrier publishes it) and drops it after.
struct ReadFixture {
  IngestLoad load;
  Cluster cluster;
  ReadFixture(size_t replicas, uint64_t chunks)
      : load(kStreams, chunks), cluster(replicas, replica::AckMode::kAsync) {
    load.Ingest(*cluster.router);
    cluster.WaitCaughtUp();
    // Warm the replica engines (first read pays the refresh).
    for (uint64_t uuid : load.uuids) {
      Bytes req = net::StatRangeRequest{uuid, {0, kPlainDelta}}.Encode();
      for (size_t r = 0; r < std::max<size_t>(replicas, 1); ++r) {
        if (!cluster.router->Handle(net::MessageType::kGetStatRange, req)
                 .ok()) {
          std::abort();
        }
      }
    }
  }
};
std::unique_ptr<ReadFixture> read_fixture;

void BM_ReplicaRead(benchmark::State& state) {
  const auto chunks = static_cast<uint64_t>(state.range(1));
  if (state.thread_index() == 0) {
    read_fixture = std::make_unique<ReadFixture>(state.range(0), chunks);
  }
  uint64_t x = 0x9e3779b9u + state.thread_index();
  for (auto _ : state) {
    const ReadFixture& fx = *read_fixture;
    if (!fx.cluster.router
             ->Handle(net::MessageType::kGetStatRange,
                      fx.load.NextStatRange(x, chunks))
             .ok()) {
      std::abort();
    }
  }
  state.counters["queries"] =
      benchmark::Counter(state.iterations(), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    uint64_t replica_reads = 0, primary_reads = 0;
    for (auto& set : read_fixture->cluster.sets) {
      replica_reads += set->replica_reads();
      primary_reads += set->primary_reads();
    }
    state.counters["replica_share"] =
        static_cast<double>(replica_reads) /
        static_cast<double>(std::max<uint64_t>(replica_reads + primary_reads,
                                               1));
    read_fixture.reset();
  }
}

// ---------------------------------------------------------- ack overhead

void BM_ReplicatedIngest(benchmark::State& state, replica::AckMode ack) {
  IngestLoad load(kStreams, state.range(0));
  Cluster cluster(/*replicas=*/2, ack);
  load.CreateStreams(*cluster.router);
  std::vector<const Bytes*> bodies;  // stream by stream
  for (const auto& stream : load.bodies) {
    for (const auto& body : stream) bodies.push_back(&body);
  }
  size_t i = 0;
  for (auto _ : state) {
    if (!cluster.router->Handle(net::MessageType::kInsertChunkBatch,
                                *bodies[i])
             .ok()) {
      std::abort();
    }
    if (++i == bodies.size() && ack == replica::AckMode::kAsync) {
      cluster.WaitCaughtUp();
    }
  }
  if (i != bodies.size()) std::abort();  // the row's iteration count is wrong
  state.counters["chunks"] =
      benchmark::Counter(static_cast<double>(i), benchmark::Counter::kIsRate);
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
/// /proc/self/clear_refs). Where that is unsupported the delta is measured
/// against the process's earlier peak.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs) clear_refs << "5";
}

void BM_SnapshotCatchup(benchmark::State& state, size_t chunk_bytes,
                        size_t chunk_entries) {
  const auto entries = static_cast<size_t>(state.range(0));
  const auto value_bytes = static_cast<size_t>(state.range(1));
  replica::ReplicatedKvOptions options;
  options.snapshot_chunk_bytes = chunk_bytes;
  options.snapshot_chunk_entries = chunk_entries;
  options.max_log_ops = 16;  // keep the op-log window out of the RSS story
  auto rkv = std::make_shared<replica::ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>(), options);
  Bytes value(value_bytes, 0xab);
  for (size_t i = 0; i < entries; ++i) {
    // Distinct suffixes so values are not trivially shareable.
    value[i % value_bytes] = static_cast<uint8_t>(i);
    if (!rkv->Put("chunk/" + std::to_string(i), value).ok()) std::abort();
  }

  // A follower across the wire shape (encode + decode per frame), applying
  // into its own store: the realistic memory profile of catch-up.
  auto follower_kv = std::make_shared<store::MemKvStore>();
  auto applier = std::make_shared<replica::ReplicaApplier>(follower_kv);
  ResetPeakRss();
  const uint64_t peak_before = PeakRssKb();
  for (auto _ : state) {
    rkv->AddFollower(std::make_shared<replica::RemoteFollower>(
        std::make_shared<net::InProcTransport>(applier)));
    if (!rkv->WaitCaughtUp(120'000).ok()) std::abort();
    if (follower_kv->Size() < entries) std::abort();
  }
  state.counters["entries"] = benchmark::Counter(
      static_cast<double>(entries * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["snapshot_chunks"] =
      static_cast<double>(rkv->snapshot_chunks_shipped());
  state.counters["peak_delta_MB"] =
      static_cast<double>(PeakRssKb() - peak_before) / 1024.0;
}

void RegisterAll() {
  struct ReadSize {
    int64_t chunks, queries;
  };
  for (ReadSize size : {ReadSize{256, 500}, ReadSize{2048, 10'000}}) {
    benchmark::RegisterBenchmark("BM_ReplicaRead", BM_ReplicaRead)
        ->ArgNames({"replicas", "chunks"})
        ->ArgsProduct({{0, 2}, {size.chunks}})
        ->Iterations(size.queries)
        ->Threads(kThreads)
        ->UseRealTime();
  }
  for (int64_t chunks : {128, 1024}) {
    for (auto ack : {replica::AckMode::kAsync, replica::AckMode::kQuorum}) {
      benchmark::RegisterBenchmark(
          ("BM_ReplicatedIngest/" + std::string(replica::AckModeName(ack)))
              .c_str(),
          [ack](benchmark::State& st) { BM_ReplicatedIngest(st, ack); })
          ->ArgNames({"chunks"})
          ->Arg(chunks)
          ->Iterations(kStreams * chunks)
          ->UseRealTime()
          ->Unit(benchmark::kMicrosecond);
    }
  }
  struct CatchupSize {
    int64_t entries, value_bytes;
  };
  for (CatchupSize size : {CatchupSize{4000, 1024}, CatchupSize{30'000, 2048}}) {
    for (bool streaming : {false, true}) {
      benchmark::RegisterBenchmark(
          streaming ? "BM_SnapshotCatchup/streaming"
                    : "BM_SnapshotCatchup/monolithic",
          [streaming](benchmark::State& st) {
            if (streaming) {
              BM_SnapshotCatchup(st, 256 << 10, 1024);
            } else {
              BM_SnapshotCatchup(st, SIZE_MAX, SIZE_MAX);
            }
          })
          ->ArgNames({"entries", "value_bytes"})
          ->Args({size.entries, size.value_bytes})
          ->Iterations(1)
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(argc, argv);
}
