// Replication rungs of the bench ladder: what do read replicas buy, what
// does a quorum ack cost, and what does catching up a follower hold in
// memory?
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
//  - BM_LogCatchup: copying a populated primary log to an empty follower
//    log, in kReplicaLog frames of at most 1 MiB. `peak_delta_MB` is the
//    growth of the process's peak RSS during the catch-up: one frame on
//    each side, never a copy of the store.
//  - BM_ReplicatedCompaction: one-chunk ingest with 700-byte sealed
//    payloads (tcbench's producer shape) into a primary that
//    auto-compacts at tcserver's default --compact-pct 50, with 2
//    followers; with `retain` > 0 each stream keeps only its last `retain`
//    chunks' payloads (a DeleteRange per 64-chunk block that ages out).
//    Each primary compaction copies its whole log to every follower.
//    `compactions`, `copy_ratio` (bytes copied to one follower per byte
//    the workload wrote, its first copy from empty included) and
//    `copied_MB` price that; `max_write_ms` is the slowest request, in
//    quorum mode the wait for a majority to finish copying after a
//    compaction. Of the `compaction_copies`, `at_offset` found their
//    follower holding exactly the log the compaction rewrote, so a
//    follower compacting at the same offset could have rebuilt it.
//
// Every replicated store is a LogKvStore in a temporary directory, as in
// `tcserver --store mem --replicas N`; the replica-less rows run on the
// same logs. One iteration is one request or one catch-up; each row runs a
// fixed number of them, named in its `iterations:` suffix. Rows with
// chunks:256, chunks:128 and entries:4000 are the smoke sizes.
#include <algorithm>
#include <atomic>
#include <chrono>
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
#include "store/log_kv.hpp"

namespace tc::bench {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kStreams = 8;
constexpr int kThreads = 4;  // fixed so row names match across hosts

/// A log in `dir`; aborts the run if it cannot open.
std::shared_ptr<store::LogKvStore> OpenLog(const store::TempLogDir& dir,
                                           const std::string& name) {
  auto log = store::LogKvStore::Open(dir.Path(name));
  if (!log.ok()) std::abort();
  return std::move(*log);
}

std::unique_ptr<store::TempLogDir> MakeLogDir() {
  auto dir = store::TempLogDir::Make();
  if (!dir.ok()) std::abort();
  return std::move(*dir);
}

struct Cluster {
  std::unique_ptr<store::TempLogDir> dir = MakeLogDir();
  std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
  std::shared_ptr<cluster::ShardRouter> router;

  Cluster(size_t replicas, replica::AckMode ack) {
    for (size_t i = 0; i < kShards; ++i) {
      std::string shard = "s" + std::to_string(i);
      auto primary = OpenLog(*dir, shard);
      server::ServerOptions engine_options;
      engine_options.shard_id = static_cast<uint32_t>(i);
      if (replicas == 0) {
        sets.push_back(replica::ReplicaSet::Single(
            std::make_shared<server::ServerEngine>(primary, engine_options)));
        continue;
      }
      std::vector<std::shared_ptr<store::LogKvStore>> followers;
      for (size_t j = 0; j < replicas; ++j) {
        followers.push_back(OpenLog(*dir, shard + "r" + std::to_string(j)));
      }
      replica::ReplicaSetOptions options;
      options.kv.ack = ack;
      auto set = replica::ReplicaSet::Make(primary, std::move(followers),
                                           engine_options, options);
      if (!set.ok()) std::abort();
      sets.push_back(std::move(*set));
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

// ---------------------------------------------------------- log catch-up

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

void BM_LogCatchup(benchmark::State& state) {
  const auto entries = static_cast<size_t>(state.range(0));
  const auto value_bytes = static_cast<size_t>(state.range(1));
  auto dir = MakeLogDir();
  auto rkv = replica::ReplicatedKvStore::Open(OpenLog(*dir, "primary"));
  if (!rkv.ok()) std::abort();
  Bytes value(value_bytes, 0xab);
  for (size_t i = 0; i < entries; ++i) {
    // Distinct suffixes so values are not trivially shareable.
    value[i % value_bytes] = static_cast<uint8_t>(i);
    if (!(*rkv)->Put("chunk/" + std::to_string(i), value).ok()) std::abort();
  }

  // A follower across the wire shape (encode + decode per frame), writing
  // into its own log: the realistic memory profile of catch-up.
  auto follower_log = OpenLog(*dir, "follower");
  auto applier = std::make_shared<replica::ReplicaApplier>(follower_log);
  ResetPeakRss();
  const uint64_t peak_before = PeakRssKb();
  for (auto _ : state) {
    (*rkv)->AddFollower(std::make_shared<replica::RemoteFollower>(
        std::make_shared<net::InProcTransport>(applier)));
    if (!(*rkv)->WaitCaughtUp(120'000).ok()) std::abort();
    if (follower_log->Size() < entries) std::abort();
  }
  state.counters["entries"] = benchmark::Counter(
      static_cast<double>(entries * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["full_copies"] = static_cast<double>((*rkv)->full_copies());
  state.counters["peak_delta_MB"] =
      static_cast<double>(PeakRssKb() - peak_before) / 1024.0;
}

// ------------------------------------------------------ compaction traffic

/// A follower over an applier that counts the bytes of copies (frames for
/// a position other than the follower log's own), and of the copies that
/// follow a compaction, those whose follower held exactly the log the
/// compaction rewrote: ones a follower compacting at the same offset
/// would not need.
class CopyCounter final : public replica::Follower {
 public:
  CopyCounter(std::shared_ptr<store::LogKvStore> primary,
              std::shared_ptr<store::LogKvStore> log)
      : primary_(std::move(primary)),
        log_(log),
        inner_(std::make_shared<net::InProcTransport>(
            std::make_shared<replica::ReplicaApplier>(std::move(log)))) {}

  Result<store::LogPosition> ShipLog(store::LogPosition at,
                                     BytesView records) override {
    // One shipper thread calls this; the row reads it after WaitCaughtUp.
    const store::LogPosition here = log_->Head().position();
    if (at != here) copied_ += records.size();
    const store::LogGeneration g = primary_->Head().generation;
    if (at != here && at.length == 0 && g.replaced != 0) {
      ++compaction_copies_;
      if (here == store::LogPosition{g.parent, g.replaced}) ++at_offset_;
    }
    return inner_.ShipLog(at, records);
  }

  uint64_t copied() const { return copied_; }
  uint64_t compaction_copies() const { return compaction_copies_; }
  uint64_t at_offset() const { return at_offset_; }

 private:
  std::shared_ptr<store::LogKvStore> primary_;
  std::shared_ptr<store::LogKvStore> log_;
  replica::RemoteFollower inner_;
  std::atomic<uint64_t> copied_{0};
  std::atomic<uint64_t> compaction_copies_{0};
  std::atomic<uint64_t> at_offset_{0};
};

/// A one-chunk batch carrying a sealed payload of tcbench's size.
Bytes PayloadChunkBody(uint64_t uuid, uint64_t c) {
  static const auto cipher = index::MakePlainCipher(2);
  static const Bytes payload(700, 0x5a);
  std::vector<uint64_t> fields{c + 1, 1};
  const Bytes digest = *cipher->Encrypt(fields, c);
  return net::InsertChunkBatchRequest{uuid, {{c, digest, payload}}}.Encode();
}

void BM_ReplicatedCompaction(benchmark::State& state, replica::AckMode ack) {
  const auto chunks = static_cast<uint64_t>(state.range(0));
  const auto retain = static_cast<uint64_t>(state.range(1));
  IngestLoad load(kStreams, 0);
  // Each stream's requests in order: its chunks, and once a 64-chunk
  // block falls out of the last `retain` chunks, a delete of it.
  std::vector<std::pair<net::MessageType, Bytes>> requests;
  for (size_t s = 0; s < kStreams; ++s) {
    for (uint64_t c = 0; c < chunks; ++c) {
      requests.emplace_back(net::MessageType::kInsertChunkBatch,
                            PayloadChunkBody(load.uuids[s], c));
      const uint64_t written = c + 1;
      if (retain > 0 && written % 64 == 0 && written >= retain + 64) {
        const uint64_t last = written - retain;
        const TimeRange aged{static_cast<Timestamp>((last - 64) * kPlainDelta),
                             static_cast<Timestamp>(last * kPlainDelta)};
        requests.emplace_back(
            net::MessageType::kDeleteRange,
            net::DeleteRangeRequest{load.uuids[s], aged}.Encode());
      }
    }
  }
  auto run = [&](net::RequestHandler& handler, int64_t* max_us) {
    load.CreateStreams(handler);
    for (const auto& [type, body] : requests) {
      auto start = std::chrono::steady_clock::now();
      if (!handler.Handle(type, body).ok()) std::abort();
      *max_us = std::max<int64_t>(
          *max_us, std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    }
  };
  // What the workload writes: its log's length when nothing compacts.
  uint64_t ingest_bytes = 0;
  {
    auto dir = MakeLogDir();
    auto log = OpenLog(*dir, "plain");
    server::ServerEngine engine(log);
    int64_t ignored = 0;
    run(engine, &ignored);
    ingest_bytes = log->Head().length;
  }
  uint64_t compactions = 0;
  uint64_t copied = 0;
  uint64_t compaction_copies = 0;
  uint64_t at_offset = 0;
  uint64_t dead = 0;
  int64_t max_write_us = 0;
  for (auto _ : state) {
    auto dir = MakeLogDir();
    store::LogKvOptions log_options;
    log_options.compact_dead_fraction = 0.5;
    auto primary = store::LogKvStore::Open(dir->Path("p"), log_options);
    if (!primary.ok()) std::abort();
    std::shared_ptr<store::LogKvStore> log = std::move(*primary);
    replica::ReplicatedKvOptions options;
    options.ack = ack;
    auto rkv = replica::ReplicatedKvStore::Open(log, options);
    if (!rkv.ok()) std::abort();
    std::vector<std::shared_ptr<CopyCounter>> followers;
    for (const char* name : {"f0", "f1"}) {
      followers.push_back(
          std::make_shared<CopyCounter>(log, OpenLog(*dir, name)));
      (*rkv)->AddFollower(followers.back());
    }
    server::ServerEngine engine(*rkv);
    run(engine, &max_write_us);
    if (!(*rkv)->WaitCaughtUp(120'000).ok()) std::abort();
    const store::KvStore::CompactionStats stats = log->Compaction();
    compactions += stats.compactions;
    dead += stats.dead_bytes;
    for (const auto& follower : followers) {
      copied += follower->copied();
      compaction_copies += follower->compaction_copies();
      at_offset += follower->at_offset();
    }
  }
  const double runs = static_cast<double>(state.iterations());
  const double per_follower = static_cast<double>(copied) / runs / 2;
  state.counters["compactions"] = static_cast<double>(compactions) / runs;
  state.counters["ingest_MB"] = static_cast<double>(ingest_bytes) / (1 << 20);
  state.counters["copied_MB"] = per_follower / (1 << 20);
  state.counters["dead_MB"] = static_cast<double>(dead) / runs / (1 << 20);
  state.counters["copy_ratio"] =
      per_follower / static_cast<double>(ingest_bytes);
  state.counters["max_write_ms"] = static_cast<double>(max_write_us) / 1000;
  state.counters["compaction_copies"] =
      static_cast<double>(compaction_copies) / runs;
  state.counters["at_offset"] = static_cast<double>(at_offset) / runs;
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
    benchmark::RegisterBenchmark("BM_LogCatchup", BM_LogCatchup)
        ->ArgNames({"entries", "value_bytes"})
        ->Args({size.entries, size.value_bytes})
        ->Iterations(1)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (int64_t chunks : {256, 8192}) {
    for (auto ack : {replica::AckMode::kAsync, replica::AckMode::kQuorum}) {
      benchmark::RegisterBenchmark(
          ("BM_ReplicatedCompaction/" + std::string(replica::AckModeName(ack)))
              .c_str(),
          [ack](benchmark::State& st) { BM_ReplicatedCompaction(st, ack); })
          ->ArgNames({"chunks", "retain"})
          ->ArgsProduct({{chunks}, {0, chunks / 4}})
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
