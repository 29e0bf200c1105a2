// Cluster-layer rungs of the bench ladder: does throughput scale with the
// number of engine shards (the paper's §4.6 horizontal-scaling claim, Fig 9
// reproduced in-process), and what do batching and pipelining save on a
// real socket?
//
//  - BM_ShardIngest / BM_ShardQuery: N log-backed shards behind a
//    ShardRouter, driven by a pool of row threads with digest-only
//    one-chunk requests, then GetStatRange over the same fixture. A single
//    shard serializes every append behind one log mutex; N shards give N
//    independent append and read paths, so aggregate rates should rise
//    with the shard count on a multi-core host.
//  - BM_TcpIngest: InsertChunkBatch frames of `batch` chunks over loopback
//    TCP against a tcserver-shaped stack (TcpServer + TcpClient), with up
//    to `window` frames in flight (window 1 is blocking send-and-wait).
//    Batching saves batch-1 round trips and, on the log store, batch-1
//    group-committed syncs.
//  - BM_TcpQuery: GetStatRange round trips on one socket with up to
//    `window` AsyncCalls in flight.
//  - BM_ScatterStatRange: MultiStatRange across latency-injected shards,
//    serial scatter (scatter_threads = 1) vs the pipelined shard channels.
//  - BM_MetricsRecord / BM_SpanRecord: the marginal cost of one
//    counter+histogram record and one span open/close. main() fails the
//    run when either exceeds 250 ns per iteration in an optimized,
//    unsanitized build.
//
// One iteration is one request (one batch frame for BM_TcpIngest, one
// record for the overhead rows); each row runs a fixed number of them,
// named in its `iterations:` suffix. Rows ending in chunks:400, chunks:512,
// chunks:128 (BM_TcpQuery) and chunks:32 are the smoke sizes. Results depend
// on available cores: a 1-core host shows flat shard scaling while the
// batching and pipelining wins persist, since they save round trips, not
// CPU.
#include <unistd.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "cluster/shard_router.hpp"
#include "common/metrics.hpp"
#include "index/digest_cipher.hpp"
#include "net/messages.hpp"
#include "net/tcp.hpp"
#include "server/server_engine.hpp"
#include "store/latency.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"

namespace tc::bench {
namespace {

constexpr size_t kStreams = 8;
// Fixed at 4 (not the core count) so row names match across hosts; on
// fewer cores the concurrent routing path still runs, at ~1.0x speedup.
constexpr int kThreads = 4;

std::string TempLogPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("bench_cluster_" + std::to_string(::getpid()) + "_" + tag + ".log"))
      .string();
}

struct LogCluster {
  std::vector<std::string> paths;
  std::vector<std::shared_ptr<server::ServerEngine>> engines;
  std::shared_ptr<cluster::ShardRouter> router;

  explicit LogCluster(size_t shards) {
    for (size_t i = 0; i < shards; ++i) {
      paths.push_back(TempLogPath("s" + std::to_string(i)));
      std::remove(paths.back().c_str());
      auto log = store::LogKvStore::Open(paths.back());
      if (!log.ok()) std::abort();
      server::ServerOptions options;
      options.shard_id = static_cast<uint32_t>(i);
      engines.push_back(std::make_shared<server::ServerEngine>(
          std::shared_ptr<store::KvStore>(std::move(*log)), options));
    }
    router = std::make_shared<cluster::ShardRouter>(engines);
  }

  ~LogCluster() {
    router.reset();
    engines.clear();
    for (const auto& path : paths) std::remove(path.c_str());
  }
};

// ---------------------------------------------------------- shard scaling

/// Shared by a shard row's threads: thread 0 builds it before the loop
/// (the loop's start barrier publishes it) and drops it after.
struct ShardFixture {
  IngestLoad load;
  LogCluster cluster;
  ShardFixture(size_t shards, uint64_t chunks)
      : load(kStreams, chunks), cluster(shards) {}
};
std::unique_ptr<ShardFixture> shard_fixture;

void BM_ShardIngest(benchmark::State& state) {
  const auto chunks = static_cast<uint64_t>(state.range(1));
  if (state.thread_index() == 0) {
    shard_fixture = std::make_unique<ShardFixture>(state.range(0), chunks);
    shard_fixture->load.CreateStreams(*shard_fixture->cluster.router);
  }
  // Worker w sends streams w, w + threads, ... one after another.
  size_t stream = state.thread_index();
  uint64_t chunk = 0;
  for (auto _ : state) {
    const ShardFixture& fx = *shard_fixture;
    if (!fx.cluster.router
             ->Handle(net::MessageType::kInsertChunkBatch,
                      fx.load.bodies[stream][chunk])
             .ok()) {
      std::abort();
    }
    if (++chunk == chunks) {
      chunk = 0;
      stream += state.threads();
    }
  }
  state.counters["chunks"] =
      benchmark::Counter(state.iterations(), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) shard_fixture.reset();
}

void BM_ShardQuery(benchmark::State& state) {
  const auto chunks = static_cast<uint64_t>(state.range(1));
  if (state.thread_index() == 0) {
    shard_fixture = std::make_unique<ShardFixture>(state.range(0), chunks);
    shard_fixture->load.Ingest(*shard_fixture->cluster.router);
  }
  uint64_t x = 0x9e3779b9u + state.thread_index();
  for (auto _ : state) {
    const ShardFixture& fx = *shard_fixture;
    if (!fx.cluster.router
             ->Handle(net::MessageType::kGetStatRange,
                      fx.load.NextStatRange(x, chunks))
             .ok()) {
      std::abort();
    }
  }
  state.counters["queries"] =
      benchmark::Counter(state.iterations(), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) shard_fixture.reset();
}

// ------------------------------------------------------- loopback TCP

/// One engine behind a real loopback TcpServer and one connected client:
/// every Call pays a full round trip.
struct TcpStack {
  std::string path;  // empty for the mem store
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpClient> client;
  uint64_t uuid = 0x2000;

  explicit TcpStack(bool durable) {
    std::shared_ptr<store::KvStore> kv;
    if (durable) {
      path = TempLogPath("tcp");
      std::remove(path.c_str());
      auto log = store::LogKvStore::Open(path);
      if (!log.ok()) std::abort();
      kv = std::move(*log);
    } else {
      kv = std::make_shared<store::MemKvStore>();
    }
    server::ServerOptions options;
    options.sync_each_insert = durable;  // batch => one group-committed sync
    server = std::make_unique<net::TcpServer>(
        std::make_shared<server::ServerEngine>(kv, options), 0);
    if (!server->Start().ok()) std::abort();
    auto connected = net::TcpClient::Connect("127.0.0.1", server->port());
    if (!connected.ok()) std::abort();
    client = std::move(*connected);
    net::CreateStreamRequest create{uuid, PlainConfig("tcp")};
    if (!client->Call(net::MessageType::kCreateStream, create.Encode()).ok()) {
      std::abort();
    }
  }

  ~TcpStack() {
    client.reset();
    server->Stop();
    server.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// Calls in flight on one socket, oldest first.
class Window {
 public:
  explicit Window(size_t size) : size_(size) {}

  /// Send one call, then wait on the oldest until at most size - 1 remain
  /// in flight, or none on the row's last iteration.
  void Push(net::PendingCall call, bool last) {
    inflight_.push_back(std::move(call));
    const size_t limit = last ? 0 : size_ - 1;
    while (inflight_.size() > limit) {
      if (!inflight_.front().Wait().ok()) std::abort();
      inflight_.pop_front();
    }
  }

 private:
  size_t size_;
  std::deque<net::PendingCall> inflight_;
};

void BM_TcpIngest(benchmark::State& state, bool durable) {
  const auto batch = static_cast<size_t>(state.range(0));
  const auto chunks = static_cast<uint64_t>(state.range(2));
  TcpStack stack(durable);
  Window window(state.range(1));
  auto cipher = index::MakePlainCipher(2);
  const Bytes payload(256, 0xab);  // a small sealed payload per chunk
  std::vector<Bytes> digests;  // the batch's digests, which its entries view
  digests.reserve(batch);
  uint64_t c = 0;
  for (auto _ : state) {
    net::InsertChunkBatchRequest req;
    req.uuid = stack.uuid;
    digests.clear();
    for (size_t b = 0; b < batch && c < chunks; ++b, ++c) {
      std::vector<uint64_t> fields{c, 1};
      digests.push_back(*cipher->Encrypt(fields, c));
      req.entries.push_back({c, digests.back(), payload});
    }
    window.Push(stack.client->AsyncCall(net::MessageType::kInsertChunkBatch,
                                        req.Encode()),
                c == chunks);
  }
  if (c != chunks) std::abort();  // the row's iteration count is wrong
  state.counters["chunks"] =
      benchmark::Counter(static_cast<double>(c), benchmark::Counter::kIsRate);
}

void BM_TcpQuery(benchmark::State& state) {
  const auto chunks = static_cast<uint64_t>(state.range(1));
  TcpStack stack(/*durable=*/false);
  for (uint64_t c = 0; c < chunks; ++c) {
    if (!stack.client
             ->Call(net::MessageType::kInsertChunkBatch,
                    PlainChunkBody(stack.uuid, c))
             .ok()) {
      std::abort();
    }
  }
  Window window(state.range(0));
  uint64_t x = 0x2545f4914f6cdd1dULL;
  int64_t sent = 0;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t first = (x >> 33) % (chunks - 1);
    uint64_t last = first + 1 + (x >> 17) % (chunks - first);
    net::StatRangeRequest req{
        stack.uuid,
        {static_cast<Timestamp>(first * kPlainDelta),
         static_cast<Timestamp>(last * kPlainDelta)}};
    window.Push(stack.client->AsyncCall(net::MessageType::kGetStatRange,
                                        req.Encode()),
                ++sent == state.max_iterations);
  }
  state.counters["queries"] =
      benchmark::Counter(state.iterations(), benchmark::Counter::kIsRate);
}

// -------------------------------------------------------- scatter-gather

/// Each shard's store pays an emulated remote-store hop of 0.5 ms per op
/// (the paper's client<->Cassandra RTT) and the engine cache is starved so
/// queries hit it; a MultiStatRange over one stream per shard then takes
/// N x per-shard latency when the scatter is serial and ~1 x when the
/// shard channels pipeline. Serial mode models a blocking per-shard
/// transport; pipelined mode sizes the channel executor one thread per
/// shard (what the default resolves to on a host with >= shards cores), so
/// the store-latency waits overlap even on a small CI box.
void BM_ScatterStatRange(benchmark::State& state, bool pipelined) {
  const auto shards = static_cast<size_t>(state.range(0));
  const auto chunks = static_cast<uint64_t>(state.range(1));
  std::vector<std::shared_ptr<server::ServerEngine>> engines;
  for (size_t i = 0; i < shards; ++i) {
    auto slow = std::make_shared<store::LatencyKvStore>(
        std::make_shared<store::MemKvStore>(), std::chrono::microseconds(500));
    server::ServerOptions options;
    options.shard_id = static_cast<uint32_t>(i);
    options.index_cache_bytes = 1;  // starve the cache: queries hit kv
    engines.push_back(
        std::make_shared<server::ServerEngine>(std::move(slow), options));
  }
  cluster::RouterOptions router_options;
  router_options.scatter_threads = pipelined ? shards : 1;
  cluster::ShardRouter router(engines, router_options);

  std::vector<uint64_t> uuids;
  for (size_t s = 0; s < shards; ++s) {
    uint64_t uuid = 0x4000 + s;
    while (router.ShardOf(uuid) != s) ++uuid;  // one stream on each shard
    uuids.push_back(uuid);
    net::CreateStreamRequest create{uuid, PlainConfig("sc")};
    if (!router.Handle(net::MessageType::kCreateStream, create.Encode())
             .ok()) {
      std::abort();
    }
    for (uint64_t c = 0; c < chunks; ++c) {
      if (!router
               .Handle(net::MessageType::kInsertChunkBatch,
                       PlainChunkBody(uuid, c))
               .ok()) {
        std::abort();
      }
    }
  }
  const Bytes body =
      net::MultiStatRangeRequest{
          uuids, {0, static_cast<Timestamp>(chunks * kPlainDelta)}}
          .Encode();
  for (auto _ : state) {
    if (!router.Handle(net::MessageType::kMultiStatRange, body).ok()) {
      std::abort();
    }
  }
}

// ------------------------------------------------- instrumentation costs

// Anything under the 250 ns bound is lost in the noise of a ~28 us request
// round trip. The rows run on one thread, so they catch added work per
// record, not contention: an uncontended mutex on either path adds only
// tens of ns.
constexpr double kOverheadBoundNs = 250.0;

/// One Counter::Inc plus one LatencyHistogram::Record: the per-message-type
/// count + latency pair every instrumented handler pays.
void BM_MetricsRecord(benchmark::State& state) {
  auto& ops = metrics::GetCounter("tc_bench_overhead_total");
  auto& latency = metrics::GetHistogram("tc_bench_overhead_us");
  uint64_t i = 0;
  for (auto _ : state) {
    ops.Inc();
    latency.Record(i++ & 0x3FF);
  }
}

/// One TraceSpan open/close: two clock reads, the sampling hash, and a
/// lock-free ring push.
void BM_SpanRecord(benchmark::State& state) {
  for (auto _ : state) {
    metrics::TraceSpan span("bench_span", nullptr, 0, 0);
  }
}

void RegisterAll() {
  for (int64_t chunks : {400, 4000}) {
    // Every chunk is sent once, split across the threads.
    benchmark::RegisterBenchmark("BM_ShardIngest", BM_ShardIngest)
        ->ArgNames({"shards", "chunks"})
        ->ArgsProduct({{1, 2, 4, 8}, {chunks}})
        ->Iterations(kStreams * chunks / kThreads)
        ->Threads(kThreads)
        ->UseRealTime();
    // Each thread sends a quarter as many queries as the fixture has chunks.
    benchmark::RegisterBenchmark("BM_ShardQuery", BM_ShardQuery)
        ->ArgNames({"shards", "chunks"})
        ->ArgsProduct({{1, 2, 4, 8}, {chunks}})
        ->Iterations(kStreams * chunks / 4)
        ->Threads(kThreads)
        ->UseRealTime();
  }
  struct Mode {
    int64_t batch, window;
  };
  for (bool durable : {false, true}) {
    for (int64_t chunks : {512, 4096}) {
      for (Mode m : {Mode{1, 1}, Mode{1, 8}, Mode{16, 1}, Mode{64, 1},
                     Mode{16, 4}, Mode{64, 4}}) {
        benchmark::RegisterBenchmark(
            durable ? "BM_TcpIngest/log" : "BM_TcpIngest/mem",
            [durable](benchmark::State& st) { BM_TcpIngest(st, durable); })
            ->ArgNames({"batch", "window", "chunks"})
            ->Args({m.batch, m.window, chunks})
            ->Iterations((chunks + m.batch - 1) / m.batch)
            ->UseRealTime()
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
  struct QuerySize {
    int64_t chunks, queries;
  };
  for (QuerySize size : {QuerySize{128, 500}, QuerySize{512, 4000}}) {
    benchmark::RegisterBenchmark("BM_TcpQuery", BM_TcpQuery)
        ->ArgNames({"window", "chunks"})
        ->ArgsProduct({{1, 8, 32}, {size.chunks}})
        ->Iterations(size.queries)
        ->UseRealTime()
        ->Unit(benchmark::kMicrosecond);
  }
  for (QuerySize size : {QuerySize{32, 5}, QuerySize{64, 20}}) {
    for (bool pipelined : {false, true}) {
      benchmark::RegisterBenchmark(
          pipelined ? "BM_ScatterStatRange/pipelined"
                    : "BM_ScatterStatRange/serial",
          [pipelined](benchmark::State& st) {
            BM_ScatterStatRange(st, pipelined);
          })
          ->ArgNames({"shards", "chunks"})
          ->ArgsProduct({{1, 2, 4, 8}, {size.chunks}})
          ->Iterations(size.queries)
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RegisterBenchmark("BM_MetricsRecord", BM_MetricsRecord)
      ->Iterations(2'000'000);
  benchmark::RegisterBenchmark("BM_SpanRecord", BM_SpanRecord)
      ->Iterations(1'000'000);
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  tc::bench::RegisterAll();
  return tc::bench::RunBenchmarks(
      argc, argv,
      {{"BM_MetricsRecord", tc::bench::kOverheadBoundNs},
       {"BM_SpanRecord", tc::bench::kOverheadBoundNs}});
}
