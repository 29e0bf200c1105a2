// tc_bench — the repository's end-to-end benchmark.
//
// Runs TimeCrypt's serving pipeline in-process, assembled the way
// `tcserver --shards 2 --store log` assembles it: OwnerClient/ConsumerClient
// over one loopback TcpClient per client thread, then TcpServer, ShardRouter,
// two ServerEngines, and each engine's AggTree over a LogKvStore in a fresh
// directory. One of four workloads drives it, in a closed loop except for
// mixed's fixed-rate writer, and every query answer is checked against the
// benchmark's own reference sums.
//
// A run sets the stack up several times; each set-up warms up and is
// measured for its share of --seconds. The run reports the median set-up
// time and traffic metrics pooled over the set-ups. With --trace the
// measured phase alternates traced and untraced blocks: the decorators in
// timed.hpp attribute each op's latency to client, transport, server and
// store, and whenever a set-up's traffic stops the crypto, chunk and index
// primitives are replayed single-threaded on that traffic's own inputs.
//
//   tc_bench --workload query_full --seed 1 --seconds 10 [--trace]
//            [--smoke] [--oracle-selftest] [--spans FILE] [--dir DIR]
//
// The last line of stdout is one JSON object holding every metric; run.py
// turns it into the benchmark's result line. Exit code 1 means a failed op
// or a wrong answer, 2 a usage or set-up error.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunk/chunk.hpp"
#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "index/digest_cipher.hpp"
#include "net/tcp.hpp"
#include "replica/replica_set.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "timed.hpp"
#include "workload/mhealth.hpp"

namespace tc::tcbench {
namespace {

namespace fs = std::filesystem;

constexpr DurationMs kDeltaMs = 10'000;  // Δ = 10 s chunks
constexpr int kLivePoints = 500;         // 50 Hz x 10 s
// Prefilled history carries 10 points per chunk: query cost depends on the
// chunk count only, and this keeps set-up short.
constexpr int kPrefillPoints = 10;
constexpr uint64_t kPoolChunks = 97;  // distinct value chunks per stream
constexpr uint64_t kResolution = 60;  // 10-minute windows of 10 s chunks
constexpr uint64_t kLiveGrantEnd = uint64_t{1} << 20;
constexpr size_t kShards = 2;
constexpr size_t kPrefillThreads = 2;
constexpr size_t kFields = 19;  // VitalsSchema: sum, count, sumsq, 16 bins
constexpr size_t kDigestBytes = kFields * 8;
// Chunk writes after which a run that writes reads its peak memory: well
// inside the first set-up's traffic, at mixed's 2,000 writes/s too.
constexpr uint64_t kRssAfterWrites = 2000;

enum class Shape { kNone, kLogUniform, kWindows, kLiveTail };

struct Workload {
  const char* name;
  int producers;  // threads, each owning streams / producers streams
  // 0: producers write in a closed loop. Otherwise one producer writes this
  // many chunks per second on a fixed schedule, as background load under
  // the consumers, whose queries are then the measured ops.
  double writer_chunks_per_s;
  int consumers;  // threads, each one principal holding a grant per stream
  int streams;
  uint64_t prefill_chunks;
  uint64_t smoke_prefill_chunks;
  bool quarter_cache;  // index cache = 1/4 of a stream's index (Fig 7c)
  uint64_t grant_resolution;
  Shape shape;
  // Set-ups per run; the run reports the median over them. The query
  // workloads' 65,520-chunk prefill takes seconds, the others' under one.
  int fixtures;
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"ingest", 2, 0, 0, 8, 8640, 1024, false, 1, Shape::kNone, 5},
    {"query_full", 0, 0, 2, 4, 65520, 4080, true, 1, Shape::kLogUniform, 3},
    // One dashboard: two threads deriving resolution keys at once each ran
    // 1.75x slower (SHA-256 through OpenSSL's shared EVP state), and how much
    // slower moved by 30% between runs with the host's vCPU placement.
    {"query_resolution", 0, 0, 1, 4, 65520, 4080, true, kResolution,
     Shape::kWindows, 3},
    {"mixed", 1, 2000, 2, 4, 8640, 1024, false, 1, Shape::kLiveTail, 5},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool oracle_selftest = false;
  std::string spans_path;
  fs::path dir;  // the stores' directory; a fresh temporary one by default

  uint64_t prefill() const {
    return smoke ? workload->smoke_prefill_chunks : workload->prefill_chunks;
  }
  uint64_t grant_end() const {
    return workload->shape == Shape::kLiveTail ? kLiveGrantEnd : prefill();
  }
  int fixtures() const { return smoke ? 1 : workload->fixtures; }
  // The measured ops are the consumers' queries where there are consumers
  // (a fixed-rate writer is background load), else the producers' writes.
  bool measure_writes() const { return workload->consumers == 0; }
  double warmup_s() const { return smoke ? 0.3 : 0.5; }
  double twin_s() const { return smoke ? 0.4 : 2.0; }
  double replay_s() const { return smoke ? 0.3 : 2.0; }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "tc_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

net::StreamConfig VitalsStream(const std::string& name,
                               net::CipherKind cipher) {
  net::StreamConfig config;
  config.name = name;
  config.delta_ms = kDeltaMs;
  config.schema = workload::MHealthGenerator::VitalsSchema();
  config.cipher = cipher;
  return config;
}

TimeRange ChunkSpan(uint64_t first, uint64_t last) {
  return {static_cast<Timestamp>(first) * kDeltaMs,
          static_cast<Timestamp>(last) * kDeltaMs};
}

/// AggTree::IndexBytes of a fully ingested stream of `chunks` chunks.
size_t IndexBytesFor(uint64_t chunks) {
  size_t total = 0;
  for (uint64_t entries = chunks; entries > 0; entries /= 64) {
    total += entries * kDigestBytes;
  }
  return total;
}

// ------------------------------------------------------------- inputs

/// One stream's generated values and the reference its answers are checked
/// against. Values repeat every kPoolChunks chunks, so the expected sum over
/// any chunk range has a closed form computed from the pool alone,
/// independent of the system under test.
class StreamData {
 public:
  StreamData(uint64_t seed, uint64_t stream, uint64_t prefill_chunks)
      : prefill_(prefill_chunks),
        pool_(kPoolChunks * kLivePoints),
        cycle_prefill_(kPoolChunks + 1),
        cycle_live_(kPoolChunks + 1) {
    workload::MHealthGenerator gen(
        {.num_metrics = 1, .seed = seed * 1'000'003 + stream});
    for (auto& value : pool_) value = gen.Next(0).value;
    for (uint64_t p = 0; p < kPoolChunks; ++p) {
      int64_t sum_prefill = 0;
      int64_t sum_live = 0;
      for (int i = 0; i < kLivePoints; ++i) {
        int64_t v = pool_[p * kLivePoints + i];
        if (i < kPrefillPoints) sum_prefill += v;
        sum_live += v;
      }
      cycle_prefill_[p + 1] = cycle_prefill_[p] + sum_prefill;
      cycle_live_[p + 1] = cycle_live_[p] + sum_live;
    }
  }

  index::DataPoint Point(uint64_t chunk, int i) const {
    Timestamp step = chunk < prefill_ ? 1000 : kDeltaMs / kLivePoints;
    return {static_cast<Timestamp>(chunk) * kDeltaMs + i * step,
            pool_[(chunk % kPoolChunks) * kLivePoints + i]};
  }

  /// A full 500-point chunk, whatever its index (replay inputs).
  std::vector<index::DataPoint> LiveChunk(uint64_t chunk) const {
    std::vector<index::DataPoint> points;
    for (int i = 0; i < kLivePoints; ++i) {
      points.push_back({static_cast<Timestamp>(chunk) * kDeltaMs +
                            i * (kDeltaMs / kLivePoints),
                        pool_[(chunk % kPoolChunks) * kLivePoints + i]});
    }
    return points;
  }

  int64_t ExpectedSum(uint64_t first, uint64_t last) const {
    int64_t sum = PrefixSum(last) - PrefixSum(first);
    if (shifted_chunk_ && first <= *shifted_chunk_ && *shifted_chunk_ < last) {
      sum += 1;
    }
    return sum;
  }

  uint64_t ExpectedCount(uint64_t first, uint64_t last) const {
    return PrefixCount(last) - PrefixCount(first);
  }

  /// Oracle self-test: expect one chunk's sum to be off by one.
  void ShiftExpectedSum(uint64_t chunk) { shifted_chunk_ = chunk; }

 private:
  static int64_t Cycled(const std::vector<int64_t>& cycle, uint64_t chunks) {
    return static_cast<int64_t>(chunks / kPoolChunks) * cycle[kPoolChunks] +
           cycle[chunks % kPoolChunks];
  }
  int64_t PrefixSum(uint64_t chunks) const {
    int64_t sum = Cycled(cycle_prefill_, std::min(chunks, prefill_));
    if (chunks > prefill_) {
      sum += Cycled(cycle_live_, chunks) - Cycled(cycle_live_, prefill_);
    }
    return sum;
  }
  uint64_t PrefixCount(uint64_t chunks) const {
    uint64_t count = std::min(chunks, prefill_) * kPrefillPoints;
    if (chunks > prefill_) count += (chunks - prefill_) * kLivePoints;
    return count;
  }

  uint64_t prefill_;
  std::vector<int64_t> pool_;
  std::vector<int64_t> cycle_prefill_;  // prefix sums of 10-point chunk sums
  std::vector<int64_t> cycle_live_;     // prefix sums of 500-point chunk sums
  std::optional<uint64_t> shifted_chunk_;
};

uint64_t LogUniform(crypto::DeterministicRng& rng, uint64_t max) {
  double v = std::exp(rng.NextDouble() * std::log(static_cast<double>(max) + 1));
  return std::clamp<uint64_t>(static_cast<uint64_t>(v), 1, max);
}

// ------------------------------------------------------------- the stack

struct Traces {
  explicit Traces(size_t capacity)
      : calls(capacity), handles(capacity), stores(2 * capacity) {}
  SpanLog calls;
  SpanLog handles;
  SpanLog stores;
};

/// The serving pipeline of `tcserver --shards 2 --store log`, in-process.
/// With `traces` the timed decorators sit at the layer boundaries; without,
/// the stack is exactly tcserver's.
class Stack {
 public:
  Stack(fs::path dir, size_t cache_bytes, Traces* traces)
      : dir_(std::move(dir)), traces_(traces) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    store::LogKvOptions log_options;
    log_options.compact_dead_fraction = 0.5;  // tcserver --compact-pct 50
    std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
    for (size_t i = 0; i < kShards; ++i) {
      std::shared_ptr<store::KvStore> kv = Check(
          store::LogKvStore::Open(
              (dir_ / ("timecrypt.log.shard" + std::to_string(i))).string(),
              log_options),
          "open log store");
      if (traces_ != nullptr) {
        kv = std::make_shared<TimedKvStore>(std::move(kv), traces_->stores);
      }
      Check(cluster::BindShardMeta(*kv, static_cast<uint32_t>(i), kShards),
            "bind shard");
      server::ServerOptions options;
      options.index_cache_bytes = cache_bytes;
      options.shard_id = static_cast<uint32_t>(i);
      sets.push_back(replica::ReplicaSet::Single(
          std::make_shared<server::ServerEngine>(std::move(kv), options)));
    }
    router_ = std::make_shared<cluster::ShardRouter>(std::move(sets));
    std::shared_ptr<net::RequestHandler> handler = router_;
    if (traces_ != nullptr) {
      handler = std::make_shared<TimedHandler>(std::move(handler),
                                               traces_->handles);
    }
    server_ = std::make_unique<net::TcpServer>(std::move(handler), 0,
                                               net::TcpServerOptions{});
    Check(server_->Start(), "start server");
  }

  ~Stack() {
    server_->Stop();
    server_.reset();
    router_.reset();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// A new loopback connection, timed from the client side when traced.
  std::shared_ptr<net::Transport> Connect() {
    std::shared_ptr<net::Transport> client =
        Check(net::TcpClient::Connect("127.0.0.1", server_->port()), "connect");
    if (traces_ == nullptr) return client;
    return std::make_shared<TimedTransport>(std::move(client), traces_->calls);
  }

  cluster::ShardRouter& router() { return *router_; }

 private:
  fs::path dir_;
  Traces* traces_;
  std::shared_ptr<cluster::ShardRouter> router_;
  std::unique_ptr<net::TcpServer> server_;
};

/// One set-up of a workload: the stack, its streams and the clients.
struct Fixture {
  std::unique_ptr<Stack> stack;
  std::vector<uint64_t> uuids;
  std::vector<std::unique_ptr<client::OwnerClient>> owners;  // prefill, grants
  std::vector<std::unique_ptr<client::OwnerClient>> producers;
  std::vector<std::unique_ptr<client::ConsumerClient>> consumers;
  std::vector<client::OwnerClient*> owner_of;  // per stream: its live owner
  std::vector<uint64_t> next_chunk;            // per stream, producer-owned
  // Per stream: chunks handed to the system. A producer raises it before the
  // call that seals the chunk, so the server holds at least published - 1.
  std::unique_ptr<std::atomic<uint64_t>[]> published;
};

std::unique_ptr<Fixture> SetUp(const Options& opt,
                               const std::vector<StreamData>& data,
                               Traces* traces, const fs::path& dir) {
  const Workload& w = *opt.workload;
  const size_t streams = static_cast<size_t>(w.streams);
  auto f = std::make_unique<Fixture>();
  size_t cache_bytes = server::ServerOptions{}.index_cache_bytes;
  if (w.quarter_cache) cache_bytes = IndexBytesFor(opt.prefill()) / 4;
  f->stack = std::make_unique<Stack>(dir, cache_bytes, traces);

  // Prefill owners upload in batches; the measured producers below use the
  // default options (one InsertChunk per chunk).
  client::OwnerOptions bulk;
  bulk.upload_batch_chunks = 256;
  const size_t owners = std::min(streams, kPrefillThreads);
  for (size_t i = 0; i < owners; ++i) {
    f->owners.push_back(
        std::make_unique<client::OwnerClient>(f->stack->Connect(), bulk));
  }
  // Stream uuids are drawn at random by the client; re-create a stream until
  // stream s lands on shard s % kShards. A random placement would decide
  // per set-up whether two client threads contend for one shard, and that
  // alone moved set-up time and ingest throughput by tens of percent.
  for (size_t s = 0; s < streams; ++s) {
    client::OwnerClient& owner = *f->owners[s % owners];
    for (;;) {
      uint64_t uuid = Check(
          owner.CreateStream(VitalsStream("vitals/" + std::to_string(s),
                                          net::CipherKind::kHeac)),
          "create stream");
      if (f->stack->router().ShardOf(uuid) == s % kShards) {
        f->uuids.push_back(uuid);
        break;
      }
      Check(owner.DeleteStream(uuid), "delete stream");
    }
  }

  std::vector<Status> prefill_status(owners);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < owners; ++t) {
    threads.emplace_back([&, t] {
      for (size_t s = t; s < streams; s += owners) {
        for (uint64_t c = 0; c < opt.prefill(); ++c) {
          for (int i = 0; i < kPrefillPoints; ++i) {
            Status st = f->owners[t]->InsertRecord(f->uuids[s],
                                                   data[s].Point(c, i));
            if (!st.ok()) {
              prefill_status[t] = st;
              return;
            }
          }
        }
        prefill_status[t] = f->owners[t]->Flush(f->uuids[s]);
        if (!prefill_status[t].ok()) return;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& st : prefill_status) Check(st, "prefill");

  f->published = std::make_unique<std::atomic<uint64_t>[]>(streams);
  for (size_t s = 0; s < streams; ++s) {
    f->owner_of.push_back(f->owners[s % owners].get());
    f->next_chunk.push_back(opt.prefill());
    f->published[s].store(opt.prefill());
  }
  // Producers re-open their streams from the exported key material, as a
  // producer resuming after restart does.
  for (int p = 0; p < w.producers; ++p) {
    auto producer = std::make_unique<client::OwnerClient>(f->stack->Connect());
    for (size_t s = p * streams / w.producers;
         s < (p + 1) * streams / w.producers; ++s) {
      auto* keys = Check(f->owner_of[s]->KeysFor(f->uuids[s]), "keys");
      Check(producer->AttachStream(f->uuids[s], keys->master_seed()),
            "attach stream");
      f->owner_of[s] = producer.get();
    }
    f->producers.push_back(std::move(producer));
  }
  for (int c = 0; c < w.consumers; ++c) {
    client::Principal principal{"dashboard-" + std::to_string(c),
                                crypto::GenerateBoxKeyPair()};
    for (size_t s = 0; s < streams; ++s) {
      Check(f->owners[s % owners]->GrantAccess(
                f->uuids[s], principal.id, principal.keys.public_key,
                ChunkSpan(0, opt.grant_end()), w.grant_resolution),
            "grant");
    }
    auto consumer = std::make_unique<client::ConsumerClient>(
        f->stack->Connect(), std::move(principal));
    if (Check(consumer->FetchGrants(), "fetch grants") !=
        static_cast<int>(streams)) {
      Die("consumer did not receive one grant per stream");
    }
    f->consumers.push_back(std::move(consumer));
  }
  return f;
}

// ------------------------------------------------------------- the run

struct Op {
  uint64_t id;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t first;  // chunk range queried, or [chunk, chunk + 1) written
  uint64_t last;
  uint32_t stream;
  bool write;
  bool ok;
  bool traced;    // inside one traced block
  bool untraced;  // inside one untraced block
  // Blocks 2q and 2q + 1 of a fixture, one traced and one untraced and
  // adjacent in time, form pair q.
  uint64_t pair;
};

/// A numeric field of /proc/self/status ("Threads:", "VmHWM:" in kB).
double StatusField(const char* name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(name);
  while (std::getline(in, line)) {
    if (line.compare(0, len, name) == 0) return std::atof(line.c_str() + len);
  }
  return 0;
}

enum Phase : int { kWarmup, kMeasure, kStop };

struct Control {
  std::atomic<int> phase{kWarmup};
  // Seqlock around the tracing switch: odd while it flips, so an op that
  // reads the same even value at its start and end ran entirely in one
  // block.
  std::atomic<uint64_t> block{0};

  void SetTracing(bool on) {
    block.fetch_add(1);
    g_tracing.store(on);
    block.fetch_add(1);
  }
};

struct ClientThread {
  client::OwnerClient* producer = nullptr;
  client::ConsumerClient* consumer = nullptr;
  std::vector<size_t> streams;  // a producer's own streams
  uint64_t id_base = 0;
  crypto::DeterministicRng rng{0};
  // Latencies of the measured ops that ran untraced: the whole sample of an
  // untraced run. Reserved up front, and reserve() makes no page resident,
  // so the bench's own memory grows by 4 bytes per op, without jumps.
  std::vector<float> latency_us;
  // A traced run's measured ops, for the trace analysis. An untraced run
  // keeps none: 56 bytes per op would make peak_rss_mb follow throughput.
  std::vector<Op> ops;
  // Every op of every phase, warm-up and the one cut by the stop included:
  // a wrong answer counts wherever it happens.
  size_t attempted = 0;
  size_t failed = 0;
  int64_t lag_ns = 0;  // how late a fixed-rate writer started its last op
  std::string first_error;
};

class Runner {
 public:
  /// `rss_after_writes`: read the memory high-water mark once that many
  /// writes have completed, counted from the start of warm-up; 0 reads it
  /// when the traffic stops.
  Runner(const Options& opt, const std::vector<StreamData>& data, Fixture& f,
         uint64_t rss_after_writes)
      : opt_(opt), data_(data), f_(f), rss_after_writes_(rss_after_writes) {}

  /// VmHWM of the process in MB, as of the point chosen above.
  double peak_rss_mb = 0;

  /// Warm up, measure for `seconds`, stop. Returns the wall seconds of the
  /// measured phase that ran untraced: all of it in an untraced run.
  double Run(std::vector<ClientThread>& clients, double seconds) {
    std::vector<std::thread> threads;
    for (auto& t : clients) threads.emplace_back([this, &t] { Loop(t); });
    Sleep(opt_.warmup_s());
    ctl_.phase.store(kMeasure);
    double untraced_s = 0;
    if (opt_.trace) {
      // Traced and untraced blocks of about a quarter second, in the order
      // on-off-off-on: the op latencies of each kind within the same run give
      // the tracing overhead, and a steady drift over the run (the log
      // growing, caches filling) weighs on both kinds alike.
      const int blocks = 4 * std::max(1, static_cast<int>(std::lround(seconds)));
      for (int b = 0; b < blocks; ++b) {
        const bool on = b % 4 == 0 || b % 4 == 3;
        const int64_t start = NowNs();
        ctl_.SetTracing(on);
        Sleep(seconds / blocks);
        if (!on) untraced_s += static_cast<double>(NowNs() - start) / 1e9;
      }
      ctl_.SetTracing(false);
    } else {
      const int64_t start = NowNs();
      Sleep(seconds);
      untraced_s = static_cast<double>(NowNs() - start) / 1e9;
    }
    ctl_.phase.store(kStop);
    for (auto& thread : threads) thread.join();
    if (peak_rss_mb == 0) peak_rss_mb = StatusField("VmHWM:") / 1024.0;
    return untraced_s;
  }

  static void Sleep(double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

 private:
  void Loop(ClientThread& t) {
    const double rate = opt_.workload->writer_chunks_per_s;
    const int64_t origin = NowNs();
    for (uint64_t n = 0; ctl_.phase.load() != kStop; ++n) {
      Op op{};
      op.id = t.id_base + n;
      op.write = t.producer != nullptr;
      if (op.write && rate > 0) {
        // Open loop: a late writer starts at once but never bursts.
        int64_t due = origin + static_cast<int64_t>(static_cast<double>(n) * 1e9 / rate);
        t.lag_ns = NowNs() - due;
        if (t.lag_ns < 0) std::this_thread::sleep_for(std::chrono::nanoseconds(-t.lag_ns));
      }
      int phase = ctl_.phase.load();
      uint64_t block = ctl_.block.load();
      bool tracing = g_tracing.load();
      metrics::SetCurrentTraceContext({op.id, 0});
      op.start_ns = NowNs();
      op.ok = op.write ? Write(t, op) : Query(t, op);
      op.end_ns = NowNs();
      metrics::SetCurrentTraceContext({});
      bool stable = block % 2 == 0 && ctl_.block.load() == block;
      op.traced = stable && tracing;
      op.untraced = stable && !tracing;
      // The b-th flip of the switch leaves it at 2(b + 1).
      op.pair = block >= 2 ? (block - 2) / 4 : 0;
      ++t.attempted;
      if (!op.ok) ++t.failed;
      if (op.ok && phase == kMeasure && ctl_.phase.load() == kMeasure) {
        if (op.untraced && op.write == opt_.measure_writes()) {
          t.latency_us.push_back(static_cast<float>(op.end_ns - op.start_ns) / 1e3f);
        }
        if (opt_.trace) t.ops.push_back(op);
      }
      if (op.write && writes_.fetch_add(1) + 1 == rss_after_writes_) {
        peak_rss_mb = StatusField("VmHWM:") / 1024.0;
      }
    }
  }

  bool Write(ClientThread& t, Op& op) {
    size_t s = t.streams[(op.id - t.id_base) % t.streams.size()];
    uint64_t chunk = f_.next_chunk[s]++;
    op.stream = static_cast<uint32_t>(s);
    op.first = chunk;
    op.last = chunk + 1;
    // The first insert of this chunk seals and uploads the previous one.
    f_.published[s].store(chunk, std::memory_order_release);
    for (int i = 0; i < kLivePoints; ++i) {
      Status st = t.producer->InsertRecord(f_.uuids[s], data_[s].Point(chunk, i));
      if (!st.ok()) return Fail(t, "insert: " + st.ToString());
    }
    return true;
  }

  bool Query(ClientThread& t, Op& op) {
    const Workload& w = *opt_.workload;
    size_t s = t.rng.NextBelow(f_.uuids.size());
    uint64_t a = 0;
    uint64_t b = 0;
    switch (w.shape) {
      case Shape::kLogUniform: {
        uint64_t len = LogUniform(t.rng, opt_.prefill());
        a = t.rng.NextBelow(opt_.prefill() - len + 1);
        b = a + len;
        break;
      }
      case Shape::kWindows: {
        uint64_t windows = opt_.prefill() / kResolution;
        uint64_t len = LogUniform(t.rng, windows);
        a = t.rng.NextBelow(windows - len + 1) * kResolution;
        b = a + len * kResolution;
        break;
      }
      case Shape::kLiveTail: {
        b = f_.published[s].load(std::memory_order_acquire);
        a = b - (6 + t.rng.NextBelow(355));
        break;
      }
      case Shape::kNone:
        return Fail(t, "workload has no queries");
    }
    op.stream = static_cast<uint32_t>(s);
    auto result = t.consumer->GetStatRange(f_.uuids[s], ChunkSpan(a, b));
    if (!result.ok()) return Fail(t, "query: " + result.status().ToString());
    op.first = result->first_chunk;
    op.last = result->last_chunk;
    // A live-tail query may miss the one chunk still being uploaded.
    uint64_t min_last = w.shape == Shape::kLiveTail ? b - 1 : b;
    auto sum = result->stats.Sum();
    auto count = result->stats.Count();
    if (op.first != a || op.last < min_last || op.last > b || !sum.ok() ||
        !count.ok() || *sum != data_[s].ExpectedSum(op.first, op.last) ||
        *count != data_[s].ExpectedCount(op.first, op.last)) {
      return Fail(t, "wrong answer for stream " + std::to_string(s) +
                         " chunks [" + std::to_string(a) + ", " +
                         std::to_string(b) + ")");
    }
    return true;
  }

  bool Fail(ClientThread& t, const std::string& what) {
    if (t.first_error.empty()) t.first_error = what;
    return false;
  }

  const Options& opt_;
  const std::vector<StreamData>& data_;
  Fixture& f_;
  const uint64_t rss_after_writes_;
  std::atomic<uint64_t> writes_{0};
  Control ctl_;
};

/// After the traffic: one owner full-range query per stream must match the
/// reference total over everything the stream holds.
bool VerifyTotals(const std::vector<StreamData>& data, uint64_t prefill,
                  Fixture& f) {
  bool ok = true;
  for (size_t s = 0; s < f.uuids.size(); ++s) {
    auto result = f.owner_of[s]->GetStatRange(
        f.uuids[s], ChunkSpan(0, uint64_t{1} << 30));
    // A producer stops with its last chunk still open client-side.
    uint64_t held = f.next_chunk[s] - (f.next_chunk[s] > prefill ? 1 : 0);
    bool match = result.ok() && result->first_chunk == 0 &&
                 result->last_chunk == held &&
                 result->stats.Sum().value_or(0) ==
                     data[s].ExpectedSum(0, held) &&
                 result->stats.Count().value_or(0) ==
                     data[s].ExpectedCount(0, held);
    if (!match) {
      std::fprintf(stderr, "tc_bench: stream %zu total does not match the "
                           "reference\n", s);
      ok = false;
    }
  }
  return ok;
}

// ------------------------------------------------------------- statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;
};

/// Clock ticks of all CPUs since boot, and the part of them the hypervisor
/// gave to other guests (steal), from the first line of /proc/stat.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(in >> value)) break;
    if (field == 7) ticks.steal = value;
    ticks.total += value;
  }
  return ticks;
}

// ------------------------------------------------------------- trace analysis

/// Spans of the traced ops, grouped per op and ordered by start.
struct OpSpans {
  std::vector<Span> calls;
  std::vector<Span> handles;
  std::vector<Span> stores;
};

std::unordered_map<uint64_t, OpSpans> GroupSpans(
    const std::vector<const Op*>& ops, const Traces& traces) {
  std::unordered_map<uint64_t, OpSpans> by_op;
  by_op.reserve(ops.size());
  for (const Op* op : ops) by_op[op->id];
  auto add = [&](const SpanLog& log, std::vector<Span> OpSpans::*member) {
    for (const Span& span : log.spans()) {
      auto it = by_op.find(span.op);
      if (it != by_op.end()) (it->second.*member).push_back(span);
    }
  };
  add(traces.calls, &OpSpans::calls);
  add(traces.handles, &OpSpans::handles);
  add(traces.stores, &OpSpans::stores);
  auto by_start = [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  };
  for (auto& [id, spans] : by_op) {
    std::sort(spans.calls.begin(), spans.calls.end(), by_start);
    std::sort(spans.handles.begin(), spans.handles.end(), by_start);
    std::sort(spans.stores.begin(), spans.stores.end(), by_start);
  }
  return by_op;
}

void AnalyzeTrace(const std::vector<const Op*>& ops,
                  const std::unordered_map<uint64_t, OpSpans>& by_op,
                  std::vector<Metric>& out, size_t& unmatched) {
  std::vector<double> op_self, calls_us, wire_us, handle_us, server_self,
      store_us;
  double sum_op = 0, sum_client = 0, sum_wire = 0, sum_server = 0,
         sum_store = 0;
  double calls = 0, req_bytes = 0, resp_bytes = 0, store_calls = 0,
         store_bytes = 0;
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (const Op* op : ops) {
    const OpSpans& s = by_op.at(op->id);
    if (s.calls.size() != s.handles.size()) {
      ++unmatched;
      continue;
    }
    int64_t call_ns = 0, handle_ns = 0, store_ns = 0;
    for (size_t k = 0; k < s.calls.size(); ++k) {
      const Span& c = s.calls[k];
      const Span& h = s.handles[k];
      int64_t in_handle = 0;
      for (const Span& st : s.stores) {
        if (st.start_ns >= h.start_ns && st.end_ns <= h.end_ns) {
          in_handle += st.end_ns - st.start_ns;
        }
      }
      call_ns += c.end_ns - c.start_ns;
      handle_ns += h.end_ns - h.start_ns;
      calls_us.push_back(us(c.end_ns - c.start_ns));
      wire_us.push_back(us((c.end_ns - c.start_ns) - (h.end_ns - h.start_ns)));
      handle_us.push_back(us(h.end_ns - h.start_ns));
      server_self.push_back(us(h.end_ns - h.start_ns - in_handle));
      req_bytes += c.bytes_out;
      resp_bytes += c.bytes_in;
    }
    for (const Span& st : s.stores) {
      store_ns += st.end_ns - st.start_ns;
      store_us.push_back(us(st.end_ns - st.start_ns));
      store_bytes += st.bytes_in + st.bytes_out;
    }
    int64_t op_ns = op->end_ns - op->start_ns;
    op_self.push_back(us(op_ns - call_ns));
    sum_op += op_ns;
    sum_client += op_ns - call_ns;
    sum_wire += call_ns - handle_ns;
    sum_server += handle_ns - store_ns;
    sum_store += store_ns;
    calls += static_cast<double>(s.calls.size());
    store_calls += static_cast<double>(s.stores.size());
  }
  const double n = std::max<double>(1, static_cast<double>(op_self.size()));
  const double total = std::max(1.0, sum_op);
  out.push_back({"client.op_self_us", Quantile(op_self, 0.5), "us", op_self.size()});
  out.push_back({"client.calls_per_op", calls / n, "count", op_self.size()});
  out.push_back({"client.self_frac", sum_client / total, "frac", op_self.size()});
  out.push_back({"net.call_us", Quantile(calls_us, 0.5), "us", calls_us.size()});
  out.push_back({"net.call_p99_us", Quantile(calls_us, 0.99), "us", calls_us.size()});
  out.push_back({"net.wire_us", Quantile(wire_us, 0.5), "us", wire_us.size()});
  out.push_back({"net.self_frac", sum_wire / total, "frac", op_self.size()});
  out.push_back({"net.req_bytes_per_op", req_bytes / n, "B", op_self.size()});
  out.push_back({"net.resp_bytes_per_op", resp_bytes / n, "B", op_self.size()});
  out.push_back({"server.handle_us", Quantile(handle_us, 0.5), "us", handle_us.size()});
  out.push_back({"server.handle_p99_us", Quantile(handle_us, 0.99), "us", handle_us.size()});
  out.push_back({"server.self_us", Quantile(server_self, 0.5), "us", server_self.size()});
  out.push_back({"server.self_frac", sum_server / total, "frac", op_self.size()});
  out.push_back({"store.call_us", Quantile(store_us, 0.5), "us", store_us.size()});
  out.push_back({"store.calls_per_op", store_calls / n, "count", op_self.size()});
  out.push_back({"store.bytes_per_op", store_bytes / n, "B", op_self.size()});
  out.push_back({"store.self_frac", sum_store / total, "frac", op_self.size()});
}

void WriteSpans(const std::string& path, const std::vector<const Op*>& ops,
                const std::unordered_map<uint64_t, OpSpans>& by_op) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) Die("cannot write " + path);
  // A sample of at most 1000 ops keeps the file small.
  size_t step = std::max<size_t>(1, ops.size() / 1000);
  auto line = [&](uint64_t op, const char* layer, const char* type,
                  int64_t start, int64_t end) {
    std::fprintf(file,
                 "{\"op\":%llu,\"layer\":\"%s\",\"type\":\"%s\","
                 "\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                 static_cast<unsigned long long>(op), layer, type,
                 static_cast<long long>(start),
                 static_cast<long long>(end - start));
  };
  static const char* kStoreOps[] = {"put", "get", "delete", "contains"};
  for (size_t i = 0; i < ops.size(); i += step) {
    const Op& op = *ops[i];
    line(op.id, "client", op.write ? "write" : "query", op.start_ns, op.end_ns);
    const OpSpans& s = by_op.at(op.id);
    for (const Span& c : s.calls) {
      line(op.id, "net", net::MessageTypeName(static_cast<net::MessageType>(c.type)),
           c.start_ns, c.end_ns);
    }
    for (const Span& h : s.handles) {
      line(op.id, "server", net::MessageTypeName(static_cast<net::MessageType>(h.type)),
           h.start_ns, h.end_ns);
    }
    for (const Span& st : s.stores) {
      line(op.id, "store", kStoreOps[st.type], st.start_ns, st.end_ns);
    }
  }
  std::fclose(file);
}

// ------------------------------------------------------------- replay

/// Times primitives on their items round-robin, one call of each in turn,
/// until every item is done or the budget runs out. The host runs a thread
/// at one of two speeds, about 2x apart, for up to a second at a time;
/// timing the primitives side by side gives each the same mix of both.
class RoundRobin {
 public:
  /// Adds a primitive. Its per-call microseconds are appended to `samples`;
  /// `items` and `samples` must outlive Run.
  template <typename Item, typename Fn>
  void Add(const std::vector<Item>& items, std::vector<double>& samples, Fn fn) {
    steps_.push_back([&items, &samples, fn](size_t i) mutable {
      if (i >= items.size()) return false;
      int64_t start = NowNs();
      fn(items[i]);
      samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
      return true;
    });
  }

  void Run(double budget_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    for (size_t i = 0; NowNs() < deadline; ++i) {
      bool more = false;
      for (auto& step : steps_) more = step(i) || more;
      if (!more) return;
    }
  }

 private:
  std::vector<std::function<bool(size_t)>> steps_;
};

struct Range {
  size_t stream;
  uint64_t first;
  uint64_t last;
};

/// Replays the crypto, chunk and index primitives single-threaded on the
/// run's recorded inputs (or, where the workload issued no queries or
/// writes, on seeded inputs over the data it holds). Each fixture gets a
/// slice once its traffic stops: the host's speed shifts by up to 2x for
/// seconds at a time, and slices spread over the run sample it across the
/// same span of time as the traffic whose self times they are part of.
class Replay {
 public:
  /// Replays on fixture `f`, whose traffic recorded `ops`, for `budget_s`.
  void Slice(const Options& opt, const std::vector<StreamData>& data,
             Fixture& f, const std::vector<const Op*>& ops, double budget_s);
  void Report(std::vector<Metric>& out) const;

 private:
  std::vector<double> token_us_, keyreg_us_, decrypt_us_, encrypt_us_,
      seal_us_, index_us_;
  double payload_bytes_ = 0;
  size_t sealed_ = 0;
  index::QueryStats stats_;
  size_t index_queries_ = 0;
  double index_bytes_per_chunk_ = 0;  // of the latest fixture
  size_t streams_ = 0;
};

void Replay::Slice(const Options& opt, const std::vector<StreamData>& data,
                   Fixture& f, const std::vector<const Op*>& ops,
                   double budget_s) {
  const Workload& w = *opt.workload;
  std::vector<Range> ranges;
  std::vector<Range> chunks;
  for (const Op* op : ops) {
    (op->write ? chunks : ranges).push_back({op->stream, op->first, op->last});
  }
  uint64_t data_end = 0;
  for (uint64_t n : f.next_chunk) data_end = std::max(data_end, n);
  crypto::DeterministicRng rng(opt.seed ^ 0x7265706c6179ULL);
  if (ranges.empty()) {
    for (int i = 0; i < 2000; ++i) {
      size_t s = rng.NextBelow(f.uuids.size());
      uint64_t len = LogUniform(rng, f.next_chunk[s] - 1);
      uint64_t a = rng.NextBelow(f.next_chunk[s] - len);
      ranges.push_back({s, a, a + len});
    }
  }
  if (chunks.empty()) {
    for (uint64_t c = 0; c < 2000; ++c) chunks.push_back({0, c, c + 1});
  }
  // Grants like the consumers': the real grant kind and range where the
  // workload's consumers hold it, else one over the data the stream holds.
  uint64_t full_end = w.consumers > 0 && w.grant_resolution == 1
                          ? opt.grant_end()
                          : data_end;
  uint64_t res_end = w.grant_resolution == kResolution
                         ? opt.grant_end()
                         : (data_end + kResolution - 1) / kResolution * kResolution;
  std::vector<client::AccessGrant> full(f.uuids.size());
  std::vector<client::AccessGrant> windows(f.uuids.size());
  std::vector<client::StreamKeys*> keys;
  for (size_t s = 0; s < f.uuids.size(); ++s) {
    keys.push_back(Check(f.owner_of[s]->KeysFor(f.uuids[s]), "keys"));
    full[s].stream_uuid = f.uuids[s];
    full[s].last_chunk = full_end;
    full[s].tree_height = keys[s]->tree_height();
    full[s].tokens = Check(keys[s]->tree().CoverRange(0, full_end), "cover");
    auto view = Check(keys[s]->Resolution(kResolution).Share(
                          0, res_end / kResolution),
                      "share");
    windows[s].stream_uuid = f.uuids[s];
    windows[s].kind = client::GrantKind::kResolution;
    windows[s].last_chunk = res_end;
    windows[s].resolution_chunks = kResolution;
    windows[s].window_upper = res_end / kResolution;
    windows[s].primary_state = view.primary_state();
    windows[s].secondary_state = view.secondary_state();
  }

  std::vector<std::pair<size_t, uint64_t>> boundaries;
  for (const Range& r : ranges) {
    boundaries.push_back({r.stream, r.first});
    boundaries.push_back({r.stream, r.last});
  }
  RoundRobin replay;
  replay.Add(boundaries, token_us_, [&](const auto& b) {
    auto tokens = Check(full[b.first].MakeTokenSet(), "token set");
    (void)Check(tokens.DeriveLeaf(b.second), "derive leaf");
  });
  replay.Add(boundaries, keyreg_us_, [&](const auto& b) {
    uint64_t window = std::min(b.second, res_end) / kResolution;
    auto view = Check(windows[b.first].MakeResolutionView(), "view");
    (void)Check(view.DeriveKey(window), "derive key");
  });

  net::StreamConfig config = VitalsStream("replay", net::CipherKind::kHeac);
  Bytes blob(kDigestBytes, 0x5a);
  std::vector<std::pair<crypto::Key128, crypto::Key128>> leaves;
  for (const Range& r : ranges) {
    leaves.push_back({keys[r.stream]->Leaf(r.first), keys[r.stream]->Leaf(r.last)});
    if (leaves.size() >= 2000) break;
  }
  replay.Add(leaves, decrypt_us_, [&](const auto& pair) {
    (void)Check(client::DecryptStatBlob(config, blob, {&pair, 1}), "decrypt");
  });

  auto cipher = index::MakeHeacCipher(kFields, keys[0]->shared_tree());
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> digests;
  for (const Range& c : chunks) {
    digests.push_back({c.first, config.schema.Compute(data[c.stream].LiveChunk(c.first))});
    if (digests.size() >= 2000) break;
  }
  replay.Add(digests, encrypt_us_, [&](const auto& d) {
    (void)Check(cipher->Encrypt(d.second, d.first), "encrypt");
  });

  std::vector<std::pair<const Range*, std::vector<index::DataPoint>>> chunk_points;
  for (const Range& c : chunks) {
    chunk_points.push_back({&c, data[c.stream].LiveChunk(c.first)});
    if (chunk_points.size() >= 500) break;
  }
  replay.Add(chunk_points, seal_us_, [&](const auto& item) {
    const Range& c = *item.first;
    chunk::ChunkBuilder builder(
        c.first, ChunkSpan(c.first, c.first + 1),
        static_cast<chunk::Compression>(config.compression));
    for (const auto& point : item.second) Check(builder.Add(point), "add");
    Bytes payload = Check(
        builder.SealPayload(keys[c.stream]->PayloadKey(c.first)), "seal");
    payload_bytes_ += static_cast<double>(payload.size());
    ++sealed_;
  });

  auto& router = f.stack->router();
  replay.Add(ranges, index_us_, [&](const Range& r) {
    uint64_t uuid = f.uuids[r.stream];
    auto tree = Check(router.shard(router.ShardOf(uuid))->GetIndexForTesting(uuid),
                      "index");
    (void)Check(tree->Query(r.first, r.last, stats_), "index query");
    ++index_queries_;
  });
  replay.Run(budget_s);
  uint64_t total_chunks = 0;
  for (uint64_t n : f.next_chunk) total_chunks += n;
  index_bytes_per_chunk_ = static_cast<double>(router.TotalIndexBytes()) /
                           static_cast<double>(std::max<uint64_t>(1, total_chunks));
  streams_ = f.uuids.size();
}

void Replay::Report(std::vector<Metric>& out) const {
  const double q = std::max<double>(1, static_cast<double>(index_queries_));
  out.push_back({"crypto.token_derive_us", Quantile(token_us_, 0.5), "us", token_us_.size()});
  out.push_back({"crypto.keyreg_derive_us", Quantile(keyreg_us_, 0.5), "us", keyreg_us_.size()});
  out.push_back({"crypto.heac_decrypt_us", Quantile(decrypt_us_, 0.5), "us", decrypt_us_.size()});
  out.push_back({"crypto.heac_encrypt_us", Quantile(encrypt_us_, 0.5), "us", encrypt_us_.size()});
  out.push_back({"chunk.seal_payload_us", Quantile(seal_us_, 0.5), "us", seal_us_.size()});
  out.push_back({"chunk.payload_bytes_per_record",
                 payload_bytes_ / std::max<double>(1, static_cast<double>(sealed_)) / kLivePoints,
                 "B", sealed_});
  out.push_back({"index.query_us", Quantile(index_us_, 0.5), "us", index_us_.size()});
  out.push_back({"index.nodes_per_query", static_cast<double>(stats_.nodes_fetched) / q,
                 "count", index_queries_});
  out.push_back({"index.adds_per_query", static_cast<double>(stats_.digest_adds) / q,
                 "count", index_queries_});
  out.push_back({"index.cache_hit_ratio",
                 static_cast<double>(stats_.cache_hits) /
                     std::max<double>(1, static_cast<double>(stats_.nodes_fetched)),
                 "frac", index_queries_});
  out.push_back({"index.bytes_per_chunk", index_bytes_per_chunk_, "B", streams_});
}

/// TimeCrypt/Plaintext cost of the owner path on two streams of identical
/// data, one HEAC and one kPlain, in alternating blocks: first ingest, then
/// stat queries over what was ingested.
std::pair<double, double> TwinPass(const Options& opt, const StreamData& data,
                                   Stack& stack) {
  client::OwnerClient owner(stack.Connect());
  const net::CipherKind kinds[2] = {net::CipherKind::kHeac,
                                    net::CipherKind::kPlain};
  uint64_t uuid[2];
  for (int k = 0; k < 2; ++k) {
    uuid[k] = Check(owner.CreateStream(VitalsStream("twin", kinds[k])), "twin");
  }
  const int blocks = 10;
  const double block_s = opt.twin_s() / 2 / blocks;
  auto alternate = [&](auto&& step) {
    double seconds[2] = {0, 0};
    uint64_t ops[2] = {0, 0};
    for (int b = 0; b < blocks; ++b) {
      for (int k = 0; k < 2; ++k) {
        int64_t start = NowNs();
        int64_t end = start + static_cast<int64_t>(block_s * 1e9);
        do {
          step(k);
          ++ops[k];
        } while (NowNs() < end);
        seconds[k] += static_cast<double>(NowNs() - start) / 1e9;
      }
    }
    return (seconds[0] / static_cast<double>(ops[0])) /
           (seconds[1] / static_cast<double>(ops[1]));
  };
  uint64_t next[2] = {0, 0};
  double ingest = alternate([&](int k) {
    uint64_t chunk = next[k]++;
    for (const auto& point : data.LiveChunk(chunk)) {
      Check(owner.InsertRecord(uuid[k], point), "twin insert");
    }
  });
  // Each stream's last chunk is still open client-side.
  const uint64_t held = std::min(next[0], next[1]) - 1;
  if (held < 1) Die("twin pass sealed no chunk");
  crypto::DeterministicRng rngs[2] = {crypto::DeterministicRng(opt.seed),
                                      crypto::DeterministicRng(opt.seed)};
  double query = alternate([&](int k) {
    uint64_t len = LogUniform(rngs[k], held);
    uint64_t a = rngs[k].NextBelow(held - len + 1);
    (void)Check(owner.GetStatRange(uuid[k], ChunkSpan(a, a + len)), "twin query");
  });
  return {ingest, query};
}

// ------------------------------------------------------------- main

void PrintJson(const Options& opt, double duration_s, size_t attempted,
               size_t failed, bool correct, double writer_lag_ms,
               double host_steal_frac, const std::vector<Metric>& metrics,
               const std::vector<double>& setups) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,\"smoke\":%s,"
              "\"seconds\":%g,\"duration_s\":%.3f,\"metrics_on\":%s,"
              "\"attempted\":%zu,\"failed\":%zu,\"correct\":%s,"
              "\"writer_lag_ms\":%.3f,\"host_steal_frac\":%.4f,"
              "\"setups_s\":[",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              opt.trace ? "true" : "false", opt.smoke ? "true" : "false",
              opt.seconds, duration_s, metrics::kEnabled ? "true" : "false",
              attempted, failed, correct ? "true" : "false", writer_lag_ms,
              host_steal_frac);
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("%s%.6f", i ? "," : "", setups[i]);
  }
  std::printf("],\"metrics\":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%zu}",
                i ? "," : "", m.name.c_str(), m.value, m.unit.c_str(), m.n);
  }
  std::printf("}}\n");
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      std::string name = value();
      for (const auto& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) Die("unknown workload " + name);
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--oracle-selftest") {
      opt.oracle_selftest = true;
    } else if (arg == "--spans") {
      opt.spans_path = value();
    } else if (arg == "--dir") {
      opt.dir = value();
    } else {
      Die("unknown argument " + arg +
          " (usage: tc_bench --workload W --seed N [--seconds S] [--trace] "
          "[--smoke] [--oracle-selftest] [--spans FILE] [--dir DIR])");
    }
  }
  if (opt.workload == nullptr) Die("--workload is required");
  if (!(opt.seconds > 0)) Die("--seconds must be positive");
  if (opt.dir.empty()) {
    std::string dir = (fs::temp_directory_path() / "tc_bench-XXXXXX").string();
    if (::mkdtemp(dir.data()) == nullptr) Die("cannot create a temporary directory");
    opt.dir = dir;
  }
  if (opt.trace && !metrics::kEnabled) {
    Die("--trace needs a TC_METRICS=ON build: the trace id rides the "
        "metrics trace context");
  }
  return opt;
}

/// Write back what set-up left dirty, so the kernel's flusher does not run
/// during the measurement.
void Settle(const fs::path& dir) {
  if (int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

std::vector<ClientThread> MakeClients(const Options& opt, Fixture& f,
                                      int fixture) {
  std::vector<ClientThread> clients(f.producers.size() + f.consumers.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    ClientThread& t = clients[i];
    t.latency_us.reserve(size_t{1} << 20);
    t.id_base = (static_cast<uint64_t>(fixture) * 16 + i + 1) << 40;
    t.rng = crypto::DeterministicRng(opt.seed * 7919 + fixture * 101 + i);
    if (i < f.producers.size()) {
      t.producer = f.producers[i].get();
      size_t per = f.uuids.size() / f.producers.size();
      for (size_t s = i * per; s < (i + 1) * per; ++s) t.streams.push_back(s);
    } else {
      t.consumer = f.consumers[i - f.producers.size()].get();
    }
  }
  return clients;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Workload& w = *opt.workload;
  const int64_t run_start = NowNs();

  std::vector<StreamData> data;
  for (int s = 0; s < w.streams; ++s) {
    data.emplace_back(opt.seed, static_cast<uint64_t>(s), opt.prefill());
  }
  if (opt.oracle_selftest) data[0].ShiftExpectedSum(0);
  std::optional<Traces> traces;
  if (opt.trace) traces.emplace(size_t{1} << 20);

  // Each fixture is set up, measured for its share of --seconds and torn
  // down. Set-up time is the median over fixtures; the traffic metrics pool
  // the ops of all fixtures. A client thread runs in one of two speed
  // regimes for up to a second at a time, and which one dominates differs
  // per fixture: a median over fixtures would jump between the regimes,
  // while pooling averages them.
  std::vector<double> setups;
  double untraced_s = 0;  // measured seconds with recording off
  double peak_rss_mb = 0;
  double threads = 0;
  double writer_lag_ms = 0;
  // Share of CPU time the hypervisor gave to other guests while traffic ran:
  // a run with more than a few percent reads slow on every timing.
  CpuTicks stolen;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<Op> traced;
  Replay replay;
  // Latencies of the untraced measured ops of all fixtures; in an untraced
  // run every op is untraced.
  std::vector<double> untraced_us;
  // Per (fixture, block pair) of a traced run: the latencies of the measured
  // ops in its [untraced, traced] block.
  std::map<std::pair<int, uint64_t>, std::array<std::vector<double>, 2>> pairs;
  std::vector<Metric> metrics;
  for (int k = 0; k < opt.fixtures(); ++k) {
    int64_t start = NowNs();
    auto fixture = SetUp(opt, data, traces ? &*traces : nullptr,
                         opt.dir / ("fixture" + std::to_string(k)));
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
    Settle(opt.dir);
    auto clients = MakeClients(opt, *fixture, k);
    CpuTicks before = ReadCpuTicks();
    // The log store keeps every value in memory, so memory grows with the
    // writes done: a run that writes reads its peak after a fixed number of
    // them, the others when the traffic stops.
    Runner runner(opt, data, *fixture, w.producers > 0 ? kRssAfterWrites : 0);
    untraced_s += runner.Run(clients, opt.seconds / opt.fixtures());
    CpuTicks after = ReadCpuTicks();
    stolen.steal += after.steal - before.steal;
    stolen.total += after.total - before.total;
    threads = StatusField("Threads:");
    if (k == 0) peak_rss_mb = runner.peak_rss_mb;

    std::vector<const Op*> fixture_traced;
    for (const auto& t : clients) {
      if (!t.first_error.empty()) {
        std::fprintf(stderr, "tc_bench: %s\n", t.first_error.c_str());
      }
      writer_lag_ms = std::max(writer_lag_ms, static_cast<double>(t.lag_ns) / 1e6);
      attempted += t.attempted;
      failed += t.failed;
      untraced_us.insert(untraced_us.end(), t.latency_us.begin(), t.latency_us.end());
      for (const Op& op : t.ops) {
        if (op.traced) fixture_traced.push_back(&op);
        if (op.write != opt.measure_writes() || !(op.traced || op.untraced)) continue;
        pairs[{k, op.pair}][op.traced].push_back(
            static_cast<double>(op.end_ns - op.start_ns) / 1e3);
      }
    }
    correct = VerifyTotals(data, opt.prefill(), *fixture) && correct;
    if (opt.trace) {
      replay.Slice(opt, data, *fixture, fixture_traced,
                   opt.replay_s() / opt.fixtures());
    }
    if (opt.trace && k + 1 == opt.fixtures()) {
      auto [ingest_ratio, query_ratio] = TwinPass(opt, data[0], *fixture->stack);
      metrics.push_back({"crypto.overhead_ratio_ingest", ingest_ratio, "ratio", 1});
      metrics.push_back({"crypto.overhead_ratio_query", query_ratio, "ratio", 1});
      replay.Report(metrics);
    }
    for (const Op* op : fixture_traced) traced.push_back(*op);
  }
  correct = correct && failed == 0 && attempted > 0;

  // Throughput and latency as a user sees them: over the whole measurement
  // of an untraced run, over the untraced blocks of a traced one.
  const size_t measured = untraced_us.size();
  metrics.push_back({"ops_per_s", static_cast<double>(measured) / untraced_s,
                     "1/s", measured});
  metrics.push_back({"op_mean_us",
                     std::accumulate(untraced_us.begin(), untraced_us.end(), 0.0) /
                         std::max<double>(1, static_cast<double>(measured)),
                     "us", measured});
  metrics.push_back({"op_p95_us", Quantile(untraced_us, 0.95), "us", measured});
  if (!opt.trace) {
    metrics.push_back({"setup_s", Quantile(setups, 0.5), "s", setups.size()});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
  } else {
    std::vector<const Op*> ops;
    for (const Op& op : traced) ops.push_back(&op);
    auto by_op = GroupSpans(ops, *traces);
    size_t unmatched = 0;
    AnalyzeTrace(ops, by_op, metrics, unmatched);
    if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, ops, by_op);
    metrics.push_back({"net.process_threads", threads, "count", 1});
    // The median over block pairs of traced ÷ untraced median latency. The
    // two blocks of a pair share the host's speed of the moment, which
    // pooling all blocks of a kind does not: on query_resolution's bimodal
    // latencies that read -24%. Block means read -16% on ingest, where one
    // log-compaction stall moves the mean of a 2,000-op block by a quarter.
    std::vector<double> ratios;
    for (const auto& [key, us] : pairs) {
      if (us[0].empty() || us[1].empty()) continue;
      ratios.push_back(Quantile(us[1], 0.5) / Quantile(us[0], 0.5));
    }
    metrics.push_back({"trace.overhead_frac", Quantile(ratios, 0.5) - 1.0, "frac",
                       ratios.size()});
    size_t dropped = traces->calls.dropped() + traces->handles.dropped() +
                     traces->stores.dropped();
    if (dropped > 0 || unmatched > 0) {
      std::fprintf(stderr,
                   "tc_bench: %zu spans dropped, %zu traced ops unmatched\n",
                   dropped, unmatched);
    }
  }
  std::error_code ignored;
  fs::remove_all(opt.dir, ignored);
  PrintJson(opt, static_cast<double>(NowNs() - run_start) / 1e9, attempted,
            failed, correct, writer_lag_ms,
            stolen.steal / std::max(1.0, stolen.total), metrics, setups);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tc::tcbench

int main(int argc, char** argv) {
  try {
    return tc::tcbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tc_bench: %s\n", e.what());
    return 2;
  }
}
