// tcserver — the TimeCrypt server daemon.
//
// Runs the (untrusted-side) server engine behind the TCP transport over a
// memory or log-structured store. With --store log the daemon is restart-
// durable: streams, indices, grants, and witness trees are recovered from
// the log on startup.
//
// With --shards N the daemon runs N independent engine shards behind a
// ShardRouter: streams are partitioned by uuid hash, single-stream
// requests route lock-free to their shard, and cluster-wide requests
// scatter-gather (§3.2 horizontal scaling, in one process). The shard
// count is persisted per store and verified on reopen — placement is a
// pure hash of (uuid, N), so restarting with a different N would orphan
// the on-disk streams, and the daemon refuses to.
//
// With --replicas R every shard ships its mutations to R follower stores
// (src/replica): read-only queries round-robin across caught-up replicas,
// and a lost primary fails over to a promoted follower — automatically
// with --auto-failover. --ack picks the ingest ack discipline (async
// fire-and-forget vs semi-sync quorum).
//
// Two daemons make a replicated pair across processes: a primary started
// with --accept-followers, and follower daemons started with
// --follower-of HOST:PORT. A follower registers over the wire, the
// primary streams it a bounded-chunk snapshot and then ships the op log,
// and when the primary's heartbeats go silent the most-caught-up follower
// promotes itself and the survivors re-home under it.
//
//   tcserver --port 4433 --store log --path /var/lib/timecrypt.log
//   tcserver --shards 4 --store log --path /var/lib/timecrypt.log --sync
//   tcserver --shards 4 --replicas 2 --ack quorum --auto-failover
//   tcserver --port 4433 --accept-followers
//   tcserver --port 4434 --follower-of 127.0.0.1:4433 --path follower.log
#include <csignal>
#include <cstdio>
#include <cstring>

#include "cluster/shard_router.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/metrics_http.hpp"
#include "net/tcp.hpp"
#include "replica/coordinator.hpp"
#include "replica/follower_daemon.hpp"
#include "replica/replica_set.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"
#include "tools/cli_common.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage() {
  std::puts(
      "tcserver — TimeCrypt server daemon\n"
      "\n"
      "flags:\n"
      "  --port N        TCP port to listen on (default 4433; 0 = ephemeral)\n"
      "  --store KIND    mem | log (default mem); mem holds every value in\n"
      "                  memory, log keeps values in the log file, so the\n"
      "                  server's memory is the log's key directory plus\n"
      "                  the index cache (--cache-mb)\n"
      "  --path FILE     log-store path (default ./timecrypt.log); with\n"
      "                  --shards N > 1, shard i logs to FILE.shard<i>;\n"
      "                  replica j of shard i logs to FILE.shard<i>.r<j>\n"
      "  --shards N      engine shards, streams partitioned by uuid hash\n"
      "                  (default 1; persisted per store and verified on\n"
      "                  reopen — a mismatch refuses to start)\n"
      "  --replicas R    follower stores per shard (default 0): mutations\n"
      "                  ship to them, read-only queries scatter across\n"
      "                  them, failover promotes one\n"
      "  --ack MODE      async | quorum (default async): return from a\n"
      "                  write when the primary applied it, or only after\n"
      "                  a majority of the replica group holds it\n"
      "  --read-lag N    serve a read from a replica lagging at most N ops\n"
      "                  behind the primary (default 0 = fully caught up;\n"
      "                  requires --replicas)\n"
      "  --sync          flush the log store after every ingest message\n"
      "                  (batches group-commit into one flush)\n"
      "  --compact-pct P auto-compact a shard's log when dead bytes exceed\n"
      "                  P%% of it (default 50; 0 disables)\n"
      "  --cache-mb N    index cache budget per stream in MiB (default 256)\n"
      "  --max-frame-mb N  reject request frames whose body exceeds N MiB\n"
      "                  with a clean error (default 512; the frame length\n"
      "                  is attacker-controlled and must not drive "
      "allocation)\n"
      "  --metrics-port N  serve GET /metrics (Prometheus text format) on\n"
      "                  loopback port N (0 = ephemeral; off by default)\n"
      "  --slow-op-ms N  log a structured slow-op line (trace id + stage\n"
      "                  breakdown) for any request slower than N ms\n"
      "                  (default 0 = disabled)\n"
      "  --trace-sample P  head-based span sampling: record spans for P%% of\n"
      "                  traces (default 100; the hash of the trace id\n"
      "                  decides, so every process keeps or drops the same\n"
      "                  traces; slow ops are always retained)\n"
      "  --event-log FILE  mirror the in-memory cluster event journal to\n"
      "                  FILE as JSON lines (append mode)\n"
      "\n"
      "daemon replication topology:\n"
      "  --accept-followers   accept kReplicaHello registrations: follower\n"
      "                       daemons attach over TCP, get streamed a\n"
      "                       bounded-chunk snapshot, then follow the op log\n"
      "  --follower-of H:P    run as a follower daemon of the primary at\n"
      "                       host H port P (same --shards and --store\n"
      "                       family; --path must not collide with the\n"
      "                       primary's). Serves read-only queries locally;\n"
      "                       promotes itself if the primary goes silent\n"
      "  --advertise HOST     address the primary dials back (default\n"
      "                       127.0.0.1)\n"
      "  --auto-failover      primary mode: probe the primary store every\n"
      "                       heartbeat and auto-promote a local replica\n"
      "                       after --miss-threshold failed probes\n"
      "  --heartbeat-ms N     heartbeat / probe cadence (default 500)\n"
      "  --miss-threshold N   probes missed before auto-failover (default 3)\n"
      "  --takeover-ms N      follower mode: silence window before the\n"
      "                       takeover election (default 3000)\n"
      "  --snapshot-chunk-kb N  snapshot stream chunk bound (default 1024)\n"
      "  --no-auto-promote    follower mode: never self-promote (passive\n"
      "                       replica)\n");
}

bool FlagKnown(const std::string& name) {
  static const char* kKnown[] = {
      "help",          "port",         "store",          "path",
      "shards",        "replicas",     "ack",            "read-lag",
      "sync",          "compact-pct",  "cache-mb",       "max-frame-mb",
      "accept-followers",
      "follower-of",   "advertise",    "auto-failover",  "heartbeat-ms",
      "miss-threshold", "takeover-ms", "snapshot-chunk-kb",
      "no-auto-promote", "metrics-port", "slow-op-ms",
      "trace-sample",  "event-log"};
  for (const char* known : kKnown) {
    if (name == known) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tc;
  tools::Flags flags(argc, argv,
                     {"help", "sync", "accept-followers", "auto-failover",
                      "no-auto-promote"});
  if (flags.Has("help")) {
    Usage();
    return 0;
  }
  for (const auto& name : flags.Names()) {
    if (!FlagKnown(name)) {
      std::fprintf(stderr,
                   "unknown flag --%s (see tcserver --help)\n", name.c_str());
      return 1;
    }
  }

  const bool follower_mode = flags.Has("follower-of");
  int64_t shards = tools::RequireInt(flags, "shards", 1);
  if (shards < 1 || shards > 1024) {
    std::fprintf(stderr, "--shards must be in [1, 1024]\n");
    return 1;
  }
  int64_t replicas = tools::RequireInt(flags, "replicas", 0);
  if (replicas < 0 || replicas > 8) {
    std::fprintf(stderr, "--replicas must be in [0, 8]\n");
    return 1;
  }
  int64_t read_lag = tools::RequireInt(flags, "read-lag", 0);
  if (read_lag < 0) {
    std::fprintf(stderr, "--read-lag must be >= 0\n");
    return 1;
  }
  std::string ack_name = flags.Get("ack", "async");
  replica::AckMode ack;
  if (ack_name == "async") {
    ack = replica::AckMode::kAsync;
  } else if (ack_name == "quorum") {
    ack = replica::AckMode::kQuorum;
  } else {
    std::fprintf(stderr, "--ack must be async or quorum (got '%s')\n",
                 ack_name.c_str());
    return 1;
  }
  const bool accept_followers = flags.Has("accept-followers");
  if (!follower_mode) {
    // Replication knobs that silently do nothing are operator traps:
    // refuse them instead of defaulting. (In follower mode --ack and
    // --read-lag configure the daemon's post-promotion serving stack.)
    if (flags.Has("read-lag") && replicas == 0) {
      std::fprintf(stderr,
                   "--read-lag without --replicas does nothing: reads have "
                   "no replica to lag behind\n");
      return 1;
    }
    if (flags.Has("ack") && replicas == 0 && !accept_followers) {
      std::fprintf(stderr,
                   "--ack without --replicas or --accept-followers does "
                   "nothing: there is no follower to ack\n");
      return 1;
    }
    if (flags.Has("takeover-ms") || flags.Has("no-auto-promote")) {
      std::fprintf(stderr,
                   "--takeover-ms/--no-auto-promote are follower-daemon "
                   "flags (--follower-of)\n");
      return 1;
    }
  } else {
    if (replicas != 0 || accept_followers || flags.Has("auto-failover")) {
      std::fprintf(stderr,
                   "--follower-of is exclusive with --replicas/"
                   "--accept-followers/--auto-failover: a follower daemon "
                   "replicates, it is not replicated\n");
      return 1;
    }
  }
  std::string store_kind = flags.Get("store", "mem");
  if (store_kind != "mem" && store_kind != "log") {
    std::fprintf(stderr, "--store must be mem or log (got '%s')\n",
                 store_kind.c_str());
    return 1;
  }
  store::LogKvOptions log_options;
  log_options.compact_dead_fraction =
      static_cast<double>(tools::RequireInt(flags, "compact-pct", 50)) / 100.0;

  server::ServerOptions options;
  options.index_cache_bytes =
      static_cast<size_t>(tools::RequireInt(flags, "cache-mb", 256)) << 20;
  options.sync_each_insert = flags.Has("sync");

  int64_t heartbeat_ms = tools::RequireInt(flags, "heartbeat-ms", 500);
  int64_t miss_threshold = tools::RequireInt(flags, "miss-threshold", 3);
  int64_t takeover_ms = tools::RequireInt(flags, "takeover-ms", 3000);
  int64_t chunk_kb = tools::RequireInt(flags, "snapshot-chunk-kb", 1024);
  if (heartbeat_ms < 1 || miss_threshold < 1 || takeover_ms < 1 ||
      chunk_kb < 1) {
    std::fprintf(stderr,
                 "--heartbeat-ms/--miss-threshold/--takeover-ms/"
                 "--snapshot-chunk-kb must be positive\n");
    return 1;
  }
  if (!follower_mode && flags.Has("auto-failover") && replicas == 0) {
    // Auto-failover promotes a LOCAL replica; with none configured the
    // monitor would have nothing to promote onto — refuse instead of
    // letting the operator believe failure detection is armed.
    std::fprintf(stderr,
                 "--auto-failover needs --replicas >= 1: automatic "
                 "promotion elects a local replica (follower daemons run "
                 "their own takeover election)\n");
    return 1;
  }
  if (flags.Has("miss-threshold") && !flags.Has("auto-failover")) {
    std::fprintf(stderr,
                 "--miss-threshold without --auto-failover does nothing\n");
    return 1;
  }
  if (flags.Has("heartbeat-ms") && !flags.Has("auto-failover") &&
      !accept_followers && !follower_mode) {
    std::fprintf(stderr,
                 "--heartbeat-ms without --auto-failover, "
                 "--accept-followers, or --follower-of does nothing\n");
    return 1;
  }
  if (flags.Has("snapshot-chunk-kb") && replicas == 0 && !accept_followers &&
      !follower_mode) {
    std::fprintf(stderr,
                 "--snapshot-chunk-kb without --replicas, "
                 "--accept-followers, or --follower-of does nothing: no "
                 "snapshot ever streams\n");
    return 1;
  }
  if (flags.Has("advertise") && !follower_mode) {
    std::fprintf(stderr,
                 "--advertise is a follower-daemon flag (--follower-of): it "
                 "names the endpoint the primary dials back\n");
    return 1;
  }
  int64_t max_frame_mb = tools::RequireInt(flags, "max-frame-mb", 512);
  if (max_frame_mb < 1 || max_frame_mb > 4095) {
    // 4095 MiB is the u32 body_len ceiling; bigger values could never be
    // framed anyway.
    std::fprintf(stderr, "--max-frame-mb must be in [1, 4095]\n");
    return 1;
  }
  auto port_flag = tools::ParsePort(flags.Get("port", "4433"));
  if (!port_flag.ok()) {
    std::fprintf(stderr, "--port: %s\n",
                 port_flag.status().message().c_str());
    return 1;
  }
  uint16_t port = *port_flag;

  const bool metrics_enabled = flags.Has("metrics-port");
  auto metrics_port = tools::ParsePort(flags.Get("metrics-port", "0"));
  if (!metrics_port.ok()) {
    std::fprintf(stderr, "--metrics-port: %s\n",
                 metrics_port.status().message().c_str());
    return 1;
  }
  int64_t slow_op_ms = tools::RequireInt(flags, "slow-op-ms", 0);
  if (slow_op_ms < 0) {
    std::fprintf(stderr, "--slow-op-ms must be >= 0\n");
    return 1;
  }
  int64_t trace_sample = tools::RequireInt(flags, "trace-sample", 100);
  if (trace_sample < 0 || trace_sample > 100) {
    std::fprintf(stderr, "--trace-sample must be in [0, 100]\n");
    return 1;
  }
  metrics::MetricsRegistry::Instance().SetSlowOpMicros(
      static_cast<uint64_t>(slow_op_ms) * 1000);
  trace::SetSamplePercent(static_cast<uint32_t>(trace_sample));
  if (flags.Has("event-log")) {
    if (auto opened =
            trace::EventJournal::Instance().OpenLogFile(flags.Get("event-log"));
        !opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.ToString().c_str());
      return 1;
    }
  }

  // Started (in either mode) once the serving stack exists, so the scrape
  // hook can capture it.
  std::unique_ptr<net::MetricsHttpServer> metrics_http;
  auto start_metrics = [&](std::function<void()> pre_collect) -> bool {
    if (!metrics_enabled) return true;
    metrics_http = std::make_unique<net::MetricsHttpServer>(
        *metrics_port, std::move(pre_collect));
    if (auto started = metrics_http->Start(); !started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return false;
    }
    std::printf("metrics on http://127.0.0.1:%u/metrics\n",
                metrics_http->port());
    return true;
  };

  // One KV namespace per shard: prefix views over a shared memory store,
  // or one log file per shard for durable mode (independent append paths —
  // the cluster's ingest scaling lever). Follower stores get their own
  // namespaces/files next to their shard's.
  std::shared_ptr<store::MemKvStore> mem_backend;
  auto make_store = [&](const std::string& ns,
                        const std::string& file_suffix)
      -> std::shared_ptr<store::KvStore> {
    if (store_kind == "mem") {
      if (shards == 1 && replicas == 0 && !accept_followers &&
          !follower_mode) {
        return std::make_shared<store::MemKvStore>();
      }
      if (!mem_backend) mem_backend = std::make_shared<store::MemKvStore>();
      return std::make_shared<store::PrefixKvStore>(mem_backend, ns);
    }
    std::string path = flags.Get("path", "timecrypt.log") + file_suffix;
    auto log = store::LogKvStore::Open(path, log_options);
    if (!log.ok()) tools::Die(log.status());
    return std::move(*log);
  };

  replica::ReplicaSetOptions set_options;
  set_options.kv.ack = ack;
  set_options.kv.snapshot_chunk_bytes = static_cast<size_t>(chunk_kb) << 10;
  set_options.max_read_lag_ops = static_cast<uint64_t>(read_lag);
  set_options.failover.auto_failover = flags.Has("auto-failover");
  set_options.failover.heartbeat_interval_ms = heartbeat_ms;
  set_options.failover.miss_threshold = static_cast<uint32_t>(miss_threshold);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  if (follower_mode) {
    std::string target = flags.Get("follower-of");
    auto primary = tools::ParseHostPort(target);
    if (!primary.ok()) {
      std::fprintf(stderr, "--follower-of: %s\n",
                   primary.status().message().c_str());
      return 1;
    }
    replica::FollowerDaemonOptions daemon_options;
    daemon_options.primary_host = primary->host;
    daemon_options.primary_port = primary->port;
    daemon_options.advertise_host = flags.Get("advertise", "127.0.0.1");
    daemon_options.takeover_timeout_ms = takeover_ms;
    daemon_options.auto_promote = !flags.Has("no-auto-promote");
    daemon_options.engine_options = options;
    daemon_options.set_options = set_options;
    daemon_options.coordinator.heartbeat_ms =
        static_cast<uint32_t>(heartbeat_ms);

    std::vector<std::shared_ptr<store::KvStore>> stores;
    for (int64_t i = 0; i < shards; ++i) {
      stores.push_back(make_store(
          "s" + std::to_string(i) + "/",
          shards > 1 ? ".shard" + std::to_string(i) : std::string{}));
    }
    replica::FollowerDaemon daemon(std::move(stores), daemon_options);
    if (auto started = daemon.Start(port); !started.ok()) {
      tools::Die(started);
    }
    // Follower scrapes expose the net/apply-path registry; engine gauges
    // refresh through the read path, so no pre-collect hook is needed.
    if (!start_metrics(nullptr)) {
      daemon.Stop();
      return 1;
    }
    std::printf(
        "tcserver follower daemon on %s:%u following %s (store: %s, "
        "shards: %lld, %zu stream(s) recovered)\n",
        daemon_options.advertise_host.c_str(), daemon.port(), target.c_str(),
        store_kind.c_str(), static_cast<long long>(shards),
        daemon.NumStreams());
    std::fflush(stdout);
    bool was_promoted = false;
    while (!g_stop) {
      timespec ts{0, 100'000'000};
      nanosleep(&ts, nullptr);
      if (!was_promoted && daemon.promoted()) {
        was_promoted = true;
        std::printf("promoted: now serving as primary (%zu stream(s))\n",
                    daemon.NumStreams());
        std::fflush(stdout);
      }
    }
    std::puts("shutting down");
    daemon.Stop();
    return 0;
  }

  std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
  for (int64_t i = 0; i < shards; ++i) {
    std::string shard_suffix =
        shards > 1 ? ".shard" + std::to_string(i) : std::string{};
    auto primary_kv =
        make_store("s" + std::to_string(i) + "/", shard_suffix);
    // Fail fast on a reused store laid out for a different shard count —
    // silent re-homing would serve none of the recovered streams.
    if (auto bound = cluster::BindShardMeta(*primary_kv,
                                            static_cast<uint32_t>(i),
                                            static_cast<uint32_t>(shards));
        !bound.ok()) {
      tools::Die(bound);
    }

    server::ServerOptions shard_options = options;
    shard_options.shard_id = static_cast<uint32_t>(i);
    if (replicas == 0 && !accept_followers) {
      sets.push_back(replica::ReplicaSet::Single(
          std::make_shared<server::ServerEngine>(std::move(primary_kv),
                                                 shard_options)));
      continue;
    }
    std::vector<std::shared_ptr<store::KvStore>> follower_kvs;
    for (int64_t j = 0; j < replicas; ++j) {
      follower_kvs.push_back(
          make_store("s" + std::to_string(i) + "r" + std::to_string(j) + "/",
                     shard_suffix + ".r" + std::to_string(j)));
    }
    sets.push_back(replica::ReplicaSet::Make(std::move(primary_kv),
                                             std::move(follower_kvs),
                                             shard_options, set_options));
  }

  size_t recovered = 0;
  for (const auto& set : sets) recovered += set->NumStreams();
  if (recovered > 0) {
    std::printf("recovered %zu stream(s) from %s store across %lld shard(s)\n",
                recovered, store_kind.c_str(),
                static_cast<long long>(shards));
  }

  std::shared_ptr<net::RequestHandler> handler;
  if (shards == 1 && replicas == 0 && !accept_followers) {
    handler = sets[0]->primary();
  } else {
    handler = std::make_shared<cluster::ShardRouter>(sets);
  }
  std::shared_ptr<replica::PrimaryCoordinator> coordinator;
  if (accept_followers) {
    replica::CoordinatorOptions coordinator_options;
    coordinator_options.heartbeat_ms = static_cast<uint32_t>(heartbeat_ms);
    coordinator = std::make_shared<replica::PrimaryCoordinator>(
        handler, sets, coordinator_options);
    handler = coordinator;
  }

  // Accepting remote follower daemons implies peers on other machines may
  // need to reach this server; otherwise stay loopback-only as always.
  net::TcpServerOptions server_options;
  server_options.bind_any = accept_followers;
  server_options.max_frame_body = static_cast<size_t>(max_frame_mb) << 20;
  net::TcpServer server(handler, port, server_options);
  if (auto started = server.Start(); !started.ok()) tools::Die(started);
  if (!start_metrics([sets] {
        // Refresh engine-derived gauges (stream counts, lag, store
        // pressure) so a scrape never reads stale shard state.
        for (size_t i = 0; i < sets.size(); ++i) {
          sets[i]->ShardInfoSnapshot(static_cast<uint32_t>(i));
        }
      })) {
    server.Stop();
    return 1;
  }
  std::string notes;
  if (replicas > 0 || accept_followers) notes += ", ack: " + ack_name;
  if (accept_followers) notes += ", accepting followers";
  if (set_options.failover.auto_failover) notes += ", auto-failover";
  std::printf(
      "tcserver listening on %s:%u (store: %s, shards: %lld, "
      "replicas: %lld%s)\n",
      accept_followers ? "0.0.0.0" : "127.0.0.1", server.port(),
      store_kind.c_str(), static_cast<long long>(shards),
      static_cast<long long>(replicas), notes.c_str());
  std::fflush(stdout);

  while (!g_stop) {
    // The accept loop runs on its own thread; just wait for a signal.
    timespec ts{0, 100'000'000};
    nanosleep(&ts, nullptr);
  }
  std::puts("shutting down");
  server.Stop();
  return 0;
}
