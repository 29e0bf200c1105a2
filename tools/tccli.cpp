// tccli — the TimeCrypt command-line client.
//
// Exercises the full Table 1 API against a running tcserver. All key
// material stays client-side: producer master seeds live in per-stream
// state files under --state-dir, consumer identities in identity.key —
// the server only ever sees ciphertext.
//
//   tccli create --name heart_rate --delta-ms 10000 --hist 16:0:10
//   cat points.csv | tccli insert --uuid 123456
//   tccli stats --uuid 123456 --start 0 --end 3600000
//   tccli keygen                       # consumer identity (prints pub key)
//   tccli grant --uuid 123456 --principal doctor --pub <hex> \
//         --start 0 --end 3600000 --resolution 6
//   tccli consume --uuid 123456 --principal doctor --start 0 --end 3600000
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "net/tcp.hpp"
#include "tools/cli_common.hpp"

namespace tc::tools {
namespace {

void Usage() {
  std::puts(
      "tccli — TimeCrypt client\n"
      "\n"
      "common flags: --host H (127.0.0.1)  --port N (4433)  --state-dir D "
      "(.tccli)\n"
      "\n"
      "commands:\n"
      "  create   --name S --delta-ms N [--sumsq] [--trend UNIT_MS]\n"
      "           [--hist BINS:MIN:WIDTH] [--fanout K] [--integrity]\n"
      "           create a stream; prints its uuid, saves the key state\n"
      "  insert   --uuid U [--file F] [--batch N]\n"
      "           read 'timestamp_ms,value' lines (default stdin), chunk +\n"
      "           encrypt + upload; --batch N groups N sealed chunks per\n"
      "           InsertChunkBatch frame\n"
      "  stats    --uuid U --start MS --end MS [--granularity CHUNKS]\n"
      "           statistical range query (owner keys)\n"
      "  range    --uuid U --start MS --end MS    raw decrypted points\n"
      "  info     --uuid U               server-side stream info\n"
      "  cluster-info                    per-shard stream counts, index "
      "bytes,\n"
      "                                  and replication health\n"
      "  replica-info                    per-shard replica count, ack mode, "
      "max\n"
      "                                  replica lag in log bytes, and full\n"
      "                                  log copies\n"
      "  metrics  [--watch SEC]          server metrics registry (counters,\n"
      "                                  gauges, latency quantiles);\n"
      "                                  --watch re-polls every SEC seconds\n"
      "  trace    ID [--peers H:P,...]   reassemble one request's span tree\n"
      "                                  (ID as printed by traces, hex); "
      "--peers\n"
      "                                  stitches in follower-daemon "
      "processes\n"
      "  traces   [--slow] [--peers ...] recent traces, newest first;\n"
      "                                  --slow lists only slow-op traces\n"
      "  events   [--min-seq N] [--peers H:P,...]\n"
      "                                  cluster lifecycle event journal\n"
      "                                  (elections, log copies, view "
      "changes)\n"
      "  attest   --uuid U               sign + publish the stream head\n"
      "  verify   --uuid U --start MS --end MS    verified stat query\n"
      "  keygen                          consumer identity; prints public "
      "key\n"
      "  grant    --uuid U --principal ID --pub HEX --start MS --end MS\n"
      "           [--resolution CHUNKS]\n"
      "  revoke   --uuid U --principal ID [--end MS]\n"
      "  consume  --uuid U --principal ID --start MS --end MS\n"
      "           fetch grants and run a stat query as that principal\n");
}

/// --port (default 4433). Exits with a usage error when it is not a port.
uint16_t PortFlag(const Flags& flags) {
  auto port = ParsePort(flags.Get("port", "4433"));
  if (!port.ok()) Die(InvalidArgument("--port: " + port.status().message()));
  return *port;
}

/// Connect to --host/--port. Exits on error.
std::shared_ptr<net::Transport> Connect(const Flags& flags) {
  auto client = net::TcpClient::Connect(flags.Get("host", "127.0.0.1"),
                                        PortFlag(flags));
  if (!client.ok()) Die(client.status());
  return std::shared_ptr<net::Transport>(std::move(*client));
}

/// An owner client with the state dir's persistent signing identity, so
/// attestations verify across invocations. Exits on error.
std::unique_ptr<client::OwnerClient> MakeOwner(
    const Flags& flags, const std::string& state_dir,
    uint64_t upload_batch_chunks = 1) {
  auto transport = Connect(flags);
  auto signing = LoadOrCreateSigning(state_dir);
  if (!signing.ok()) Die(signing.status());
  client::OwnerOptions options;
  options.signing = *signing;
  options.upload_batch_chunks = upload_batch_chunks;
  return std::make_unique<client::OwnerClient>(transport, options);
}

/// MakeOwner, re-attached to --uuid's stream from its state file.
std::pair<std::unique_ptr<client::OwnerClient>, uint64_t> AttachOwner(
    const Flags& flags, const std::string& state_dir,
    uint64_t upload_batch_chunks = 1) {
  auto owner = MakeOwner(flags, state_dir, upload_batch_chunks);
  uint64_t uuid = flags.GetUint("uuid", 0);
  if (uuid == 0) Die(InvalidArgument("--uuid is required"));
  auto state = LoadStreamState(state_dir, uuid);
  if (!state.ok()) Die(state.status());
  CheckOk(owner->AttachStream(uuid, state->master_seed));
  return {std::move(owner), uuid};
}

int CmdCreate(const Flags& flags, const std::string& state_dir) {
  auto owner = MakeOwner(flags, state_dir);

  net::StreamConfig config;
  config.name = flags.Get("name", "stream");
  config.delta_ms = flags.GetInt("delta-ms", 10'000);
  config.t0 = flags.GetInt("t0", 0);
  config.fanout = static_cast<uint32_t>(flags.GetInt("fanout", 64));
  config.integrity = flags.Has("integrity");
  config.schema.with_sum = true;
  config.schema.with_count = true;
  config.schema.with_sumsq = flags.Has("sumsq");
  if (flags.Has("trend")) {
    config.schema.with_trend = true;
    config.schema.trend_t0 = config.t0;
    config.schema.trend_unit_ms = flags.GetInt("trend", 60'000);
  }
  if (flags.Has("hist")) {
    // BINS:MIN:WIDTH
    std::istringstream spec(flags.Get("hist"));
    std::string bins, min, width;
    std::getline(spec, bins, ':');
    std::getline(spec, min, ':');
    std::getline(spec, width, ':');
    config.schema.hist_bins =
        static_cast<uint32_t>(std::strtoul(bins.c_str(), nullptr, 10));
    config.schema.hist_min = std::strtoll(min.c_str(), nullptr, 10);
    config.schema.hist_width = std::strtoll(width.c_str(), nullptr, 10);
    if (config.schema.hist_width <= 0) config.schema.hist_width = 1;
  }

  auto uuid = owner->CreateStream(config);
  if (!uuid.ok()) Die(uuid.status());
  auto keys = owner->KeysFor(*uuid);
  if (!keys.ok()) Die(keys.status());
  CheckOk(SaveStreamState(state_dir,
                          StreamState{*uuid, (*keys)->master_seed(), config}));
  std::printf("created stream %" PRIu64 " (%s), key state saved in %s\n",
              *uuid, config.name.c_str(), state_dir.c_str());
  return 0;
}

int CmdInsert(const Flags& flags, const std::string& state_dir) {
  int64_t batch = flags.GetInt("batch", 1);
  if (batch < 1) Die(InvalidArgument("--batch must be >= 1"));
  auto [owner, uuid] =
      AttachOwner(flags, state_dir, static_cast<uint64_t>(batch));

  std::ifstream file;
  std::istream* in = &std::cin;
  if (flags.Has("file")) {
    file.open(flags.Get("file"));
    if (!file) Die(Unavailable("cannot open " + flags.Get("file")));
    in = &file;
  }

  uint64_t inserted = 0;
  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto comma = line.find(',');
    if (comma == std::string::npos) {
      Die(InvalidArgument("expected 'timestamp_ms,value': " + line));
    }
    index::DataPoint p{std::strtoll(line.c_str(), nullptr, 10),
                       std::strtoll(line.c_str() + comma + 1, nullptr, 10)};
    CheckOk(owner->InsertRecord(uuid, p));
    ++inserted;
  }
  CheckOk(owner->Flush(uuid));
  std::printf("inserted %" PRIu64 " point(s) into stream %" PRIu64 "\n",
              inserted, uuid);
  return 0;
}

void PrintStats(const client::StatResult& r) {
  std::printf("chunks [%" PRIu64 ", %" PRIu64 ")\n", r.first_chunk,
              r.last_chunk);
  if (auto sum = r.stats.Sum(); sum.ok()) {
    std::printf("  sum      %" PRId64 "\n", *sum);
  }
  if (auto count = r.stats.Count(); count.ok()) {
    std::printf("  count    %" PRIu64 "\n", *count);
  }
  if (auto mean = r.stats.Mean(); mean.ok()) {
    std::printf("  mean     %.4f\n", *mean);
  }
  if (auto var = r.stats.Variance(); var.ok()) {
    std::printf("  var      %.4f\n", *var);
    std::printf("  stddev   %.4f\n", r.stats.StdDev().value());
  }
  if (auto slope = r.stats.TrendSlope(); slope.ok()) {
    std::printf("  trend    %.6f per unit (intercept %.4f)\n", *slope,
                r.stats.TrendIntercept().value());
  }
  if (auto lo = r.stats.MinBinLow(); lo.ok()) {
    std::printf("  min-bin  >= %" PRId64 "\n", *lo);
    std::printf("  max-bin  <  %" PRId64 "\n", r.stats.MaxBinHigh().value());
  }
}

int CmdStats(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  TimeRange range{flags.GetInt("start", 0), flags.GetInt("end", 0)};
  if (flags.Has("granularity")) {
    auto series = owner->GetStatSeries(
        uuid, range, static_cast<uint64_t>(flags.GetInt("granularity", 1)));
    if (!series.ok()) Die(series.status());
    for (const auto& window : *series) PrintStats(window);
  } else {
    auto result = owner->GetStatRange(uuid, range);
    if (!result.ok()) Die(result.status());
    PrintStats(*result);
  }
  return 0;
}

int CmdRange(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  auto points = owner->GetRange(
      uuid, {flags.GetInt("start", 0), flags.GetInt("end", 0)});
  if (!points.ok()) Die(points.status());
  for (const auto& p : *points) {
    std::printf("%" PRId64 ",%" PRId64 "\n", p.timestamp_ms, p.value);
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  auto transport = Connect(flags);
  auto info = client::FetchStreamInfo(*transport, flags.GetUint("uuid", 0));
  if (!info.ok()) Die(info.status());
  std::printf(
      "name        %s\n"
      "delta_ms    %" PRId64 "\n"
      "chunks      %" PRIu64 "\n"
      "fields      %zu\n"
      "cipher      %s\n"
      "integrity   %s\n",
      info->config.name.c_str(), info->config.delta_ms, info->num_chunks,
      info->config.schema.num_fields(),
      std::string(net::CipherKindName(info->config.cipher)).c_str(),
      info->config.integrity ? "yes" : "no");
  return 0;
}

const char* AckName(uint8_t ack_mode, uint32_t replicas) {
  if (replicas == 0) return "-";
  return ack_mode == net::ClusterInfoResponse::kAckQuorum ? "quorum" : "async";
}

int CmdClusterInfo(const Flags& flags) {
  auto transport = Connect(flags);
  auto payload = transport->Call(net::MessageType::kClusterInfo, {});
  if (!payload.ok()) Die(payload.status());
  auto info = net::ClusterInfoResponse::Decode(*payload);
  if (!info.ok()) Die(info.status());
  uint64_t total_streams = 0, total_bytes = 0, total_dead = 0;
  uint64_t total_compactions = 0;
  std::puts(
      "shard   streams   index-bytes  replicas  ack     lag-bytes   "
      "dead-bytes  compactions");
  for (const auto& s : info->shards) {
    std::printf("%5u %9" PRIu64 " %13" PRIu64 " %9u  %-6s %10" PRIu64
                " %12" PRIu64 " %12u\n",
                s.shard, s.num_streams, s.index_bytes, s.replicas,
                AckName(s.ack_mode, s.replicas), s.max_lag_bytes,
                s.store_dead_bytes, s.store_compactions);
    total_streams += s.num_streams;
    total_bytes += s.index_bytes;
    total_dead += s.store_dead_bytes;
    total_compactions += s.store_compactions;
  }
  std::printf("total %9" PRIu64 " %13" PRIu64 " %28" PRIu64 " %12" PRIu64
              "  (%zu shard(s))\n",
              total_streams, total_bytes, total_dead, total_compactions,
              info->shards.size());
  return 0;
}

int CmdReplicaInfo(const Flags& flags) {
  auto transport = Connect(flags);
  auto payload = transport->Call(net::MessageType::kClusterInfo, {});
  if (!payload.ok()) Die(payload.status());
  auto info = net::ClusterInfoResponse::Decode(*payload);
  if (!info.ok()) {
    // A raw decode error here means a protocol mismatch, not a user
    // mistake — say so instead of dumping "truncated input".
    std::fprintf(stderr,
                 "error: the server answered cluster-info with a frame this "
                 "tccli cannot decode — tcserver and tccli versions likely "
                 "differ (%s)\n",
                 info.status().ToString().c_str());
    return 1;
  }
  uint32_t replicated_shards = 0;
  uint64_t worst_lag = 0;
  std::puts(
      "shard  replicas  remote  ack     max-lag-bytes  full-copies  "
      "promotions  auto-failover");
  for (const auto& s : info->shards) {
    uint32_t followers = s.replicas + s.remote_followers;
    std::printf("%5u %9u %7u  %-6s %14" PRIu64 " %12" PRIu64
                " %11u  %13s\n",
                s.shard, s.replicas, s.remote_followers,
                AckName(s.ack_mode, followers), s.max_lag_bytes,
                s.full_copies, s.promotions, s.auto_failover ? "on" : "off");
    if (followers > 0) ++replicated_shards;
    if (s.max_lag_bytes > worst_lag) worst_lag = s.max_lag_bytes;
  }
  if (replicated_shards == 0) {
    std::puts(
        "this server runs without replication — no local replicas and no "
        "registered follower daemons\n(start tcserver with --replicas N, or "
        "with --accept-followers plus `tcserver --follower-of` peers)");
    return 0;
  }
  std::printf("%u of %zu shard(s) replicated, worst lag %" PRIu64
              " byte(s)\n",
              replicated_shards, info->shards.size(), worst_lag);
  return 0;
}

void PrintMetrics(const net::MetricsInfoResponse& info) {
  // Latency histograms are recorded in microseconds; the "_seconds" name
  // (Prometheus convention) is rescaled at exposition time, so quantiles
  // here print as µs — the unit an operator reasons about for a request.
  for (const auto& e : info.entries) {
    std::string name = e.name;
    if (!e.labels.empty()) name += "{" + e.labels + "}";
    if (e.kind == net::MetricsInfoResponse::kHistogram) {
      std::printf("%-58s count=%" PRIu64 " p50=%" PRIu64 "us p95=%" PRIu64
                  "us p99=%" PRIu64 "us max=%" PRIu64 "us\n",
                  name.c_str(), e.count, e.p50, e.p95, e.p99, e.max);
    } else {
      std::printf("%-58s %" PRId64 "\n", name.c_str(), e.value);
    }
  }
}

int CmdMetrics(const Flags& flags) {
  auto transport = Connect(flags);
  int64_t watch_sec = flags.GetInt("watch", 0);
  if (watch_sec < 0) {
    std::fprintf(stderr, "--watch must be >= 0 seconds\n");
    return 1;
  }
  for (;;) {
    auto payload = transport->Call(net::MessageType::kMetricsInfo, {});
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        // Old servers answer any unknown frame type this way; say what it
        // means instead of echoing "unknown message type" at the operator.
        std::fprintf(stderr,
                     "error: this server does not answer metrics requests — "
                     "it predates the kMetricsInfo protocol extension "
                     "(upgrade tcserver, or scrape --metrics-port if its "
                     "build has one)\n");
        return 1;
      }
      Die(payload.status());
    }
    auto info = net::MetricsInfoResponse::Decode(*payload);
    if (!info.ok()) {
      std::fprintf(stderr,
                   "error: the server answered metrics with a frame this "
                   "tccli cannot decode — tcserver and tccli versions likely "
                   "differ (%s)\n",
                   info.status().ToString().c_str());
      return 1;
    }
    if (info->entries.empty()) {
      std::puts("no metrics recorded (no requests served yet)");
    } else {
      PrintMetrics(*info);
    }
    if (watch_sec == 0) return 0;
    std::printf("--- (refreshing every %llds; ^C to stop)\n",
                static_cast<long long>(watch_sec));
    std::fflush(stdout);
    timespec ts{static_cast<time_t>(watch_sec), 0};
    nanosleep(&ts, nullptr);
  }
}

/// One dialed trace/event source: the main server plus every --peers
/// endpoint (follower daemons are separate processes with their own span
/// ring and journal, so stitching a cluster-wide view means asking each).
struct TraceSource {
  std::string label;
  std::shared_ptr<net::Transport> transport;
};

Result<std::vector<TraceSource>> ConnectSources(const Flags& flags) {
  // Every peer is parsed before anything is dialed.
  std::vector<HostPort> peers;
  std::istringstream list(flags.Get("peers", ""));
  std::string peer;
  while (std::getline(list, peer, ',')) {
    if (peer.empty()) continue;
    auto parsed = ParseHostPort(peer);
    if (!parsed.ok()) {
      return InvalidArgument("--peers: " + parsed.status().message());
    }
    peers.push_back(std::move(*parsed));
  }
  std::vector<TraceSource> sources;
  sources.push_back({flags.Get("host", "127.0.0.1") + ":" +
                         std::to_string(PortFlag(flags)),
                     Connect(flags)});
  for (const HostPort& p : peers) {
    auto client = net::TcpClient::Connect(p.host, p.port);
    TC_RETURN_IF_ERROR(client.status());
    sources.push_back({p.host + ":" + std::to_string(p.port),
                       std::shared_ptr<net::Transport>(std::move(*client))});
  }
  return sources;
}

/// A span plus which process answered it, for the stitched tree.
struct SourcedSpan {
  net::TraceInfoResponse::Span span;
  const std::string* source = nullptr;
};

int FetchSpans(const std::vector<TraceSource>& sources,
               const net::TraceInfoRequest& req,
               std::vector<SourcedSpan>& out, uint64_t& dropped) {
  for (const auto& source : sources) {
    auto payload = source.transport->Call(net::MessageType::kTraceInfo,
                                          req.Encode());
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        std::fprintf(stderr,
                     "error: %s does not answer trace requests — it predates "
                     "the kTraceInfo protocol extension (upgrade tcserver)\n",
                     source.label.c_str());
        return 1;
      }
      Die(payload.status());
    }
    auto info = net::TraceInfoResponse::Decode(*payload);
    if (!info.ok()) {
      std::fprintf(stderr,
                   "error: %s answered trace with a frame this tccli cannot "
                   "decode — tcserver and tccli versions likely differ (%s)\n",
                   source.label.c_str(), info.status().ToString().c_str());
      return 1;
    }
    dropped += info->dropped;
    for (auto& span : info->spans) {
      out.push_back({std::move(span), &source.label});
    }
  }
  return 0;
}

void PrintSpanTree(const std::vector<SourcedSpan>& spans, size_t index,
                   const std::multimap<uint64_t, size_t>& children,
                   int64_t trace_start_us, int depth) {
  const auto& s = spans[index].span;
  char shard_buf[16];
  if (s.shard == 0xffffffffu) {
    std::snprintf(shard_buf, sizeof shard_buf, "-");
  } else {
    std::snprintf(shard_buf, sizeof shard_buf, "%u", s.shard);
  }
  std::printf("  %+9lldus %*s%-24s shard %-3s %8llu us%s  [%s]\n",
              static_cast<long long>(s.start_us - trace_start_us), depth * 2,
              "", s.op.c_str(), shard_buf,
              static_cast<unsigned long long>(s.duration_us),
              s.slow ? "  SLOW" : "      ", spans[index].source->c_str());
  auto [begin, end] = children.equal_range(s.span_id);
  std::vector<size_t> kids;
  for (auto it = begin; it != end; ++it) kids.push_back(it->second);
  std::sort(kids.begin(), kids.end(), [&spans](size_t a, size_t b) {
    return spans[a].span.start_us < spans[b].span.start_us;
  });
  for (size_t kid : kids) {
    PrintSpanTree(spans, kid, children, trace_start_us, depth + 1);
  }
}

int CmdTrace(const Flags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: tccli trace ID [--peers H:P,...]\n");
    return 1;
  }
  errno = 0;
  char* end = nullptr;
  uint64_t trace_id =
      std::strtoull(flags.positional()[1].c_str(), &end, 16);
  if (errno == ERANGE || *end != '\0' || trace_id == 0) {
    std::fprintf(stderr, "trace ID must be the hex id printed by "
                         "`tccli traces` or a slow-op log line\n");
    return 1;
  }
  auto sources = ConnectSources(flags);
  if (!sources.ok()) Die(sources.status());
  std::vector<SourcedSpan> spans;
  uint64_t dropped = 0;
  if (int rc = FetchSpans(*sources, {trace_id, 0}, spans, dropped); rc != 0) {
    return rc;
  }
  if (spans.empty()) {
    std::printf("no spans recorded for trace %016llx (evicted by ring wrap, "
                "dropped by sampling, or never traced; %llu span(s) dropped "
                "process-wide)\n",
                static_cast<unsigned long long>(trace_id),
                static_cast<unsigned long long>(dropped));
    return 1;
  }
  // Stitch: children keyed by parent span id; roots are spans whose parent
  // was not recorded here (the origin, or a parent lost to ring wrap).
  std::set<uint64_t> ids;
  int64_t trace_start_us = spans.front().span.start_us;
  for (const auto& s : spans) {
    ids.insert(s.span.span_id);
    trace_start_us = std::min(trace_start_us, s.span.start_us);
  }
  std::multimap<uint64_t, size_t> children;
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i].span;
    if (s.parent_span_id != 0 && ids.contains(s.parent_span_id)) {
      children.emplace(s.parent_span_id, i);
    } else {
      roots.push_back(i);
    }
  }
  std::sort(roots.begin(), roots.end(), [&spans](size_t a, size_t b) {
    return spans[a].span.start_us < spans[b].span.start_us;
  });
  std::set<const std::string*> processes;
  for (const auto& s : spans) processes.insert(s.source);
  std::printf("trace %016llx: %zu span(s) across %zu process(es)\n",
              static_cast<unsigned long long>(trace_id), spans.size(),
              processes.size());
  for (size_t root : roots) {
    PrintSpanTree(spans, root, children, trace_start_us, 0);
  }
  return 0;
}

int CmdTraces(const Flags& flags) {
  auto sources = ConnectSources(flags);
  if (!sources.ok()) Die(sources.status());
  std::vector<SourcedSpan> spans;
  uint64_t dropped = 0;
  net::TraceInfoRequest req;
  req.slow_only = flags.Has("slow") ? 1 : 0;
  if (int rc = FetchSpans(*sources, req, spans, dropped); rc != 0) return rc;
  // Roll spans up into traces; print newest first.
  struct TraceLine {
    int64_t start_us = INT64_MAX;
    int64_t end_us = 0;
    size_t count = 0;
    bool slow = false;
    const std::string* root_op = nullptr;
    int64_t root_start_us = INT64_MAX;
  };
  std::map<uint64_t, TraceLine> traces;
  for (const auto& s : spans) {
    auto& line = traces[s.span.trace_id];
    line.start_us = std::min(line.start_us, s.span.start_us);
    line.end_us = std::max(
        line.end_us, s.span.start_us + static_cast<int64_t>(s.span.duration_us));
    ++line.count;
    line.slow = line.slow || s.span.slow != 0;
    if (s.span.start_us < line.root_start_us) {
      line.root_start_us = s.span.start_us;
      line.root_op = &s.span.op;
    }
  }
  if (traces.empty()) {
    std::puts(flags.Has("slow")
                  ? "no slow traces recorded (nothing exceeded --slow-op-ms, "
                    "or the server runs without it)"
                  : "no traces recorded yet");
    return 0;
  }
  std::vector<std::pair<uint64_t, const TraceLine*>> ordered;
  for (const auto& [id, line] : traces) ordered.emplace_back(id, &line);
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second->start_us > b.second->start_us;
  });
  std::puts("trace             spans  wall-time    root op");
  for (const auto& [id, line] : ordered) {
    std::printf("%016llx %6zu %9lldus  %-24s%s\n",
                static_cast<unsigned long long>(id), line->count,
                static_cast<long long>(line->end_us - line->start_us),
                line->root_op->c_str(), line->slow ? "  SLOW" : "");
  }
  if (dropped > 0) {
    std::printf("(%llu span(s) evicted by ring wrap across the queried "
                "process(es))\n",
                static_cast<unsigned long long>(dropped));
  }
  return 0;
}

int CmdEvents(const Flags& flags) {
  int64_t min_seq = flags.GetInt("min-seq", 0);
  if (min_seq < 0) {
    std::fprintf(stderr, "--min-seq must be >= 0\n");
    return 1;
  }
  auto sources = ConnectSources(flags);
  if (!sources.ok()) Die(sources.status());
  struct SourcedEvent {
    net::EventsInfoResponse::Event event;
    const std::string* source = nullptr;
  };
  std::vector<SourcedEvent> events;
  uint64_t dropped = 0;
  net::EventsInfoRequest req{static_cast<uint64_t>(min_seq)};
  for (const auto& source : *sources) {
    auto payload = source.transport->Call(net::MessageType::kEventsInfo,
                                          req.Encode());
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        std::fprintf(stderr,
                     "error: %s does not answer event-journal requests — it "
                     "predates the kEventsInfo protocol extension (upgrade "
                     "tcserver)\n",
                     source.label.c_str());
        return 1;
      }
      Die(payload.status());
    }
    auto info = net::EventsInfoResponse::Decode(*payload);
    if (!info.ok()) {
      std::fprintf(stderr,
                   "error: %s answered events with a frame this tccli cannot "
                   "decode — tcserver and tccli versions likely differ (%s)\n",
                   source.label.c_str(), info.status().ToString().c_str());
      return 1;
    }
    dropped += info->dropped;
    for (auto& event : info->events) {
      events.push_back({std::move(event), &source.label});
    }
  }
  if (events.empty()) {
    std::puts("no lifecycle events recorded (quiet cluster)");
    return 0;
  }
  // Seqs are per-process; wall clock is the only cluster-wide order. Ties
  // (same millisecond) fall back to seq so one process's events stay in
  // journal order.
  std::sort(events.begin(), events.end(),
            [](const SourcedEvent& a, const SourcedEvent& b) {
              if (a.event.wall_ms != b.event.wall_ms) {
                return a.event.wall_ms < b.event.wall_ms;
              }
              return a.event.seq < b.event.seq;
            });
  const bool multi = sources->size() > 1;
  for (const auto& e : events) {
    char when[32];
    time_t secs = static_cast<time_t>(e.event.wall_ms / 1000);
    struct tm tm_buf;
    localtime_r(&secs, &tm_buf);
    std::strftime(when, sizeof when, "%H:%M:%S", &tm_buf);
    char shard_buf[16];
    if (e.event.shard == 0xffffffffu) {
      std::snprintf(shard_buf, sizeof shard_buf, "-");
    } else {
      std::snprintf(shard_buf, sizeof shard_buf, "%u", e.event.shard);
    }
    std::printf("%s.%03lld %6llu  %-22s shard %-3s %s%s%s%s\n", when,
                static_cast<long long>(e.event.wall_ms % 1000),
                static_cast<unsigned long long>(e.event.seq),
                e.event.kind.c_str(), shard_buf, e.event.detail.c_str(),
                multi ? "  [" : "", multi ? e.source->c_str() : "",
                multi ? "]" : "");
  }
  if (dropped > 0) {
    std::printf("(%llu event(s) evicted by the journal bound)\n",
                static_cast<unsigned long long>(dropped));
  }
  return 0;
}

int CmdAttest(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  auto att = owner->Attest(uuid);
  if (!att.ok()) Die(att.status());
  std::printf("attested stream %" PRIu64 " at %" PRIu64
              " chunks (root %s...)\n",
              att->uuid, att->size,
              ToHex(BytesView(att->root.data(), 8)).c_str());
  return 0;
}

int CmdVerify(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  auto result = owner->GetVerifiedStatRange(
      uuid, {flags.GetInt("start", 0), flags.GetInt("end", 0)});
  if (!result.ok()) Die(result.status());
  std::puts("verified against the signed attestation:");
  PrintStats(*result);
  return 0;
}

int CmdKeygen(const Flags&, const std::string& state_dir) {
  auto identity = LoadOrCreateIdentity(state_dir, /*create=*/true);
  if (!identity.ok()) Die(identity.status());
  std::printf("public key: %s\n", ToHex(identity->public_key).c_str());
  return 0;
}

int CmdGrant(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  auto pub = FromHex(flags.Get("pub"));
  if (!pub.ok()) Die(InvalidArgument("--pub must be the consumer's hex key"));
  CheckOk(owner->GrantAccess(
      uuid, flags.Get("principal"), *pub,
      {flags.GetInt("start", 0), flags.GetInt("end", 0)},
      static_cast<uint64_t>(flags.GetInt("resolution", 1))));
  std::printf("granted %s access to stream %" PRIu64 " at resolution %lld\n",
              flags.Get("principal").c_str(), uuid,
              static_cast<long long>(flags.GetInt("resolution", 1)));
  return 0;
}

int CmdRevoke(const Flags& flags, const std::string& state_dir) {
  auto [owner, uuid] = AttachOwner(flags, state_dir);
  CheckOk(owner->RevokeAccess(uuid, flags.Get("principal"),
                              flags.GetInt("end", 0)));
  std::printf("revoked %s on stream %" PRIu64 "\n",
              flags.Get("principal").c_str(), uuid);
  return 0;
}

int CmdConsume(const Flags& flags, const std::string& state_dir) {
  auto transport = Connect(flags);
  auto identity = LoadOrCreateIdentity(state_dir, /*create=*/false);
  if (!identity.ok()) Die(identity.status());

  client::Principal principal{flags.Get("principal"), *identity};
  client::ConsumerClient consumer(transport, principal);
  auto n = consumer.FetchGrants();
  if (!n.ok()) Die(n.status());
  std::printf("%d grant(s) held\n", *n);

  uint64_t uuid = flags.GetUint("uuid", 0);
  auto result = consumer.GetStatRange(
      uuid, {flags.GetInt("start", 0), flags.GetInt("end", 0)});
  if (!result.ok()) Die(result.status());
  PrintStats(*result);
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {"help", "sumsq", "integrity", "slow"});
  if (flags.Has("help") || flags.positional().empty()) {
    Usage();
    return flags.Has("help") ? 0 : 1;
  }
  std::string state_dir = flags.Get("state-dir", ".tccli");
  const std::string& cmd = flags.positional()[0];
  if (cmd == "create") return CmdCreate(flags, state_dir);
  if (cmd == "insert") return CmdInsert(flags, state_dir);
  if (cmd == "stats") return CmdStats(flags, state_dir);
  if (cmd == "range") return CmdRange(flags, state_dir);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "cluster-info") return CmdClusterInfo(flags);
  if (cmd == "replica-info") return CmdReplicaInfo(flags);
  if (cmd == "metrics") return CmdMetrics(flags);
  if (cmd == "trace") return CmdTrace(flags);
  if (cmd == "traces") return CmdTraces(flags);
  if (cmd == "events") return CmdEvents(flags);
  if (cmd == "attest") return CmdAttest(flags, state_dir);
  if (cmd == "verify") return CmdVerify(flags, state_dir);
  if (cmd == "keygen") return CmdKeygen(flags, state_dir);
  if (cmd == "grant") return CmdGrant(flags, state_dir);
  if (cmd == "revoke") return CmdRevoke(flags, state_dir);
  if (cmd == "consume") return CmdConsume(flags, state_dir);
  std::fprintf(stderr, "unknown command: %s\n\n", cmd.c_str());
  Usage();
  return 1;
}

}  // namespace
}  // namespace tc::tools

int main(int argc, char** argv) { return tc::tools::Run(argc, argv); }
