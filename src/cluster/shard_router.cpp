#include "cluster/shard_router.hpp"

#include <algorithm>
#include <thread>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "index/digest_cipher.hpp"
#include "net/introspection.hpp"
#include "net/messages.hpp"
#include "replica/replicated_kv.hpp"

namespace tc::cluster {

using net::MessageType;

namespace {

/// SplitMix64 finalizer: stream uuids are client-chosen, so the placement
/// hash must disperse any input distribution (sequential test uuids
/// included) uniformly across shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t ExecThreads(size_t num_shards, const RouterOptions& options) {
  if (options.scatter_threads > 0) return options.scatter_threads;
  if (num_shards <= 1) return 0;
  size_t hw = std::thread::hardware_concurrency();
  return std::min(num_shards, hw == 0 ? size_t{1} : hw);
}

std::vector<std::shared_ptr<replica::ReplicaSet>> WrapEngines(
    std::vector<std::shared_ptr<server::ServerEngine>> engines) {
  std::vector<std::shared_ptr<replica::ReplicaSet>> sets;
  sets.reserve(engines.size());
  for (auto& engine : engines) {
    sets.push_back(replica::ReplicaSet::Single(std::move(engine)));
  }
  return sets;
}

/// One shard's answer: replica reads from a caught-up replica (primary
/// fallback inside the set), everything else from the primary.
Result<Bytes> ShardHandle(replica::ReplicaSet& set, MessageType type,
                          BytesView body) {
  return net::FrameType(type).replica_read ? set.HandleRead(type, body)
                                           : set.Handle(type, body);
}

/// In-process shard channel: net::Transport over one shard's ReplicaSet,
/// with calls executed on the router's shared executor so a scatter across
/// N shards genuinely overlaps. The same scatter code would drive a
/// TcpClient channel to a remote shard unchanged.
class LocalShardChannel final : public net::Transport {
 public:
  LocalShardChannel(std::shared_ptr<replica::ReplicaSet> set,
                    net::Executor* exec)
      : set_(std::move(set)), exec_(exec) {}

  net::PendingCall AsyncCall(MessageType type, BytesView body,
                             net::CallCallback on_done = nullptr) override {
    net::CallCompleter completer(std::move(on_done));
    // Copy up front: the caller's view need not outlive AsyncCall. The
    // trace context is captured here and re-stamped on the executor thread
    // (thread-locals do not follow a Submit), so shard spans stay in the
    // caller's trace, under the span that scattered the call.
    Bytes copy(body.begin(), body.end());
    metrics::TraceContext ctx = metrics::OutgoingTraceContext();
    exec_->Submit([set = set_, completer, type, copy = std::move(copy),
                   ctx] {
      metrics::SetCurrentTraceContext(ctx);
      completer.Complete(ShardHandle(*set, type, copy));
      metrics::SetCurrentTraceContext({});
    });
    return completer.pending();
  }

 private:
  std::shared_ptr<replica::ReplicaSet> set_;
  net::Executor* exec_;
};

/// The layout a store was bound to (replica::kShardMetaKey).
struct ShardMeta {
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;

  static void Visit(auto& m, auto& v) { v(m.shard_id, m.num_shards); }
};

}  // namespace

Status BindShardMeta(store::KvStore& kv, uint32_t shard_id,
                     uint32_t num_shards) {
  auto existing = kv.Get(replica::kShardMetaKey);
  if (!existing.ok()) {
    if (existing.status().code() != StatusCode::kNotFound) {
      return existing.status();
    }
    return kv.Put(replica::kShardMetaKey,
                  net::codec::Encode(ShardMeta{shard_id, num_shards}));
  }
  TC_ASSIGN_OR_RETURN(auto stored, net::codec::Decode<ShardMeta>(*existing));
  if (stored.shard_id != shard_id || stored.num_shards != num_shards) {
    return FailedPrecondition(
        "store was laid out as shard " + std::to_string(stored.shard_id) +
        "/" + std::to_string(stored.num_shards) +
        " but is being opened as shard " +
        std::to_string(shard_id) + "/" + std::to_string(num_shards) +
        "; changing the shard count re-homes streams away from their "
        "on-disk state — restart with the original --shards value");
  }
  return Status::Ok();
}

ShardRouter::ShardRouter(
    std::vector<std::shared_ptr<server::ServerEngine>> shards,
    RouterOptions options)
    : ShardRouter(WrapEngines(std::move(shards)), options) {}

ShardRouter::ShardRouter(
    std::vector<std::shared_ptr<replica::ReplicaSet>> shards,
    RouterOptions options)
    : sets_(std::move(shards)),
      exec_(std::make_unique<net::Executor>(ExecThreads(sets_.size(), options),
                                            "scatter")) {
  if (sets_.empty()) {
    // A router needs at least one shard; constructing without any is a
    // programming error, fail loudly rather than segfault on first use.
    std::abort();
  }
  channels_.reserve(sets_.size());
  for (auto& set : sets_) {
    channels_.push_back(std::make_shared<LocalShardChannel>(set, exec_.get()));
  }
}

ShardRouter::~ShardRouter() = default;

size_t PlaceShard(uint64_t uuid, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(Mix64(uuid) % num_shards);
}

size_t ShardRouter::ShardOf(uint64_t uuid) const {
  return PlaceShard(uuid, sets_.size());
}

size_t ShardRouter::NumStreams() const {
  size_t total = 0;
  for (const auto& set : sets_) total += set->NumStreams();
  return total;
}

uint64_t ShardRouter::TotalIndexBytes() const {
  uint64_t total = 0;
  for (const auto& set : sets_) total += set->TotalIndexBytes();
  return total;
}

Result<Bytes> ShardRouter::Handle(MessageType type, BytesView body) {
  // The routing span: every shard-engine span produced below (inline or
  // across the scatter executor) parents under it, so a stitched trace
  // shows router fan-out time vs per-shard handling time.
  static metrics::LatencyHistogram& route_hist =
      metrics::GetHistogram("tc_router_request_seconds");
  metrics::TraceSpan span("router_dispatch", &route_hist,
                          metrics::TraceSpan::kNoShard,
                          static_cast<uint8_t>(type));
  const net::FrameTypeInfo& info = net::FrameType(type);
  if (info.route == net::Route::kStream) {
    // The body starts with the owning stream's uuid: route to its shard.
    BinaryReader r(body);
    TC_ASSIGN_OR_RETURN(uint64_t uuid, r.GetU64());
    return ShardHandle(*sets_[ShardOf(uuid)], type, body);
  }
  if (info.route == net::Route::kProcess) {
    // One registry / span ring / event journal per process: the router and
    // its in-process shard engines share them, so answering here covers
    // everything this process recorded — no scatter needed. The scrape
    // first refreshes the shard-derived gauges.
    return net::Introspect(type, body, [this] {
      for (size_t i = 0; i < sets_.size(); ++i) {
        sets_[i]->ShardInfoSnapshot(static_cast<uint32_t>(i));
      }
    });
  }
  // Cluster-wide operations: scatter-gather through the shard channels.
  switch (type) {
    case MessageType::kFetchGrants: return FetchGrants(body);
    case MessageType::kMultiStatRange: return MultiStatRange(body);
    case MessageType::kClusterInfo: return ClusterInfo();
    case MessageType::kPing: return Broadcast(type, body);
    case MessageType::kRollupStream: {
      // The source's shard feeds the target's: see server::RollupStream.
      TC_ASSIGN_OR_RETURN(auto req, net::RollupStreamRequest::Decode(body));
      return server::RollupStream(*sets_[ShardOf(req.source_uuid)],
                                  *sets_[ShardOf(req.target_uuid)], body);
    }
    default: break;
  }
  // kResponse, bytes with no frame type, and replication frames, which
  // address a follower endpoint (and kReplicaHello a PrimaryCoordinator
  // wrapping this router), not the cluster itself.
  return InvalidArgument("unknown message type");
}

std::vector<Result<Bytes>> ShardRouter::Gather(
    std::vector<net::PendingCall> calls) {
  // Wait the whole set before returning: callers merge the results and
  // must never observe a scattered sub-call still running.
  std::vector<Result<Bytes>> results;
  results.reserve(calls.size());
  for (auto& call : calls) results.push_back(call.Wait());
  return results;
}

Result<Bytes> ShardRouter::Broadcast(MessageType type, BytesView body) {
  std::vector<net::PendingCall> calls;
  calls.reserve(channels_.size());
  for (auto& channel : channels_) {
    calls.push_back(channel->AsyncCall(type, body));
  }
  for (auto& result : Gather(std::move(calls))) {
    TC_RETURN_IF_ERROR(result.status());
  }
  return Bytes{};
}

Result<Bytes> ShardRouter::FetchGrants(BytesView body) {
  // Grants are keyed by principal, and a principal's streams can live on
  // any shard — the one cluster-wide read on the consumer path. Served by
  // primaries: replica engines do not refresh key-store state.
  std::vector<net::PendingCall> calls;
  calls.reserve(channels_.size());
  for (auto& channel : channels_) {
    calls.push_back(channel->AsyncCall(MessageType::kFetchGrants, body));
  }

  net::FetchGrantsResponse merged;
  for (auto& result : Gather(std::move(calls))) {
    TC_RETURN_IF_ERROR(result.status());
    TC_ASSIGN_OR_RETURN(auto partial, net::FetchGrantsResponse::Decode(*result));
    for (auto& entry : partial.grants) merged.grants.push_back(std::move(entry));
  }
  return merged.Encode();
}

Result<Bytes> ShardRouter::ClusterInfo() {
  net::ClusterInfoResponse resp;
  resp.shards.reserve(sets_.size());
  for (size_t i = 0; i < sets_.size(); ++i) {
    resp.shards.push_back(
        sets_[i]->ShardInfoSnapshot(static_cast<uint32_t>(i)));
  }
  return resp.Encode();
}

Result<Bytes> ShardRouter::MultiStatRange(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::MultiStatRangeRequest::Decode(body));
  if (req.uuids.empty()) return InvalidArgument("no streams given");

  // Group streams by owning shard, preserving request order so the first
  // group starts with uuids[0] (whose chunk bounds name the response, as
  // in the single-engine handler).
  std::vector<std::vector<uint64_t>> groups;
  std::vector<size_t> group_shard;
  std::vector<size_t> shard_to_group(sets_.size(), SIZE_MAX);
  for (uint64_t uuid : req.uuids) {
    size_t shard = ShardOf(uuid);
    if (shard_to_group[shard] == SIZE_MAX) {
      shard_to_group[shard] = groups.size();
      groups.emplace_back();
      group_shard.push_back(shard);
    }
    groups[shard_to_group[shard]].push_back(uuid);
  }
  if (groups.size() == 1) {
    // All streams on one shard: its engine does the whole aggregation.
    return sets_[group_shard[0]]->HandleRead(MessageType::kMultiStatRange,
                                             body);
  }

  // One pipelined sub-query per involved shard; the cross-shard merge
  // runs on this thread once all partials land. HEAC and plaintext
  // aggregates both add as wrapping uint64 words, as the shards add them.
  std::vector<net::PendingCall> calls;
  calls.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    net::MultiStatRangeRequest sub{groups[g], req.range};
    calls.push_back(channels_[group_shard[g]]->AsyncCall(
        MessageType::kMultiStatRange, sub.Encode()));
  }
  auto results = Gather(std::move(calls));

  net::StatRangeResponse merged;
  Bytes acc;
  for (size_t g = 0; g < groups.size(); ++g) {
    TC_RETURN_IF_ERROR(results[g].status());
    TC_ASSIGN_OR_RETURN(auto partial,
                        net::StatRangeResponse::Decode(*results[g]));
    if (g == 0) {
      acc = std::move(partial.aggregate_blob);
      merged.first_chunk = partial.first_chunk;
      merged.last_chunk = partial.last_chunk;
    } else {
      if (partial.aggregate_blob.size() != acc.size()) {
        return FailedPrecondition(
            "inter-stream query requires matching digest layouts");
      }
      TC_RETURN_IF_ERROR(index::MakePlainCipher(acc.size() / 8)
                             ->Add(std::span<uint8_t>(acc),
                                   partial.aggregate_blob));
    }
  }
  merged.aggregate_blob = std::move(acc);
  return merged.Encode();
}

}  // namespace tc::cluster
