// Sharded cluster layer (§3.2, §4.6): TimeCrypt server nodes are stateless
// over a partitioned key-value store, so throughput scales horizontally
// with the number of nodes. This router reproduces that architecture in
// one process: N independent ServerEngine shards, each over its own KV
// namespace, with streams partitioned by uuid hash.
//
// Single-stream messages (the hot path: ingest, range/stat queries, grants
// on a stream) route to the owning shard inline with no cross-shard
// coordination. Cluster-wide operations — FetchGrants (keyed by principal,
// not stream), MultiStatRange over streams on different shards, Ping,
// ClusterInfo — scatter one net::AsyncCall per involved shard through that
// shard's channel and gather the PendingCall set. Local shards are reached
// through an in-process channel whose calls run on a small executor (the
// CPU-bound remnant of the old scatter worker pool); the same scatter code
// drives remote shards through any net::Transport — socket-backed shard
// channels are a constructor away, not a redesign. RollupStream runs as
// the wire operations it is made of (server::RollupStream: create +
// windowed stat series + batch insert) from the source's shard into the
// target's, so derived streams always live on the shard their uuid hashes
// to and later requests find them without a placement directory.
//
// Each shard is a replica::ReplicaSet. With followers configured, the
// shard's mutations ship to replica stores, replica reads (the
// `replica_read` rows of net::kFrameTypes: stat/range queries, stream info,
// witnessed reads, and MultiStatRange sub-queries) round-robin across
// caught-up replicas with primary fallback, and a dead
// primary can be failed over to a promoted follower without losing the
// stream history. A replica-less shard behaves exactly as before.
//
// The router implements net::RequestHandler, so it drops in anywhere a
// single engine did: behind InProcTransport, behind the TCP server, under
// the same clients. Restart durability composes: shard placement is a pure
// hash, so engines recovered from the same per-shard stores see exactly
// the streams they owned before.
#pragma once

#include <memory>
#include <vector>

#include "net/executor.hpp"
#include "net/wire.hpp"
#include "replica/replica_set.hpp"
#include "server/server_engine.hpp"

namespace tc::cluster {

struct RouterOptions {
  /// Width of the executor backing the local shard channels (scatter-gather
  /// fan-out). 0 = one thread per shard, capped at the hardware concurrency
  /// (a 1-shard or 1-core router runs scattered calls inline).
  size_t scatter_threads = 0;
};

/// Stream placement: the shard owning `uuid` among `num_shards` — a pure
/// stateless hash, identical across restarts and across every node running
/// the same shard count (follower daemons use it to route reads without a
/// router instance).
size_t PlaceShard(uint64_t uuid, size_t num_shards);

/// Persist-or-verify the cluster layout in a shard's store. On a fresh
/// store the (shard_id, num_shards) pair is written under a meta key; on a
/// reused store a mismatch fails fast — stream placement is a pure hash of
/// (uuid, N), so restarting with a different N would silently re-home
/// streams away from their on-disk state instead of serving it.
Status BindShardMeta(store::KvStore& kv, uint32_t shard_id,
                     uint32_t num_shards);

class ShardRouter final : public net::RequestHandler {
 public:
  /// Replica-less router: wraps each engine in a single-member set.
  explicit ShardRouter(
      std::vector<std::shared_ptr<server::ServerEngine>> shards,
      RouterOptions options = {});

  /// Replicated router: one replica set per shard.
  explicit ShardRouter(
      std::vector<std::shared_ptr<replica::ReplicaSet>> shards,
      RouterOptions options = {});

  ~ShardRouter();

  // net::RequestHandler
  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

  size_t num_shards() const { return sets_.size(); }

  /// The shard owning `uuid` — a pure stateless hash, identical across
  /// restarts and across every node running the same shard count.
  size_t ShardOf(uint64_t uuid) const;

  /// Cluster-wide stream count / index bytes (sums over shards).
  size_t NumStreams() const;
  uint64_t TotalIndexBytes() const;

  /// One shard's asynchronous channel (tests issue scattered calls through
  /// it directly).
  const std::shared_ptr<net::Transport>& channel(size_t i) const {
    return channels_[i];
  }

  /// Direct handle to one shard's primary engine (tests and tools peek at
  /// placement). Null while that shard's primary is down.
  std::shared_ptr<server::ServerEngine> shard(size_t i) const {
    return sets_[i]->primary();
  }

  /// One shard's replica set (failover drills drive promotion through it).
  const std::shared_ptr<replica::ReplicaSet>& replica_set(size_t i) const {
    return sets_[i];
  }

 private:
  /// Wait on a scattered call set, in order.
  static std::vector<Result<Bytes>> Gather(
      std::vector<net::PendingCall> calls);

  // Scatter-gather handlers.
  Result<Bytes> FetchGrants(BytesView body);
  Result<Bytes> MultiStatRange(BytesView body);
  Result<Bytes> ClusterInfo();
  Result<Bytes> Broadcast(net::MessageType type, BytesView body);

  std::vector<std::shared_ptr<replica::ReplicaSet>> sets_;
  /// Executor behind the local channels; must outlive them.
  std::unique_ptr<net::Executor> exec_;
  /// Per-shard async channels (in-process adapters over sets_).
  std::vector<std::shared_ptr<net::Transport>> channels_;
};

}  // namespace tc::cluster
