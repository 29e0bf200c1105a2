// TimeCrypt server engine (§3.2, §4.5-4.6): the untrusted side.
//
// Holds the per-stream encrypted aggregation indices and sealed chunk
// payloads, answers statistical/range queries, maintains the key store of
// sealed grants and resolution-key envelopes, performs rollups and range
// deletes. Sees only ciphertext: it hosts HEAC and plaintext streams, whose
// homomorphic add is the same uint64 vector addition, and refuses a stream
// of any other cipher kind. A stored stream it cannot open (an old layout,
// a refused kind) is skipped at recovery and kept in the stream directory.
//
// The engine is exposed as a net::RequestHandler so it can sit behind the
// in-process transport or the TCP server unchanged. TimeCrypt instances are
// stateless apart from the backing KvStore (horizontally scalable, §3.2) —
// all stream state lives in the store, under computed keys:
//
//   meta/streams, meta/cfg/<uuid>   stream directory and configs
//   idx/<uuid>/L<level>/<node>      index nodes (index::AggTree)
//   pay/<uuid>/<b>                  payloads of chunks [64 b, 64 b + 64)
//   grant/..., env/..., att/<uuid>  key store and attestations
//
// A payload block holds `varint length ‖ payload` per chunk in chunk order,
// length 0 for a chunk without a payload. Ingest writes each block's share
// of a run of chunks as one record, a put when the run starts the block and
// an append otherwise, so a stream costs the store one key per 64 chunks.
// A chunk's payload lands before its index entry. Recovery (at open, on
// Refresh, before the write after a failed one) is AggTree::Recover plus
// the catch-up of the open payload block and the witness tree.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "common/thread_annotations.hpp"
#include "index/agg_tree.hpp"
#include "integrity/merkle.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"
#include "store/kv_store.hpp"

namespace tc::server {

struct ServerOptions {
  /// Per-stream LRU budget of the index node cache. Only queries fill it:
  /// ingest adds nothing, so a write-only stream holds no cached nodes.
  size_t index_cache_bytes = 256 << 20;
  /// Sync the backing store after every ingest message: an
  /// InsertChunkBatch pays one sync however many chunks it carries (group
  /// commit — the durable-ingest amortization lever).
  bool sync_each_insert = false;
  /// This engine's shard id in a cluster (ClusterInfo reporting only).
  uint32_t shard_id = 0;
};

class ServerEngine final : public net::RequestHandler {
 public:
  /// Opens the engine over `kv` and runs Refresh: streams previously
  /// created against the same store (its metadata directory) are recovered
  /// — restart durability when kv is a persistent store (LogKvStore).
  explicit ServerEngine(std::shared_ptr<store::KvStore> kv,
                        ServerOptions options = {});

  // net::RequestHandler
  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

  /// Re-sync the in-memory serving state with a backing store that advanced
  /// underneath this engine — the replica read path (src/replica): follower
  /// stores receive shipped KV mutations, and the engine over them must
  /// pick up new streams, new appends, and new witnesses before serving.
  /// Diffs the stream directory (opening/closing streams), runs each
  /// index's AggTree::Recover (the one derivation of its position, spine
  /// and ahead levels from the store, also run after a failed write), and
  /// extends witness trees to the new chunk count. Key-store state
  /// (grants) is NOT refreshed: replicas serve data reads only; grants are
  /// read on the primary, and failover promotion rebuilds a full engine
  /// instead.
  Status Refresh();

  /// Number of live streams.
  size_t NumStreams() const;

  /// Index bytes across all streams (Table 2 size column).
  uint64_t TotalIndexBytes() const;

  /// Compaction pressure of the backing store (zeros unless it is
  /// log-structured) — surfaced through kClusterInfo.
  store::KvStore::CompactionStats StoreCompaction() const {
    return kv_->Compaction();
  }

  /// One shard's kClusterInfo row. Also publishes the same values as
  /// shard-labeled gauges (tc_cluster_streams, tc_cluster_index_bytes,
  /// tc_store_dead_bytes, tc_store_compactions) so the wire response and
  /// the Prometheus exposition share a single source.
  net::ClusterInfoResponse::ShardInfo ShardInfoSnapshot() const;

  /// Direct handle to a stream's index (benchmarks peek at cache stats).
  Result<const index::AggTree*> GetIndexForTesting(uint64_t uuid) const;

 private:
  struct Stream {
    net::StreamConfig config;
    std::shared_ptr<const index::DigestCipher> add_cipher;
    // The pointers are set at construction and never reseated, so only the
    // pointees are guarded (PT_GUARDED_BY): null checks need no lock,
    // dereferences need mu.
    std::unique_ptr<index::AggTree> tree PT_GUARDED_BY(mu);
    // Integrity extension: the server-side mirror of the witness tree
    // (config.integrity streams only). Guarded by mu like the agg tree.
    std::unique_ptr<integrity::MerkleTree> witnesses PT_GUARDED_BY(mu);
    // Byte length of the payload block that holds chunk num_chunks(), up to
    // that chunk: where the next chunk's payload entry goes. The block may
    // hold entries past it when payloads of a failed run (or of a crash)
    // landed without their index entries; the next write rewrites it.
    size_t open_block_bytes GUARDED_BY(mu) = 0;
    bool open_block_ahead GUARDED_BY(mu) = false;
    // A write failed and no catch-up has completed since: the store may
    // hold chunks past num_chunks(), and the open block and witnesses may
    // not match it. The next write catches up first.
    bool stale GUARDED_BY(mu) = false;
    // Reader/writer lock over tree + witnesses: Append grows internal
    // vectors, so even "append-only prefix" reads can hit a reallocation;
    // ingest takes it exclusive, query paths take it shared.
    mutable SharedMutex mu;

    Stream(net::StreamConfig cfg,
           std::shared_ptr<const index::DigestCipher> cipher,
           std::unique_ptr<index::AggTree> t)
        : config(std::move(cfg)),
          add_cipher(std::move(cipher)),
          tree(std::move(t)) {
      if (config.integrity) {
        witnesses = std::make_unique<integrity::MerkleTree>();
      }
    }
  };

  // Request handlers (one per message type).
  Result<Bytes> CreateStream(BytesView body);
  Result<Bytes> DeleteStream(BytesView body);
  Result<Bytes> InsertChunkBatch(BytesView body);
  Result<Bytes> ClusterInfo() const;
  Result<Bytes> GetRange(BytesView body) const;
  Result<Bytes> GetStatRange(BytesView body) const;
  Result<Bytes> GetStatSeries(BytesView body) const;
  Result<Bytes> MultiStatRange(BytesView body) const;
  Result<Bytes> DeleteRange(BytesView body);
  Result<Bytes> GetStreamInfo(BytesView body) const;
  Result<Bytes> PutGrant(BytesView body);
  Result<Bytes> FetchGrants(BytesView body) const;
  Result<Bytes> RevokeGrant(BytesView body);
  Result<Bytes> PutEnvelopes(BytesView body);
  Result<Bytes> GetEnvelopes(BytesView body) const;
  Result<Bytes> PutAttestation(BytesView body);
  Result<Bytes> GetAttestation(BytesView body) const;
  Result<Bytes> GetChunkWitnessed(BytesView body) const;

  Result<std::shared_ptr<Stream>> FindStream(uint64_t uuid) const;

  /// Server-side add-only cipher from a stream's public config: HEAC and
  /// plaintext streams only, InvalidArgument for any other cipher kind.
  static Result<std::shared_ptr<const index::DigestCipher>> MakeAddCipher(
      const net::StreamConfig& config);

  /// Open a stream from its persisted config and register it, or log why
  /// it cannot be and keep it in refused_. A stream without a config
  /// (deleted, or not yet shipped to a replica) is skipped silently.
  void RecoverStream(uint64_t uuid) REQUIRES(streams_mu_);
  /// Build a Stream (index handle + recovered append position + witness
  /// tree) from a persisted config.
  Result<std::shared_ptr<Stream>> OpenStream(uint64_t uuid,
                                             const net::StreamConfig& config,
                                             bool recover);
  /// Persist the uuid directory (served and refused streams) under the
  /// metadata key.
  Status StoreDirectoryLocked() REQUIRES(streams_mu_);
  /// Persist / load the per-principal grant directory (key store state).
  Status StoreGrantDirectoryLocked() REQUIRES(keystore_mu_);
  void RecoverGrantDirectory() REQUIRES(keystore_mu_);

  /// Resolve a time range to a chunk range, clipped to ingested chunks.
  static Result<std::pair<uint64_t, uint64_t>> ResolveRange(
      const Stream& stream, const TimeRange& range)
      REQUIRES_SHARED(stream.mu);

  /// Append the stream's next chunks (InsertChunkBatch): their payloads,
  /// then one index run over `digests` (their blobs back to back). Applies
  /// a prefix on error; num_chunks() tells how far it got.
  Status AppendChunks(uint64_t uuid, Stream& stream,
                      std::span<const BytesView> payloads, BytesView digests)
      REQUIRES(stream.mu);
  /// Write the payloads of the stream's next chunks, one store write per
  /// block: a put when the run starts the block, else an append, or a
  /// rewrite when the block holds entries past the position. `landed`
  /// counts the chunks whose blocks were written, also on an error.
  Status WritePayloads(uint64_t uuid, const Stream& stream,
                       std::span<const BytesView> payloads, size_t& landed)
      REQUIRES(stream.mu);
  /// Visit the payloads of chunks [first, last) in order, an empty view for
  /// a chunk without one. A block the store lacks holds no payloads
  /// (DeleteRange dropped it); every other store error fails the read.
  Status ReadPayloads(uint64_t uuid, uint64_t first, uint64_t last,
                      const std::function<Status(uint64_t, BytesView)>& fn)
      const;
  /// Drop the payloads of indexed chunks [first, last): delete the blocks
  /// the range covers whole, rewrite the others with empty entries.
  Status DropPayloads(uint64_t uuid, Stream& stream, uint64_t first,
                      uint64_t last) REQUIRES(stream.mu);
  /// Derive the stream's index position (AggTree::Recover), open payload
  /// block and witness tree from the store, and clear `stale` once all of
  /// it succeeded: at open, on refresh, and before a write to a stale
  /// stream, whose position may lag the store's (a write that lands behind
  /// the store's index would cut its payloads).
  Status CatchUpWithStore(uint64_t uuid, Stream& stream) REQUIRES(stream.mu);

  std::string GrantKey(const std::string& principal, uint64_t uuid,
                       uint64_t grant_id) const;
  std::string EnvelopeKey(uint64_t uuid, uint64_t resolution,
                          uint64_t index) const;

  std::shared_ptr<store::KvStore> kv_;
  ServerOptions options_;

  mutable SharedMutex streams_mu_;
  std::map<uint64_t, std::shared_ptr<Stream>> streams_
      GUARDED_BY(streams_mu_);
  // Streams the store holds but RecoverStream could not open (it logged
  // why). They stay in the stream directory, their uuids stay taken, and
  // Refresh retries them.
  std::set<uint64_t> refused_ GUARDED_BY(streams_mu_);

  // Key store: grants indexed per principal for FetchGrants. Values live in
  // kv_; this is the per-principal directory.
  //
  // Secret-hygiene invariant: the server never holds plaintext key
  // material. Grant values are sealed to the principal's X25519 key before
  // they arrive (§3.2 — the server "cannot open them"), so no Key128 or
  // SecretBuffer lives in engine state.
  mutable Mutex keystore_mu_;
  // principal -> [(uuid, grant_id)]
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>
      principal_grants_ GUARDED_BY(keystore_mu_);
};

/// RollupStream (Table 1 row 3) as the wire operations it is made of:
/// GetStreamInfo and GetStatSeries on `source`, then CreateStream and
/// InsertChunkBatch on `target`. An engine passes itself as both; the shard
/// router passes the source's and the target's shards, so a derived stream
/// lives on the shard its uuid hashes to. A rollup is a write: both
/// handlers must answer from primaries, as a lagging replica would
/// silently truncate the derived stream. `body` is a RollupStreamRequest;
/// the answer is a RollupStreamResponse.
Result<Bytes> RollupStream(net::RequestHandler& source,
                           net::RequestHandler& target, BytesView body);

}  // namespace tc::server
