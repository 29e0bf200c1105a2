// Typed request/response messages for TimeCrypt's API (Table 1), with
// binary codecs. Each struct has Encode()/Decode() so both transports and
// tests can round-trip them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/time.hpp"
#include "index/digest.hpp"
#include "net/wire.hpp"

namespace tc::net {

/// Which digest cipher a stream uses — the server needs this to pick the
/// homomorphic Add for index maintenance (public parameters only).
enum class CipherKind : uint8_t {
  kPlain = 0,
  kHeac = 1,
  kPaillier = 2,
  kEcElGamal = 3,
};

std::string_view CipherKindName(CipherKind kind);

/// Stream configuration, fixed at creation (§4.6: per-stream chunk interval,
/// compression, operators/digest layout).
struct StreamConfig {
  std::string name;                 // human-readable metric/source metadata
  Timestamp t0 = 0;                 // stream start
  DurationMs delta_ms = 10'000;     // chunk interval Δ
  index::DigestSchema schema;       // digest operators
  CipherKind cipher = CipherKind::kHeac;
  Bytes cipher_public;              // strawman public params (empty otherwise)
  uint32_t fanout = 64;             // index tree k
  uint8_t compression = 1;          // chunk::Compression
  // Integrity extension: the server mirrors a Merkle witness tree over the
  // sealed chunks and serves audit paths for verified reads (opt-in — adds
  // one SHA-256 per chunk to the ingest path).
  bool integrity = false;

  void Encode(BinaryWriter& w) const;
  static Result<StreamConfig> Decode(BinaryReader& r);

  friend bool operator==(const StreamConfig&, const StreamConfig&) = default;
};

struct CreateStreamRequest {
  uint64_t uuid = 0;
  StreamConfig config;

  Bytes Encode() const;
  static Result<CreateStreamRequest> Decode(BytesView in);
};

struct DeleteStreamRequest {
  uint64_t uuid = 0;

  Bytes Encode() const;
  static Result<DeleteStreamRequest> Decode(BytesView in);
};

struct InsertChunkRequest {
  uint64_t uuid = 0;
  uint64_t chunk_index = 0;
  Bytes digest_blob;   // encrypted digest for the index
  Bytes payload;       // sealed compressed points (may be empty: digest-only)

  Bytes Encode() const;
  static Result<InsertChunkRequest> Decode(BytesView in);
};

/// Batched single-stream ingest (§4.6 scalability): many sealed chunks in
/// one frame, amortizing framing, dispatch, the per-stream lock, and (on
/// durable stores) the log sync across the batch. Entries must carry
/// strictly increasing chunk indices — the stream is append-only, so an
/// out-of-order or overlapping batch is malformed, and Decode rejects it.
struct InsertChunkBatchRequest {
  struct Entry {
    uint64_t chunk_index = 0;
    Bytes digest_blob;
    Bytes payload;
  };
  uint64_t uuid = 0;
  std::vector<Entry> entries;

  Bytes Encode() const;
  static Result<InsertChunkBatchRequest> Decode(BytesView in);
};

/// Per-shard stream counts, index sizes, and replication health (cluster
/// introspection). A standalone engine answers with one entry and zeroed
/// replication fields; the shard router scatter-gathers one entry per shard.
struct ClusterInfoResponse {
  /// ShardInfo::ack_mode values (mirrors replica::AckMode; the wire layer
  /// carries the raw byte so tc_net does not depend on tc_replica).
  static constexpr uint8_t kAckAsync = 0;
  static constexpr uint8_t kAckQuorum = 1;

  struct ShardInfo {
    uint32_t shard = 0;
    uint64_t num_streams = 0;
    uint64_t index_bytes = 0;
    // Replication health: follower count, ack discipline, and the widest
    // follower lag in ops (0 when replicas == 0 or all caught up).
    uint32_t replicas = 0;
    uint8_t ack_mode = kAckAsync;
    uint64_t max_lag_ops = 0;
    // Daemon topology + failover health: socket-registered follower
    // processes, whether heartbeat-driven failover is armed, how many
    // promotions this shard has survived, and how many bounded snapshot
    // chunks catch-up has shipped (the streaming-catch-up witness).
    uint32_t remote_followers = 0;
    uint8_t auto_failover = 0;
    uint32_t promotions = 0;
    uint64_t snapshot_chunks = 0;
    // Backing-store compaction pressure (LogKvStore shards): dead value
    // bytes awaiting compaction and compaction passes run so far. Zeros
    // for volatile stores.
    uint64_t store_dead_bytes = 0;
    uint32_t store_compactions = 0;
  };
  std::vector<ShardInfo> shards;

  Bytes Encode() const;
  static Result<ClusterInfoResponse> Decode(BytesView in);
};

/// Snapshot of the process-wide metrics registry (kMetricsInfo; request body
/// is empty). Counters and gauges carry `value`; histograms carry the count/
/// sum/max and precomputed quantiles, all in the histogram's native unit
/// (microseconds for *_seconds families).
struct MetricsInfoResponse {
  static constexpr uint8_t kCounter = 0;
  static constexpr uint8_t kGauge = 1;
  static constexpr uint8_t kHistogram = 2;

  struct Entry {
    uint8_t kind = kCounter;
    std::string name;    // snake_case family name
    std::string labels;  // 'k="v",...' without braces; may be empty
    int64_t value = 0;   // counter/gauge
    uint64_t count = 0;  // histogram fields
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0;
  };
  std::vector<Entry> entries;

  Bytes Encode() const;
  static Result<MetricsInfoResponse> Decode(BytesView in);
};

/// Drain the process-wide span ring (kTraceInfo). `trace_id != 0` filters to
/// one trace; `slow_only` keeps only spans past the slow-op threshold.
struct TraceInfoRequest {
  uint64_t trace_id = 0;
  uint8_t slow_only = 0;

  Bytes Encode() const;
  static Result<TraceInfoRequest> Decode(BytesView in);
};

struct TraceInfoResponse {
  struct Span {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
    std::string op;       // snake_case literal (message-type / stage name)
    uint8_t msg_type = 0; // raw MessageType byte, 0 when not a request span
    uint32_t shard = 0xffffffffu;  // trace::kNoShard when shardless
    int64_t start_us = 0;          // wall clock, us since the Unix epoch
    uint64_t duration_us = 0;
    uint8_t slow = 0;
  };
  std::vector<Span> spans;
  uint64_t dropped = 0;  // spans evicted by ring wrap since process start

  Bytes Encode() const;
  static Result<TraceInfoResponse> Decode(BytesView in);
};

/// Structured event journal query (kEventsInfo): lifecycle events with
/// seq >= min_seq, oldest first.
struct EventsInfoRequest {
  uint64_t min_seq = 0;

  Bytes Encode() const;
  static Result<EventsInfoRequest> Decode(BytesView in);
};

struct EventsInfoResponse {
  struct Event {
    uint64_t seq = 0;
    int64_t wall_ms = 0;  // wall clock, ms since the Unix epoch
    std::string kind;     // snake_case event class
    uint32_t shard = 0;
    std::string detail;
  };
  std::vector<Event> events;
  uint64_t dropped = 0;  // events evicted by the capacity bound

  Bytes Encode() const;
  static Result<EventsInfoResponse> Decode(BytesView in);
};

struct GetRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  Bytes Encode() const;
  static Result<GetRangeRequest> Decode(BytesView in);
};

struct GetRangeResponse {
  struct ChunkData {
    uint64_t chunk_index = 0;
    Bytes payload;
  };
  std::vector<ChunkData> chunks;

  Bytes Encode() const;
  static Result<GetRangeResponse> Decode(BytesView in);
};

struct StatRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  Bytes Encode() const;
  static Result<StatRangeRequest> Decode(BytesView in);
};

/// Aggregate over [first_chunk, last_chunk) — the decryptor needs the chunk
/// bounds to pick its outer keys.
struct StatRangeResponse {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;
  Bytes aggregate_blob;

  Bytes Encode() const;
  static Result<StatRangeResponse> Decode(BytesView in);
};

/// Series of fixed-granularity aggregates (visualization / Fig 8 views):
/// one aggregate per `granularity_chunks` window across the range.
struct StatSeriesRequest {
  uint64_t uuid = 0;
  TimeRange range;
  uint64_t granularity_chunks = 1;

  Bytes Encode() const;
  static Result<StatSeriesRequest> Decode(BytesView in);
};

struct StatSeriesResponse {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;  // exclusive; the final window clips to this
  uint64_t granularity_chunks = 1;
  std::vector<Bytes> aggregates;  // consecutive windows

  Bytes Encode() const;
  static Result<StatSeriesResponse> Decode(BytesView in);
};

/// Inter-stream aggregate (§4.3): server sums the per-stream aggregates;
/// only a principal holding keys for all streams can decrypt.
struct MultiStatRangeRequest {
  std::vector<uint64_t> uuids;
  TimeRange range;

  Bytes Encode() const;
  static Result<MultiStatRangeRequest> Decode(BytesView in);
};

struct RollupStreamRequest {
  uint64_t source_uuid = 0;
  uint64_t target_uuid = 0;      // derived stream to create
  uint64_t granularity_chunks = 0;  // aggregation factor
  TimeRange range;               // segment to roll up ({0,0} = everything)

  Bytes Encode() const;
  static Result<RollupStreamRequest> Decode(BytesView in);
};

struct DeleteRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  Bytes Encode() const;
  static Result<DeleteRangeRequest> Decode(BytesView in);
};

struct StreamInfoResponse {
  StreamConfig config;
  uint64_t num_chunks = 0;

  Bytes Encode() const;
  static Result<StreamInfoResponse> Decode(BytesView in);
};

// ------------------------------------------------------------- key store

/// A sealed grant stored at the server's key store (§3.2). The server never
/// sees inside `sealed_grant` — it is encrypted to the principal's key.
struct PutGrantRequest {
  uint64_t uuid = 0;
  std::string principal_id;
  uint64_t grant_id = 0;
  Bytes sealed_grant;

  Bytes Encode() const;
  static Result<PutGrantRequest> Decode(BytesView in);
};

struct FetchGrantsRequest {
  std::string principal_id;

  Bytes Encode() const;
  static Result<FetchGrantsRequest> Decode(BytesView in);
};

struct FetchGrantsResponse {
  struct Entry {
    uint64_t uuid = 0;
    uint64_t grant_id = 0;
    Bytes sealed_grant;
  };
  std::vector<Entry> grants;

  Bytes Encode() const;
  static Result<FetchGrantsResponse> Decode(BytesView in);
};

struct RevokeGrantRequest {
  uint64_t uuid = 0;
  std::string principal_id;
  uint64_t grant_id = 0;  // 0 = all grants of this principal on this stream

  Bytes Encode() const;
  static Result<RevokeGrantRequest> Decode(BytesView in);
};

/// Resolution-keystream envelopes (§4.4.2): enc_k̄j(k_{j·r}) blobs stored
/// under (stream, resolution, index).
struct PutEnvelopesRequest {
  uint64_t uuid = 0;
  uint64_t resolution_chunks = 0;
  uint64_t first_index = 0;
  std::vector<Bytes> envelopes;

  Bytes Encode() const;
  static Result<PutEnvelopesRequest> Decode(BytesView in);
};

struct GetEnvelopesRequest {
  uint64_t uuid = 0;
  uint64_t resolution_chunks = 0;
  uint64_t first_index = 0;
  uint64_t last_index = 0;  // inclusive

  Bytes Encode() const;
  static Result<GetEnvelopesRequest> Decode(BytesView in);
};

struct GetEnvelopesResponse {
  uint64_t first_index = 0;
  std::vector<Bytes> envelopes;

  Bytes Encode() const;
  static Result<GetEnvelopesResponse> Decode(BytesView in);
};

// ---------------------------------------------------- integrity extension
// Attestation blobs stay opaque at the wire layer (encoded/decoded by
// src/integrity) so tc_net does not depend on tc_integrity.

/// Owner publishes a signed stream-head attestation.
struct PutAttestationRequest {
  uint64_t uuid = 0;
  Bytes attestation;

  Bytes Encode() const;
  static Result<PutAttestationRequest> Decode(BytesView in);
};

/// Fetch the latest attestation published for a stream.
struct GetAttestationRequest {
  uint64_t uuid = 0;

  Bytes Encode() const;
  static Result<GetAttestationRequest> Decode(BytesView in);
};

/// Witnessed chunk read: chunks [first_chunk, last_chunk) together with
/// audit paths against the witness tree over the first `at_size` chunks
/// (the attested prefix the consumer holds a signature for).
struct GetChunkWitnessedRequest {
  uint64_t uuid = 0;
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;
  uint64_t at_size = 0;

  Bytes Encode() const;
  static Result<GetChunkWitnessedRequest> Decode(BytesView in);
};

struct GetChunkWitnessedResponse {
  struct Entry {
    uint64_t chunk_index = 0;
    Bytes digest_blob;
    Bytes payload;
    Bytes proof;  // integrity::AuditPath wire encoding
  };
  std::vector<Entry> entries;

  Bytes Encode() const;
  static Result<GetChunkWitnessedResponse> Decode(BytesView in);
};

// ---------------------------------------------------- replication extension
// Primary→follower log shipping (src/replica). Replicated state is all
// ciphertext and encrypted digests — the server is untrusted end-to-end, so
// copying it to more untrusted nodes changes nothing about confidentiality.

/// Mutation kinds carried by ReplicaOpsRequest entries.
inline constexpr uint8_t kReplicaOpPut = 1;
inline constexpr uint8_t kReplicaOpDelete = 2;
/// KvStore::Append: the value is the suffix, applied only if the
/// follower's value is exactly `expected_size` bytes long.
inline constexpr uint8_t kReplicaOpAppend = 3;

/// A contiguous run of sequence-numbered mutations: entry i carries
/// sequence number first_seq + i. Followers apply strictly in order, so a
/// follower's store is always a prefix of the primary's mutation history.
/// `shard` routes the frame inside a follower daemon replicating several
/// shards over one endpoint.
struct ReplicaOpsRequest {
  struct Op {
    uint8_t kind = kReplicaOpPut;
    std::string key;
    Bytes value;  // empty for deletes; the suffix for appends
    uint64_t expected_size = 0;  // appends only: value length before

    friend bool operator==(const Op&, const Op&) = default;
  };
  uint32_t shard = 0;
  uint64_t first_seq = 0;
  std::vector<Op> ops;

  Bytes Encode() const;
  static Result<ReplicaOpsRequest> Decode(BytesView in);
};

// Chunked snapshot catch-up: Begin pins the snapshot's sequence number,
// Chunk frames carry bounded (key, value) batches, End reconciles (deletes
// follower keys the stream never named, so diverged stores reconverge).
// Neither side ever materializes the full store: the shipper walks the key
// list batch by batch, the applier writes each chunk straight into its
// store and only retains the key set for the End reconciliation. A Begin
// that repeats the in-progress seq resumes after the last received chunk
// (reconnect after a dropped transport), because an unchanged seq means an
// unchanged store and therefore an unchanged, deterministic key order.

struct ReplicaSnapshotBeginRequest {
  uint32_t shard = 0;
  /// Shipping-pipeline identity (random per primary incarnation): a stream
  /// may only resume under the pipeline that started it — after failover
  /// the new primary restarts sequence numbering, so seq alone could
  /// collide with a half-received stream from the dead primary.
  uint64_t origin = 0;
  uint64_t seq = 0;

  Bytes Encode() const;
  static Result<ReplicaSnapshotBeginRequest> Decode(BytesView in);
};

struct ReplicaSnapshotChunkRequest {
  uint32_t shard = 0;
  uint64_t seq = 0;
  /// Position of entries.front() in the overall snapshot stream.
  uint64_t first_index = 0;
  std::vector<std::pair<std::string, Bytes>> entries;

  Bytes Encode() const;
  static Result<ReplicaSnapshotChunkRequest> Decode(BytesView in);
};

struct ReplicaSnapshotEndRequest {
  uint32_t shard = 0;
  uint64_t seq = 0;
  /// Total entries shipped; the applier cross-checks its received count.
  uint64_t total_entries = 0;

  Bytes Encode() const;
  static Result<ReplicaSnapshotEndRequest> Decode(BytesView in);
};

/// Reply to SnapshotBegin (entries = resume point: how many stream entries
/// the follower already holds for this seq) and SnapshotChunk (entries =
/// cumulative entries received, which the shipper verifies).
struct ReplicaSnapshotAckResponse {
  uint64_t entries = 0;

  Bytes Encode() const;
  static Result<ReplicaSnapshotAckResponse> Decode(BytesView in);
};

/// Follower's reply to kReplicaOps / kReplicaSnapshotEnd / kReplicaHeartbeat.
struct ReplicaAckResponse {
  uint64_t applied_seq = 0;

  Bytes Encode() const;
  static Result<ReplicaAckResponse> Decode(BytesView in);
};

/// Follower-daemon registration, sent by the follower to the primary's
/// serving port. Carries where the primary should dial back (host/port of
/// the follower's replication endpoint), which shard it replicates, how far
/// it has applied, and a fingerprint of its persisted shard layout so a
/// store formatted for a different cluster shape is rejected instead of
/// silently reconciled (0 = empty store, always accepted).
struct ReplicaHelloRequest {
  uint32_t shard = 0;
  /// The follower's total shard count. Placement is a pure hash of
  /// (uuid, N): a follower laid out for a different N would replicate and
  /// serve the wrong subset, so the primary rejects a mismatch outright —
  /// the fingerprint gate only covers non-empty stores.
  uint32_t num_shards = 1;
  uint64_t applied_seq = 0;
  uint64_t store_fingerprint = 0;
  std::string host;
  uint32_t port = 0;

  Bytes Encode() const;
  static Result<ReplicaHelloRequest> Decode(BytesView in);
};

struct ReplicaHelloResponse {
  uint64_t head_seq = 0;       // primary's current head for the shard
  uint32_t heartbeat_ms = 0;   // primary's heartbeat cadence

  Bytes Encode() const;
  static Result<ReplicaHelloResponse> Decode(BytesView in);
};

/// Primary → follower liveness beacon carrying the shard's group view:
/// every registered follower endpoint and its applied seq. Followers use
/// the last view to elect the most-caught-up survivor when the beacons
/// stop (primary loss → automatic promotion).
struct ReplicaHeartbeatRequest {
  struct Peer {
    std::string host;
    uint32_t port = 0;
    uint64_t applied_seq = 0;

    friend bool operator==(const Peer&, const Peer&) = default;
  };
  uint32_t shard = 0;
  uint64_t head_seq = 0;
  std::vector<Peer> peers;

  Bytes Encode() const;
  static Result<ReplicaHeartbeatRequest> Decode(BytesView in);
};

}  // namespace tc::net
