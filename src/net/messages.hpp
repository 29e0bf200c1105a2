// Typed request/response messages for TimeCrypt's API (Table 1). Each
// struct lists its fields once, in wire order, in a static Visit(m, v):
// `v(fields...)` visits them, and `v.Check(cond, msg)` rejects a malformed
// decode at that point. TC_WIRE_MESSAGE derives Encode() and
// Decode(BytesView) from that list through the visitors in net/codec.hpp,
// where a field's C++ type picks its encoding and Var/Flag/SchemaBlob mark
// the exceptions. The structs stay aggregates: tests and callers build them
// with brace initialisation.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/time.hpp"
#include "index/digest.hpp"
#include "net/codec.hpp"
#include "net/wire.hpp"

namespace tc::net {

/// Which digest cipher a stream uses — the server needs this to pick the
/// homomorphic Add for index maintenance (public parameters only). Values 2
/// and 3 are reserved for the paper's Paillier and EC-ElGamal strawmen,
/// which are bench-only: the server refuses a stream of either kind.
enum class CipherKind : uint8_t {
  kPlain = 0,
  kHeac = 1,
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
  Bytes cipher_public;              // reserved: empty, kept for the wire layout
  uint32_t fanout = 64;             // index tree k
  uint8_t compression = 1;          // chunk::Compression
  // Integrity extension: the server mirrors a Merkle witness tree over the
  // sealed chunks and serves audit paths for verified reads (opt-in — adds
  // one SHA-256 per chunk to the ingest path).
  bool integrity = false;

  static void Visit(auto& m, auto& v) {
    v(m.name, m.t0, m.delta_ms, SchemaBlob(m.schema), m.cipher,
      m.cipher_public, m.fanout, m.compression, Flag(m.integrity));
  }

  /// Maps times to chunk indices; every stream's, rollups' included.
  ChunkClock clock() const { return {t0, delta_ms}; }

  friend bool operator==(const StreamConfig&, const StreamConfig&) = default;
};

/// The config of the stream rolling `source`'s chunks up by
/// `granularity_chunks` from its chunk `first_chunk` on (RollupStream): Δ
/// scaled up and t0 moved to that chunk's start. It has no witness tree:
/// its digests are server-computed aggregates, not producer-sealed
/// ciphertexts, so no owner attestation could prove them.
StreamConfig RollupConfig(const StreamConfig& source,
                          uint64_t granularity_chunks, uint64_t first_chunk);

struct CreateStreamRequest {
  uint64_t uuid = 0;
  StreamConfig config;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.config); }
  TC_WIRE_MESSAGE(CreateStreamRequest)
};

struct DeleteStreamRequest {
  uint64_t uuid = 0;

  static void Visit(auto& m, auto& v) { v(m.uuid); }
  TC_WIRE_MESSAGE(DeleteStreamRequest)
};

/// Single-stream ingest, the only way chunks enter a stream: the producer's
/// uploads (one chunk per frame, or a §4.6 client-side batch amortizing
/// framing, dispatch, the per-stream lock, and on durable stores the log
/// sync) and a rollup's derived chunks. Each entry is an encrypted digest
/// for the index and a sealed payload (empty: digest-only). Entries must
/// carry strictly increasing chunk indices — the stream is append-only, so
/// an out-of-order or overlapping batch is malformed, and Decode rejects it.
/// The entries are views: a decoded batch points into the body it was
/// decoded from, and a built one into its caller's buffers, which must
/// outlive it.
struct InsertChunkBatchRequest {
  struct Entry {
    uint64_t chunk_index = 0;
    BytesView digest_blob;
    BytesView payload;

    static void Visit(auto& m, auto& v) {
      v(m.chunk_index, m.digest_blob, m.payload);
    }
  };
  uint64_t uuid = 0;
  std::vector<Entry> entries;

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.entries);
    v.Check(std::ranges::adjacent_find(m.entries, std::ranges::greater_equal{},
                                       &Entry::chunk_index) == m.entries.end(),
            "batch chunk indices must strictly increase");
  }
  TC_WIRE_MESSAGE(InsertChunkBatchRequest)
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
    // follower lag in bytes of the primary's log (0 when replicas == 0 or
    // all caught up).
    uint32_t replicas = 0;
    uint8_t ack_mode = kAckAsync;
    uint64_t max_lag_bytes = 0;
    // Daemon topology + failover health: socket-registered follower
    // processes, whether heartbeat-driven failover is armed, how many
    // promotions this shard has survived, and how many times a follower's
    // log was copied from its start (a follower daemon counts the copies
    // it received).
    uint32_t remote_followers = 0;
    uint8_t auto_failover = 0;
    uint32_t promotions = 0;
    uint64_t full_copies = 0;
    // Backing-store compaction pressure (LogKvStore shards): dead value
    // bytes awaiting compaction and compaction passes run so far. Zeros
    // for volatile stores.
    uint64_t store_dead_bytes = 0;
    uint32_t store_compactions = 0;

    static void Visit(auto& m, auto& v) {
      v(m.shard, m.num_streams, m.index_bytes, m.replicas, m.ack_mode);
      v.Check(m.ack_mode <= kAckQuorum, "unknown replica ack mode");
      v(m.max_lag_bytes, m.remote_followers, Flag(m.auto_failover),
        m.promotions, m.full_copies, m.store_dead_bytes,
        m.store_compactions);
    }
  };
  std::vector<ShardInfo> shards;

  static void Visit(auto& m, auto& v) { v(m.shards); }
  TC_WIRE_MESSAGE(ClusterInfoResponse)
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

    static void Visit(auto& m, auto& v) {
      v(m.kind);
      v.Check(m.kind <= kHistogram, "unknown metric kind");
      v(m.name, m.labels, m.value, Var(m.count), Var(m.sum), Var(m.max),
        Var(m.p50), Var(m.p95), Var(m.p99));
    }
  };
  std::vector<Entry> entries;

  static void Visit(auto& m, auto& v) { v(m.entries); }
  TC_WIRE_MESSAGE(MetricsInfoResponse)
};

/// Drain the process-wide span ring (kTraceInfo). `trace_id != 0` filters to
/// one trace; `slow_only` keeps only spans past the slow-op threshold.
struct TraceInfoRequest {
  uint64_t trace_id = 0;
  uint8_t slow_only = 0;

  static void Visit(auto& m, auto& v) { v(m.trace_id, Flag(m.slow_only)); }
  TC_WIRE_MESSAGE(TraceInfoRequest)
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

    static void Visit(auto& m, auto& v) {
      v(m.trace_id, m.span_id, m.parent_span_id, m.op, m.msg_type, m.shard,
        m.start_us, Var(m.duration_us), Flag(m.slow));
    }
  };
  std::vector<Span> spans;
  uint64_t dropped = 0;  // spans evicted by ring wrap since process start

  static void Visit(auto& m, auto& v) { v(m.spans, Var(m.dropped)); }
  TC_WIRE_MESSAGE(TraceInfoResponse)
};

/// Structured event journal query (kEventsInfo): lifecycle events with
/// seq >= min_seq, oldest first.
struct EventsInfoRequest {
  uint64_t min_seq = 0;

  static void Visit(auto& m, auto& v) { v(m.min_seq); }
  TC_WIRE_MESSAGE(EventsInfoRequest)
};

struct EventsInfoResponse {
  struct Event {
    uint64_t seq = 0;
    int64_t wall_ms = 0;  // wall clock, ms since the Unix epoch
    std::string kind;     // snake_case event class
    uint32_t shard = 0;
    std::string detail;

    static void Visit(auto& m, auto& v) {
      v(m.seq, m.wall_ms, m.kind, m.shard, m.detail);
    }
  };
  std::vector<Event> events;
  uint64_t dropped = 0;  // events evicted by the capacity bound

  static void Visit(auto& m, auto& v) { v(m.events, Var(m.dropped)); }
  TC_WIRE_MESSAGE(EventsInfoResponse)
};

struct GetRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.range); }
  TC_WIRE_MESSAGE(GetRangeRequest)
};

struct GetRangeResponse {
  struct ChunkData {
    uint64_t chunk_index = 0;
    Bytes payload;

    static void Visit(auto& m, auto& v) { v(m.chunk_index, m.payload); }
  };
  std::vector<ChunkData> chunks;

  static void Visit(auto& m, auto& v) { v(m.chunks); }
  TC_WIRE_MESSAGE(GetRangeResponse)
};

struct StatRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.range); }
  TC_WIRE_MESSAGE(StatRangeRequest)
};

/// Aggregate over [first_chunk, last_chunk) — the decryptor needs the chunk
/// bounds to pick its outer keys.
struct StatRangeResponse {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;
  Bytes aggregate_blob;

  static void Visit(auto& m, auto& v) {
    v(m.first_chunk, m.last_chunk, m.aggregate_blob);
  }
  TC_WIRE_MESSAGE(StatRangeResponse)
};

/// Series of fixed-granularity aggregates (visualization / Fig 8 views):
/// one aggregate per `granularity_chunks` window across the range.
struct StatSeriesRequest {
  uint64_t uuid = 0;
  TimeRange range;
  uint64_t granularity_chunks = 1;

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.range, m.granularity_chunks);
  }
  TC_WIRE_MESSAGE(StatSeriesRequest)
};

struct StatSeriesResponse {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;  // exclusive; the final window clips to this
  uint64_t granularity_chunks = 1;
  std::vector<Bytes> aggregates;  // consecutive windows

  static void Visit(auto& m, auto& v) {
    v(m.first_chunk, m.last_chunk, m.granularity_chunks, m.aggregates);
  }
  TC_WIRE_MESSAGE(StatSeriesResponse)
};

/// Inter-stream aggregate (§4.3): server sums the per-stream aggregates;
/// only a principal holding keys for all streams can decrypt.
struct MultiStatRangeRequest {
  std::vector<uint64_t> uuids;
  TimeRange range;

  static void Visit(auto& m, auto& v) { v(m.uuids, m.range); }
  TC_WIRE_MESSAGE(MultiStatRangeRequest)
};

struct RollupStreamRequest {
  uint64_t source_uuid = 0;
  uint64_t target_uuid = 0;      // derived stream to create
  uint64_t granularity_chunks = 0;  // aggregation factor
  TimeRange range;               // segment to roll up ({0,0} = everything)

  static void Visit(auto& m, auto& v) {
    v(m.source_uuid, m.target_uuid, m.granularity_chunks, m.range);
  }
  TC_WIRE_MESSAGE(RollupStreamRequest)
};

/// The aligned source chunk range [first_chunk, last_chunk) a rollup
/// covered, so the owner can map derived chunk indices back to source
/// keystream positions.
struct RollupStreamResponse {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;

  static void Visit(auto& m, auto& v) { v(m.first_chunk, m.last_chunk); }
  TC_WIRE_MESSAGE(RollupStreamResponse)
};

struct DeleteRangeRequest {
  uint64_t uuid = 0;
  TimeRange range;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.range); }
  TC_WIRE_MESSAGE(DeleteRangeRequest)
};

struct StreamInfoRequest {
  uint64_t uuid = 0;

  static void Visit(auto& m, auto& v) { v(m.uuid); }
  TC_WIRE_MESSAGE(StreamInfoRequest)
};

struct StreamInfoResponse {
  StreamConfig config;
  uint64_t num_chunks = 0;

  static void Visit(auto& m, auto& v) { v(m.config, m.num_chunks); }
  TC_WIRE_MESSAGE(StreamInfoResponse)
};

// ------------------------------------------------------------- key store

/// A sealed grant stored at the server's key store (§3.2). The server never
/// sees inside `sealed_grant` — it is encrypted to the principal's key.
struct PutGrantRequest {
  uint64_t uuid = 0;
  std::string principal_id;
  uint64_t grant_id = 0;
  Bytes sealed_grant;

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.principal_id, m.grant_id, m.sealed_grant);
  }
  TC_WIRE_MESSAGE(PutGrantRequest)
};

struct FetchGrantsRequest {
  std::string principal_id;

  static void Visit(auto& m, auto& v) { v(m.principal_id); }
  TC_WIRE_MESSAGE(FetchGrantsRequest)
};

struct FetchGrantsResponse {
  struct Entry {
    uint64_t uuid = 0;
    uint64_t grant_id = 0;
    Bytes sealed_grant;

    static void Visit(auto& m, auto& v) {
      v(m.uuid, m.grant_id, m.sealed_grant);
    }
  };
  std::vector<Entry> grants;

  static void Visit(auto& m, auto& v) { v(m.grants); }
  TC_WIRE_MESSAGE(FetchGrantsResponse)
};

struct RevokeGrantRequest {
  uint64_t uuid = 0;
  std::string principal_id;
  uint64_t grant_id = 0;  // 0 = all grants of this principal on this stream

  static void Visit(auto& m, auto& v) { v(m.uuid, m.principal_id, m.grant_id); }
  TC_WIRE_MESSAGE(RevokeGrantRequest)
};

/// Resolution-keystream envelopes (§4.4.2): enc_k̄j(k_{j·r}) blobs stored
/// under (stream, resolution, index).
struct PutEnvelopesRequest {
  uint64_t uuid = 0;
  uint64_t resolution_chunks = 0;
  uint64_t first_index = 0;
  std::vector<Bytes> envelopes;

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.resolution_chunks, m.first_index, m.envelopes);
  }
  TC_WIRE_MESSAGE(PutEnvelopesRequest)
};

struct GetEnvelopesRequest {
  uint64_t uuid = 0;
  uint64_t resolution_chunks = 0;
  uint64_t first_index = 0;
  uint64_t last_index = 0;  // inclusive

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.resolution_chunks, m.first_index, m.last_index);
  }
  TC_WIRE_MESSAGE(GetEnvelopesRequest)
};

struct GetEnvelopesResponse {
  uint64_t first_index = 0;
  std::vector<Bytes> envelopes;

  static void Visit(auto& m, auto& v) { v(m.first_index, m.envelopes); }
  TC_WIRE_MESSAGE(GetEnvelopesResponse)
};

// ---------------------------------------------------- integrity extension
// Attestation blobs stay opaque at the wire layer (encoded/decoded by
// src/integrity) so tc_net does not depend on tc_integrity.

/// Owner publishes a signed stream-head attestation.
struct PutAttestationRequest {
  uint64_t uuid = 0;
  Bytes attestation;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.attestation); }
  TC_WIRE_MESSAGE(PutAttestationRequest)
};

/// Fetch the latest attestation published for a stream.
struct GetAttestationRequest {
  uint64_t uuid = 0;

  static void Visit(auto& m, auto& v) { v(m.uuid); }
  TC_WIRE_MESSAGE(GetAttestationRequest)
};

/// Witnessed chunk read: chunks [first_chunk, last_chunk) together with
/// audit paths against the witness tree over the first `at_size` chunks
/// (the attested prefix the consumer holds a signature for).
struct GetChunkWitnessedRequest {
  uint64_t uuid = 0;
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;
  uint64_t at_size = 0;

  static void Visit(auto& m, auto& v) {
    v(m.uuid, m.first_chunk, m.last_chunk, m.at_size);
  }
  TC_WIRE_MESSAGE(GetChunkWitnessedRequest)
};

struct GetChunkWitnessedResponse {
  struct Entry {
    uint64_t chunk_index = 0;
    Bytes digest_blob;
    Bytes payload;
    Bytes proof;  // integrity::AuditPath wire encoding

    static void Visit(auto& m, auto& v) {
      v(m.chunk_index, m.digest_blob, m.payload, m.proof);
    }
  };
  std::vector<Entry> entries;

  static void Visit(auto& m, auto& v) { v(m.entries); }
  TC_WIRE_MESSAGE(GetChunkWitnessedResponse)
};

// ---------------------------------------------------- replication extension
// Primary→follower log shipping (src/replica). Replicated state is all
// ciphertext and encrypted digests — the server is untrusted end-to-end, so
// copying it to more untrusted nodes changes nothing about confidentiality.

/// Whole records of the primary's log, to be written at the follower's log
/// position (generation, offset): at offset 0 the follower empties its log
/// and is copied from the start; otherwise its log must stand exactly
/// there. Empty `records` write nothing and ask where the follower's log
/// stands. The records start and end on record boundaries and total at
/// most replica::kLogFrameBytes, unless one record alone is larger.
/// `records` views the body it was decoded from.
struct ReplicaLogRequest {
  uint32_t shard = 0;
  uint64_t generation = 0;
  uint64_t offset = 0;
  BytesView records;

  static void Visit(auto& m, auto& v) {
    v(m.shard, m.generation, m.offset, m.records);
  }
  TC_WIRE_MESSAGE(ReplicaLogRequest)
};

/// A follower's log position (store::LogPosition): its reply to kReplicaLog
/// and kReplicaHeartbeat.
struct ReplicaLogAck {
  uint64_t generation = 0;
  uint64_t length = 0;

  static void Visit(auto& m, auto& v) { v(m.generation, m.length); }
  TC_WIRE_MESSAGE(ReplicaLogAck)
};

/// Follower-daemon registration, sent by the follower to the primary's
/// serving port: the protocol it speaks (kReplicaProtocolVersion, first so
/// any later layout can be refused by name), which shard it replicates,
/// where its log stands, a fingerprint of its persisted shard layout so a
/// store formatted for a different cluster shape is rejected (0 = empty
/// store, always accepted), and where the primary should dial back.
struct ReplicaHelloRequest {
  uint8_t version = kReplicaProtocolVersion;
  uint32_t shard = 0;
  /// The follower's total shard count. Placement is a pure hash of
  /// (uuid, N): a follower laid out for a different N would replicate and
  /// serve the wrong subset, so the primary rejects a mismatch outright —
  /// the fingerprint gate only covers non-empty stores.
  uint32_t num_shards = 1;
  uint64_t generation = 0;
  uint64_t length = 0;
  uint64_t store_fingerprint = 0;
  std::string host;
  uint32_t port = 0;

  static void Visit(auto& m, auto& v) {
    v(m.version, m.shard, m.num_shards);
    v.Check(m.shard < m.num_shards,
            "replica hello shard id outside its shard count");
    v(m.generation, m.length, m.store_fingerprint, m.host, m.port);
    v.Check(m.port != 0 && m.port <= 65535,
            "replica hello carries an invalid port");
  }
  TC_WIRE_MESSAGE(ReplicaHelloRequest)
};

struct ReplicaHelloResponse {
  uint64_t log_end = 0;        // length of the shard's primary log
  uint32_t heartbeat_ms = 0;   // primary's heartbeat cadence

  static void Visit(auto& m, auto& v) { v(m.log_end, m.heartbeat_ms); }
  TC_WIRE_MESSAGE(ReplicaHelloResponse)
};

/// Primary → follower liveness beacon carrying the shard's group view:
/// every registered follower endpoint and its progress along the primary's
/// log (store::LogHead::progress). Followers use the last view to elect
/// the most caught-up survivor when the beacons stop (primary loss →
/// automatic promotion).
struct ReplicaHeartbeatRequest {
  struct Peer {
    std::string host;
    uint32_t port = 0;
    uint64_t log_bytes = 0;

    static void Visit(auto& m, auto& v) { v(m.host, m.port, m.log_bytes); }
    friend bool operator==(const Peer&, const Peer&) = default;
  };
  uint32_t shard = 0;
  uint64_t log_end = 0;
  std::vector<Peer> peers;

  static void Visit(auto& m, auto& v) { v(m.shard, m.log_end, m.peers); }
  TC_WIRE_MESSAGE(ReplicaHeartbeatRequest)
};

}  // namespace tc::net
