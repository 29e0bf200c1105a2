// Wire protocol: length-prefixed frames carrying typed request/response
// messages (the prototype's Netty+protobuf layer, §5, rebuilt on POSIX
// sockets with a hand-rolled binary codec).
//
// Frame layout:  u32 body_len | u8 msg_type | u64 request_id |
//                u64 trace_id | u64 parent_span_id | body
// Responses use the same frame with msg_type = kResponse and a body of
// status_code | status_msg | payload.
//
// trace_id / parent_span_id carry the distributed trace context across
// every hop (client → router → shard engine → follower): a server adopts a
// nonzero trace_id as-is (falling back to its origin-derived id otherwise),
// and spans opened while handling the request parent under parent_span_id,
// so `tccli trace` can stitch one tree from spans collected on every
// process that touched the request. Zero means "no context".
//
// The transport API is asynchronous and request-id multiplexed: AsyncCall
// returns a PendingCall immediately, many calls can be in flight on one
// connection, and responses match back to their calls by request id (the
// pipelining the paper's Netty stack gets for free, §5). The TCP server
// answers one connection's requests in send order; other transports (the
// shard router's in-process channels) may complete them in any order.
// Call() is a thin blocking wrapper over AsyncCall for call sites that
// want one round trip.
//
// What each frame type is — its metric/span name, whether it mutates
// state, how a server routes it, whether a replica may answer it — is one
// row of kFrameTypes below; servers read the row and restate none of it.
// Adding a frame type takes one enum value, one row at that value, one
// struct with a Visit field list in net/messages.hpp (which derives its
// Encode and Decode), and one fuzz case in tests/wire_fuzz_test.cpp; then
// an arm in the handler of each server that answers it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace tc::net {

enum class MessageType : uint8_t {
  kResponse = 0,
  kCreateStream = 1,
  kDeleteStream = 2,
  // Value 3 carried kInsertChunk, the one-chunk ingest frame; every chunk
  // now enters a stream through kInsertChunkBatch. It stays reserved so old
  // captures cannot be misparsed.
  kGetRange = 4,
  kGetStatRange = 5,
  kGetStatSeries = 6,
  kRollupStream = 7,
  kDeleteRange = 8,
  kGetStreamInfo = 9,
  kPutGrant = 10,
  kFetchGrants = 11,
  kRevokeGrant = 12,
  kPutEnvelopes = 13,
  kGetEnvelopes = 14,
  kMultiStatRange = 15,
  kPing = 16,
  // Integrity extension (src/integrity): owner-signed stream attestations
  // and Merkle-witnessed chunk reads.
  kPutAttestation = 17,
  kGetAttestation = 18,
  kGetChunkWitnessed = 19,
  // Cluster extension (src/cluster): single-stream ingest (one or many
  // chunks per frame) and per-shard introspection.
  kInsertChunkBatch = 20,
  kClusterInfo = 21,
  // Replication extension (src/replica): primary→follower log shipping.
  // These target a follower's ReplicaApplier endpoint, never the cluster
  // router or a serving engine. Values 22, 23 and 25–27 carried retired
  // frames (op shipping before it grew a shard field, and snapshot
  // streams), and 29 the op shipping kReplicaLog replaced; all stay
  // reserved so old captures cannot be misparsed as new layouts.
  // Follower-daemon topology (src/replica): a follower process registers
  // with the primary (kReplicaHello, sent to the primary's serving port),
  // the primary dials back and ships it its log (kReplicaLog), then keeps
  // it alive with group-status heartbeats.
  kReplicaHello = 24,
  kReplicaHeartbeat = 28,
  // Observability extension (src/common/metrics): snapshot of the
  // process-wide metrics registry (counters, gauges, latency histograms).
  kMetricsInfo = 30,
  // Observability extension (src/common/trace): drain the process-wide
  // span ring (kTraceInfo, optionally filtered to one trace id) and the
  // structured event journal (kEventsInfo). Both are reads: they change no
  // server state.
  kTraceInfo = 31,
  kEventsInfo = 32,
  kReplicaLog = 33,
};

/// How a serving stack (engine, router, follower daemon) reaches the answer
/// to one frame type.
enum class Route : uint8_t {
  kNone,         // not a request: kResponse and unknown or reserved bytes
  kStream,       // the body starts with the owning stream's uuid
  kCluster,      // answered for the whole cluster (scatter-gather, or per
                 // server for Ping and ClusterInfo)
  kProcess,      // answered from this process's metrics registry, span ring
                 // or event journal (net/introspection.hpp)
  kReplication,  // primary<->follower replication; no serving engine's job
};

/// Everything the servers need to know about one frame type.
struct FrameTypeInfo {
  MessageType type;
  /// Stable snake_case name: the `type` label on per-request metrics and the
  /// op name on slow-op trace lines.
  const char* name;
  /// Mutates server state, so no replica may answer it: only a read can be
  /// a replica read (checked below), and a request no row describes counts
  /// as a mutation.
  bool mutation;
  Route route;
  /// A caught-up replica may answer it instead of the primary. Key-store
  /// reads (grants, envelopes, attestations) stay on primaries: replica
  /// engines do not refresh key-store state.
  bool replica_read;
};

/// The row of a byte with no frame type: reserved, or from a newer peer. It
/// is conservatively a mutation.
constexpr FrameTypeInfo UnknownFrameType(uint8_t byte) {
  return {static_cast<MessageType>(byte), "unknown", true, Route::kNone,
          false};
}

/// One row per MessageType, row i describing type i; columns as in
/// FrameTypeInfo. Rollups (which may create the derived stream on another
/// shard) and FetchGrants (a principal's grants span every shard) route as
/// cluster operations.
namespace frame_table {
using enum MessageType;
using enum Route;
// clang-format off
inline constexpr FrameTypeInfo kRows[] = {
  {kResponse,             "response",               false, kNone,        false},
  {kCreateStream,         "create_stream",          true,  kStream,      false},
  {kDeleteStream,         "delete_stream",          true,  kStream,      false},
  UnknownFrameType(3),   // reserved: see the enum
  {kGetRange,             "get_range",              false, kStream,      true},
  {kGetStatRange,         "get_stat_range",         false, kStream,      true},
  {kGetStatSeries,        "get_stat_series",        false, kStream,      true},
  {kRollupStream,         "rollup_stream",          true,  kCluster,     false},
  {kDeleteRange,          "delete_range",           true,  kStream,      false},
  {kGetStreamInfo,        "get_stream_info",        false, kStream,      true},
  {kPutGrant,             "put_grant",              true,  kStream,      false},
  {kFetchGrants,          "fetch_grants",           false, kCluster,     false},
  {kRevokeGrant,          "revoke_grant",           true,  kStream,      false},
  {kPutEnvelopes,         "put_envelopes",          true,  kStream,      false},
  {kGetEnvelopes,         "get_envelopes",          false, kStream,      false},
  {kMultiStatRange,       "multi_stat_range",       false, kCluster,     true},
  {kPing,                 "ping",                   false, kCluster,     false},
  {kPutAttestation,       "put_attestation",        true,  kStream,      false},
  {kGetAttestation,       "get_attestation",        false, kStream,      false},
  {kGetChunkWitnessed,    "get_chunk_witnessed",    false, kStream,      true},
  {kInsertChunkBatch,     "insert_chunk_batch",     true,  kStream,      false},
  {kClusterInfo,          "cluster_info",           false, kCluster,     false},
  UnknownFrameType(22),  // reserved: see the enum
  UnknownFrameType(23),  // reserved: see the enum
  {kReplicaHello,         "replica_hello",          true,  kReplication, false},
  UnknownFrameType(25),  // reserved: see the enum
  UnknownFrameType(26),  // reserved: see the enum
  UnknownFrameType(27),  // reserved: see the enum
  {kReplicaHeartbeat,     "replica_heartbeat",      true,  kReplication, false},
  UnknownFrameType(29),  // reserved: see the enum
  {kMetricsInfo,          "metrics_info",           false, kProcess,     false},
  {kTraceInfo,            "trace_info",             false, kProcess,     false},
  {kEventsInfo,           "events_info",            false, kProcess,     false},
  {kReplicaLog,           "replica_log",            true,  kReplication, false},
};
// clang-format on
}  // namespace frame_table
inline constexpr auto& kFrameTypes = frame_table::kRows;

/// The replication protocol a follower daemon speaks, sent first in its
/// kReplicaHello; a primary refuses any other. Version 1 was the
/// unversioned hello of op shipping and snapshot streams; version 2 ships
/// log bytes (kReplicaLog) and positions followers by log generation and
/// length.
inline constexpr uint8_t kReplicaProtocolVersion = 2;

inline constexpr size_t kNumFrameTypes = std::size(kFrameTypes);
inline constexpr FrameTypeInfo kUnknownFrameType =
    UnknownFrameType(kNumFrameTypes);

/// The row for `type`: one array index; every byte past the table reads
/// kUnknownFrameType.
constexpr const FrameTypeInfo& FrameType(MessageType type) {
  auto i = static_cast<size_t>(type);
  return i < kNumFrameTypes ? kFrameTypes[i] : kUnknownFrameType;
}

namespace detail {
constexpr bool FrameTableIsWellFormed() {
  for (size_t i = 0; i < kNumFrameTypes; ++i) {
    const FrameTypeInfo& row = kFrameTypes[i];
    // Row i describes type i: a deleted or misplaced row would be indexed as
    // its neighbour.
    if (static_cast<size_t>(row.type) != i) return false;
    if (row.replica_read && (row.mutation || row.route == Route::kNone)) {
      return false;
    }
  }
  return true;
}
}  // namespace detail

static_assert(detail::FrameTableIsWellFormed(),
              "kFrameTypes: row i must describe MessageType i, and only "
              "non-mutating requests may be replica reads");
// A metrics scrape only reads the process's registry: it must never be
// classed with the requests that change server state.
static_assert(!FrameType(MessageType::kMetricsInfo).mutation,
              "kMetricsInfo must be a read");

/// FrameType(type).name; "unknown" for bytes with no frame type.
inline const char* MessageTypeName(MessageType type) {
  return FrameType(type).name;
}

/// Server-side dispatch: handle one decoded request, produce a response
/// payload. Implementations must be thread-safe — the TCP server runs the
/// requests of different connections concurrently, each on its
/// connection's reader thread.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual Result<Bytes> Handle(MessageType type, BytesView body) = 0;
};

namespace detail {
struct CallState;
}

/// Completion handle for one asynchronous transport call. Cheap to copy
/// (shared state); safe to Wait from any thread, and safe to keep after the
/// transport that issued it is destroyed (the transport fails its pending
/// calls before going away).
class PendingCall {
 public:
  /// Default-constructed handles are empty; Wait() on one reports Internal.
  PendingCall() = default;

  /// Block until the response (or the transport error that replaced it)
  /// arrives. Idempotent — repeated waits return the same result.
  [[nodiscard]] Result<Bytes> Wait() const;

  /// Non-blocking probe: the result if the call has completed, nullopt
  /// while still in flight.
  [[nodiscard]] std::optional<Result<Bytes>> TryGet() const;

  /// True once the call has a result.
  bool done() const;

 private:
  friend class CallCompleter;
  explicit PendingCall(std::shared_ptr<detail::CallState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CallState> state_;
};

/// Completion callback, invoked exactly once when the call completes — on
/// the transport's reader thread (TcpClient), an executor thread (shard
/// channels), or inline inside AsyncCall (InProcTransport, transport
/// errors). Must not block and must not call back into the transport.
using CallCallback = std::function<void(const Result<Bytes>&)>;

/// Producer side of a PendingCall: transports make one per request and
/// complete it when the response (or a connection error) arrives. Copyable;
/// the first Complete wins, later ones are ignored.
class CallCompleter {
 public:
  explicit CallCompleter(CallCallback callback = nullptr);

  PendingCall pending() const { return PendingCall(state_); }
  void Complete(Result<Bytes> result) const;

 private:
  std::shared_ptr<detail::CallState> state_;
};

/// Client-side transport. AsyncCall sends one request and returns a handle
/// immediately; implementations support many concurrent in-flight calls
/// (the request body is consumed before AsyncCall returns — the view need
/// not outlive the call). Both entry points are thread-safe in all
/// implementations.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual PendingCall AsyncCall(MessageType type, BytesView body,
                                CallCallback on_done = nullptr) = 0;

  /// Blocking convenience wrapper: one request, await its response.
  Result<Bytes> Call(MessageType type, BytesView body) {
    AssertBlockingAllowed();
    return AsyncCall(type, body).Wait();
  }
};

/// Zero-copy in-process transport: directly invokes the handler; the call
/// completes before AsyncCall returns. Used by microbenchmarks (the paper's
/// microbenchmarks exclude network delay) and by tests that don't need
/// sockets.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::shared_ptr<RequestHandler> handler)
      : handler_(std::move(handler)) {}

  PendingCall AsyncCall(MessageType type, BytesView body,
                        CallCallback on_done = nullptr) override {
    CallCompleter completer(std::move(on_done));
    completer.Complete(handler_->Handle(type, body));
    return completer.pending();
  }

 private:
  std::shared_ptr<RequestHandler> handler_;
};

/// Fixed frame header as it appears on the wire (exposed for tests and the
/// frame fuzzers).
struct FrameHeader {
  uint32_t body_len = 0;
  MessageType type = MessageType::kResponse;
  uint64_t request_id = 0;
  // Distributed trace context (0 = none): the origin trace id and the span
  // the request descends from on the sending process.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

inline constexpr size_t kFrameHeaderBytes = 29;

/// Default per-frame body cap. The header's body_len is attacker-controlled
/// u32; every decoder bounds it before allocating (both transport ends take
/// a configurable max).
inline constexpr size_t kDefaultMaxFrameBody = 512u << 20;

/// Decode the fixed 29-byte header, rejecting bodies larger than `max_body`
/// with a clean status (never an allocation).
Result<FrameHeader> DecodeFrameHeader(BytesView header,
                                      size_t max_body = kDefaultMaxFrameBody);

/// Encode a frame (request or response) into bytes ready for the socket.
/// trace_id/parent_span_id default to 0 ("no context") — the TCP client
/// stamps the caller's live trace context on outgoing requests.
Bytes EncodeFrame(MessageType type, uint64_t request_id, BytesView body,
                  uint64_t trace_id = 0, uint64_t parent_span_id = 0);

/// Encode the standard response body.
Bytes EncodeResponseBody(const Status& status, BytesView payload);

/// Decode a response body back into (status, payload).
Result<Bytes> DecodeResponseBody(BytesView body);

}  // namespace tc::net
