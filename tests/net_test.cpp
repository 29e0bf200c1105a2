// Wire protocol tests: frame/response encoding, message codec round trips
// for every request type, real TCP loopback exchanges, and the multiplexed
// transport (many in-flight AsyncCalls on one socket, out-of-order
// completion at the client, in-order serving per connection at the server,
// error fan-out, hostile framing, reader-thread reaping).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/metrics.hpp"
#include "net/messages.hpp"
#include "net/metrics_http.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "tests/support/helpers.hpp"

namespace tc::net {
namespace {

using testing::HttpGet;

TEST(Wire, ResponseBodyRoundTripOk) {
  Bytes payload = ToBytes("result");
  Bytes body = EncodeResponseBody(Status::Ok(), payload);
  auto decoded = DecodeResponseBody(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(Wire, ResponseBodyCarriesError) {
  Bytes body = EncodeResponseBody(NotFound("missing"), {});
  auto decoded = DecodeResponseBody(body);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status().message(), "missing");
}

// The full read/write classification of the frame table's mutation column
// (only reads may be replica reads). Every frame type is listed: a new
// MessageType must be added to one of these tables (and to the frame-type
// table in net/wire.hpp — a static_assert and tools/lint/tc_lint.py both
// enforce that) or this test fails, which is the point.
TEST(Wire, MutationColumnClassifiesEveryMessageType) {
  const MessageType mutations[] = {
      MessageType::kCreateStream,        MessageType::kDeleteStream,
      MessageType::kRollupStream,        MessageType::kDeleteRange,
      MessageType::kPutGrant,            MessageType::kRevokeGrant,
      MessageType::kPutEnvelopes,        MessageType::kPutAttestation,
      MessageType::kInsertChunkBatch,
      MessageType::kReplicaHello,        MessageType::kReplicaHeartbeat,
      MessageType::kReplicaLog,
  };
  const MessageType reads[] = {
      MessageType::kResponse,       MessageType::kGetRange,
      MessageType::kGetStatRange,   MessageType::kGetStatSeries,
      MessageType::kGetStreamInfo,  MessageType::kFetchGrants,
      MessageType::kGetEnvelopes,   MessageType::kMultiStatRange,
      MessageType::kPing,           MessageType::kGetAttestation,
      MessageType::kGetChunkWitnessed, MessageType::kClusterInfo,
      MessageType::kMetricsInfo,
      // Trace and event queries only drain this process's span ring and
      // event journal.
      MessageType::kTraceInfo,         MessageType::kEventsInfo,
  };
  for (MessageType type : mutations) {
    EXPECT_TRUE(FrameType(type).mutation)
        << "type " << static_cast<int>(type) << " must be a mutation";
  }
  for (MessageType type : reads) {
    EXPECT_FALSE(FrameType(type).mutation)
        << "type " << static_cast<int>(type) << " must be a read";
  }
  // An out-of-enum byte (a frame from a newer peer) must classify as a
  // mutation: treating an unknown request as a read is the unsafe guess.
  EXPECT_TRUE(FrameType(static_cast<MessageType>(0xEE)).mutation);
}

// Row names label metrics and trace spans: one snake_case name per frame
// type. Bytes with no frame type — the reserved ones and any past the
// enum — share the "unknown" row and classify as mutations.
TEST(Wire, FrameTypeRowsHaveUniqueSnakeCaseNames) {
  // Retired frame types: ingest of one chunk, and replication by ops and
  // snapshot streams.
  const std::set<int> kReserved = {3, 22, 23, 25, 26, 27, 29};
  std::set<std::string> names;
  for (const FrameTypeInfo& row : kFrameTypes) {
    std::string name = row.name;
    auto byte = static_cast<int>(row.type);
    if (kReserved.contains(byte)) {
      EXPECT_EQ(name, "unknown");
      continue;
    }
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    ASSERT_FALSE(name.empty()) << "type " << byte;
    EXPECT_TRUE(name.front() >= 'a' && name.front() <= 'z') << name;
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    }
    EXPECT_NE(name, "unknown") << "type " << byte;
  }
  for (int byte : {3, 22, 23, 25, 26, 27, 29, 0xEE}) {
    auto type = static_cast<MessageType>(byte);
    EXPECT_STREQ(MessageTypeName(type), "unknown") << "byte " << byte;
    EXPECT_TRUE(FrameType(type).mutation) << "byte " << byte;
  }
}

TEST(Wire, FrameLayout) {
  // u32 body_len | u8 type | u64 request_id | u64 trace_id | u64 parent —
  // 29 header bytes before the body.
  Bytes frame = EncodeFrame(MessageType::kPing, 42, ToBytes("xy"));
  ASSERT_EQ(kFrameHeaderBytes, 29u);
  ASSERT_EQ(frame.size(), 29u + 2u);
  // body_len little-endian
  EXPECT_EQ(frame[0], 2);
  EXPECT_EQ(frame[4], static_cast<uint8_t>(MessageType::kPing));
  // An unstamped frame carries a zero trace context.
  for (size_t i = 13; i < 29; ++i) EXPECT_EQ(frame[i], 0) << "byte " << i;
}

StreamConfig SampleConfig() {
  StreamConfig c;
  c.name = "hr/device-1";
  c.t0 = 1700000000000;
  c.delta_ms = 10'000;
  c.schema.with_sum = c.schema.with_count = true;
  c.schema.with_sumsq = true;
  c.schema.hist_bins = 8;
  c.schema.hist_min = 0;
  c.schema.hist_width = 250;
  c.cipher = CipherKind::kHeac;
  c.fanout = 64;
  c.compression = 1;
  return c;
}

TEST(Messages, CreateStreamRoundTrip) {
  CreateStreamRequest req{99, SampleConfig()};
  auto back = CreateStreamRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuid, 99u);
  EXPECT_EQ(back->config, req.config);
}

TEST(Messages, InsertChunkBatchRoundTrip) {
  const Bytes digest{1, 2, 3};
  const Bytes payload{9, 9};
  InsertChunkBatchRequest req{7, {{123, digest, payload}}};
  const Bytes body = req.Encode();
  auto back = InsertChunkBatchRequest::Decode(body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuid, 7u);
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].chunk_index, 123u);
  EXPECT_EQ(ToHex(back->entries[0].digest_blob), ToHex(digest));
  EXPECT_EQ(ToHex(back->entries[0].payload), ToHex(payload));
  // The decoded entries are views into the body.
  EXPECT_EQ(back->entries[0].digest_blob.data(), body.data() + 18);
  EXPECT_EQ(back->entries[0].payload.data(), body.data() + 22);
}

TEST(Messages, StatRangeRoundTrip) {
  StatRangeRequest req{5, {100, 200}};
  auto back = StatRangeRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->range, (TimeRange{100, 200}));

  StatRangeResponse resp{10, 20, Bytes{5, 6, 7}};
  auto rback = StatRangeResponse::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->first_chunk, 10u);
  EXPECT_EQ(rback->last_chunk, 20u);
  EXPECT_EQ(rback->aggregate_blob, resp.aggregate_blob);
}

TEST(Messages, SeriesRoundTrip) {
  StatSeriesResponse resp;
  resp.first_chunk = 4;
  resp.granularity_chunks = 6;
  resp.aggregates = {Bytes{1}, Bytes{2, 2}, Bytes{3, 3, 3}};
  auto back = StatSeriesResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggregates.size(), 3u);
  EXPECT_EQ(back->aggregates[2], (Bytes{3, 3, 3}));
}

TEST(Messages, MultiStatRoundTrip) {
  MultiStatRangeRequest req{{1, 2, 3}, {0, 500}};
  auto back = MultiStatRangeRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuids, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(Messages, GrantMessagesRoundTrip) {
  PutGrantRequest put{8, "dr-alice", 3, Bytes{0xaa, 0xbb}};
  auto pback = PutGrantRequest::Decode(put.Encode());
  ASSERT_TRUE(pback.ok());
  EXPECT_EQ(pback->principal_id, "dr-alice");

  FetchGrantsResponse fetch;
  fetch.grants.push_back({8, 3, Bytes{0xaa}});
  auto fback = FetchGrantsResponse::Decode(fetch.Encode());
  ASSERT_TRUE(fback.ok());
  ASSERT_EQ(fback->grants.size(), 1u);
  EXPECT_EQ(fback->grants[0].grant_id, 3u);

  RevokeGrantRequest rev{8, "dr-alice", 0};
  auto rback = RevokeGrantRequest::Decode(rev.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->grant_id, 0u);
}

TEST(Messages, EnvelopeMessagesRoundTrip) {
  PutEnvelopesRequest put{4, 6, 10, {Bytes{1}, Bytes{2}}};
  auto pback = PutEnvelopesRequest::Decode(put.Encode());
  ASSERT_TRUE(pback.ok());
  EXPECT_EQ(pback->envelopes.size(), 2u);

  GetEnvelopesRequest get{4, 6, 10, 11};
  auto gback = GetEnvelopesRequest::Decode(get.Encode());
  ASSERT_TRUE(gback.ok());
  EXPECT_EQ(gback->last_index, 11u);
}

TEST(Messages, RollupAndDeleteRoundTrip) {
  RollupStreamRequest roll{1, 2, 6, {0, 0}};
  auto rback = RollupStreamRequest::Decode(roll.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->granularity_chunks, 6u);
  // The reply is the aligned source range as two fixed-width u64s.
  EXPECT_EQ(ToHex(RollupStreamResponse{3, 9}.Encode()),
            "03000000000000000900000000000000");

  DeleteRangeRequest del{1, {5, 10}};
  auto dback = DeleteRangeRequest::Decode(del.Encode());
  ASSERT_TRUE(dback.ok());
  EXPECT_EQ(dback->range, (TimeRange{5, 10}));
}

TEST(Messages, ReplicaHandshakeRoundTrip) {
  ReplicaHelloRequest hello;
  hello.shard = 3;
  hello.num_shards = 4;
  hello.generation = 0x1122334455667788ULL;
  hello.length = 512;
  hello.store_fingerprint = 0xabcdef;
  hello.host = "10.0.0.7";
  hello.port = 4434;
  // The protocol version leads, so a primary can refuse another layout by
  // name; then shard, shard count, the log position (generation, length),
  // the fingerprint, the dial-back host and port.
  EXPECT_EQ(kReplicaProtocolVersion, 2u);
  EXPECT_EQ(ToHex(hello.Encode()),
            "02"
            "03000000"
            "04000000"
            "8877665544332211"
            "0002000000000000"
            "efcdab0000000000"
            "0831302e302e302e37"
            "52110000");
  auto hback = ReplicaHelloRequest::Decode(hello.Encode());
  ASSERT_TRUE(hback.ok());
  EXPECT_EQ(hback->version, kReplicaProtocolVersion);
  EXPECT_EQ(hback->shard, 3u);
  EXPECT_EQ(hback->num_shards, 4u);
  EXPECT_EQ(hback->generation, 0x1122334455667788ULL);
  EXPECT_EQ(hback->length, 512u);
  EXPECT_EQ(hback->store_fingerprint, 0xabcdefu);
  EXPECT_EQ(hback->host, "10.0.0.7");
  EXPECT_EQ(hback->port, 4434u);

  // A shard id outside its own shard count is malformed on its face.
  hello.num_shards = 2;
  EXPECT_EQ(ReplicaHelloRequest::Decode(hello.Encode()).status().code(),
            StatusCode::kInvalidArgument);

  ReplicaHelloResponse resp{99, 500};
  auto rback = ReplicaHelloResponse::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->log_end, 99u);
  EXPECT_EQ(rback->heartbeat_ms, 500u);

  ReplicaHeartbeatRequest beat;
  beat.shard = 1;
  beat.log_end = 77;
  beat.peers = {{"10.0.0.7", 4434, 70}, {"10.0.0.8", 4435, 77}};
  auto bback = ReplicaHeartbeatRequest::Decode(beat.Encode());
  ASSERT_TRUE(bback.ok());
  EXPECT_EQ(bback->log_end, 77u);
  ASSERT_EQ(bback->peers.size(), 2u);
  EXPECT_EQ(bback->peers[1], beat.peers[1]);
}

TEST(Messages, ReplicaLogBytesArePinned) {
  // Shard, the position to write at (generation, offset), then the log's
  // own bytes, length-prefixed; the ack is the position after.
  const Bytes records = {0x01, 0x01, 'a', 0x01, 'x'};
  ReplicaLogRequest frame{2, 0x0102030405060708ULL, 40, records};
  EXPECT_EQ(ToHex(frame.Encode()),
            "02000000"
            "0807060504030201"
            "2800000000000000"
            "050101610178");
  Bytes body = frame.Encode();
  auto back = ReplicaLogRequest::Decode(body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard, 2u);
  EXPECT_EQ(back->generation, 0x0102030405060708ULL);
  EXPECT_EQ(back->offset, 40u);
  EXPECT_EQ(Bytes(back->records.begin(), back->records.end()), records);

  ReplicaLogAck ack{0x0102030405060708ULL, 45};
  EXPECT_EQ(ToHex(ack.Encode()), "08070605040302012d00000000000000");
  auto aback = ReplicaLogAck::Decode(ack.Encode());
  ASSERT_TRUE(aback.ok());
  EXPECT_EQ(aback->length, 45u);
}

TEST(Messages, ClusterInfoCarriesFailoverHealth) {
  ClusterInfoResponse resp;
  ClusterInfoResponse::ShardInfo shard;
  shard.shard = 4;
  shard.num_streams = 10;
  shard.index_bytes = 4096;
  shard.replicas = 2;
  shard.ack_mode = ClusterInfoResponse::kAckQuorum;
  shard.max_lag_bytes = 3;
  shard.remote_followers = 2;
  shard.auto_failover = 1;
  shard.promotions = 1;
  shard.full_copies = 640;
  shard.store_dead_bytes = 123456;
  shard.store_compactions = 7;
  resp.shards.push_back(shard);
  auto back = ClusterInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->shards.size(), 1u);
  EXPECT_EQ(back->shards[0].remote_followers, 2u);
  EXPECT_EQ(back->shards[0].auto_failover, 1u);
  EXPECT_EQ(back->shards[0].promotions, 1u);
  EXPECT_EQ(back->shards[0].full_copies, 640u);
  EXPECT_EQ(back->shards[0].store_dead_bytes, 123456u);
  EXPECT_EQ(back->shards[0].store_compactions, 7u);
}

TEST(Messages, MetricsInfoRoundTrip) {
  MetricsInfoResponse resp;
  MetricsInfoResponse::Entry counter;
  counter.kind = MetricsInfoResponse::kCounter;
  counter.name = "tc_server_requests_total";
  counter.labels = "type=\"insert_chunk_batch\"";
  counter.value = 12345;
  resp.entries.push_back(counter);
  MetricsInfoResponse::Entry gauge;
  gauge.kind = MetricsInfoResponse::kGauge;
  gauge.name = "tc_replica_lag_bytes";
  gauge.labels = "shard=\"3\"";
  gauge.value = -7;  // gauges are signed; the codec must not round-trip
                     // through an unsigned narrowing
  resp.entries.push_back(gauge);
  MetricsInfoResponse::Entry hist;
  hist.kind = MetricsInfoResponse::kHistogram;
  hist.name = "tc_server_request_seconds";
  hist.labels = "type=\"get_stat_range\"";
  hist.count = 100;
  hist.sum = 123456;
  hist.max = 9001;
  hist.p50 = 127;
  hist.p95 = 2047;
  hist.p99 = 4095;
  resp.entries.push_back(hist);

  auto back = MetricsInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->entries.size(), 3u);
  EXPECT_EQ(back->entries[0].kind, MetricsInfoResponse::kCounter);
  EXPECT_EQ(back->entries[0].name, "tc_server_requests_total");
  EXPECT_EQ(back->entries[0].labels, "type=\"insert_chunk_batch\"");
  EXPECT_EQ(back->entries[0].value, 12345);
  EXPECT_EQ(back->entries[1].value, -7);
  EXPECT_EQ(back->entries[2].count, 100u);
  EXPECT_EQ(back->entries[2].max, 9001u);
  EXPECT_EQ(back->entries[2].p50, 127u);
  EXPECT_EQ(back->entries[2].p99, 4095u);
}

TEST(Messages, MetricsInfoRejectsUnknownKind) {
  MetricsInfoResponse resp;
  MetricsInfoResponse::Entry e;
  e.kind = MetricsInfoResponse::kCounter;
  e.name = "tc_x_total";
  resp.entries.push_back(e);
  Bytes enc = resp.Encode();
  // The kind byte follows the entry-count varint (count 1 encodes as one
  // byte); corrupt it to an undefined kind.
  enc[1] = 0x7F;
  EXPECT_FALSE(MetricsInfoResponse::Decode(enc).ok());
}

TEST(Messages, TraceInfoRoundTrip) {
  TraceInfoRequest req{0xfeed, 1};
  auto qback = TraceInfoRequest::Decode(req.Encode());
  ASSERT_TRUE(qback.ok());
  EXPECT_EQ(qback->trace_id, 0xfeedu);
  EXPECT_EQ(qback->slow_only, 1u);
  // slow_only is a boolean flag: anything above 1 is malformed.
  BinaryWriter w;
  w.PutU64(0xfeed);
  w.PutU8(9);
  EXPECT_EQ(TraceInfoRequest::Decode(w.data()).status().code(),
            StatusCode::kInvalidArgument);

  TraceInfoResponse resp;
  TraceInfoResponse::Span span;
  span.trace_id = 0xfeed;
  span.span_id = 21;
  span.parent_span_id = 9;
  span.op = "router_dispatch";
  span.msg_type = 11;
  span.shard = 0xffffffffu;
  span.start_us = 1'700'000'000'123'456;
  span.duration_us = 812;
  span.slow = 1;
  resp.spans.push_back(span);
  resp.dropped = 3;
  auto back = TraceInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->spans.size(), 1u);
  EXPECT_EQ(back->spans[0].trace_id, 0xfeedu);
  EXPECT_EQ(back->spans[0].span_id, 21u);
  EXPECT_EQ(back->spans[0].parent_span_id, 9u);
  EXPECT_EQ(back->spans[0].op, "router_dispatch");
  EXPECT_EQ(back->spans[0].msg_type, 11u);
  EXPECT_EQ(back->spans[0].shard, 0xffffffffu);
  EXPECT_EQ(back->spans[0].start_us, 1'700'000'000'123'456);
  EXPECT_EQ(back->spans[0].duration_us, 812u);
  EXPECT_EQ(back->spans[0].slow, 1u);
  EXPECT_EQ(back->dropped, 3u);
}

TEST(Messages, EventsInfoRoundTrip) {
  EventsInfoRequest req{42};
  auto qback = EventsInfoRequest::Decode(req.Encode());
  ASSERT_TRUE(qback.ok());
  EXPECT_EQ(qback->min_seq, 42u);

  EventsInfoResponse resp;
  resp.events.push_back({7, 1'700'000'000'000, "takeover_election", 2,
                         "silent_ms=3000 candidates=2"});
  resp.dropped = 1;
  auto back = EventsInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->events.size(), 1u);
  EXPECT_EQ(back->events[0].seq, 7u);
  EXPECT_EQ(back->events[0].wall_ms, 1'700'000'000'000);
  EXPECT_EQ(back->events[0].kind, "takeover_election");
  EXPECT_EQ(back->events[0].shard, 2u);
  EXPECT_EQ(back->events[0].detail, "silent_ms=3000 candidates=2");
  EXPECT_EQ(back->dropped, 1u);
}

TEST(Messages, TruncatedDecodesFail) {
  CreateStreamRequest req{99, SampleConfig()};
  Bytes enc = req.Encode();
  enc.resize(enc.size() / 2);
  EXPECT_FALSE(CreateStreamRequest::Decode(enc).ok());
}

/// Echo handler for transport tests.
class EchoHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    if (type == MessageType::kPing) return Bytes(body.begin(), body.end());
    return InvalidArgument("echo only answers pings");
  }
};

TEST(InProc, CallRoundTrip) {
  InProcTransport t(std::make_shared<EchoHandler>());
  auto reply = t.Call(MessageType::kPing, ToBytes("hello"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ToString(*reply), "hello");
  EXPECT_FALSE(t.Call(MessageType::kGetRange, {}).ok());
}

TEST(Tcp, LoopbackRoundTrip) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto reply = (*client)->Call(MessageType::kPing, ToBytes("over tcp"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ToString(*reply), "over tcp");

  // Errors propagate as status, connection stays usable.
  EXPECT_FALSE((*client)->Call(MessageType::kGetRange, {}).ok());
  auto again = (*client)->Call(MessageType::kPing, ToBytes("still alive"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(*again), "still alive");
  server.Stop();
}

TEST(Tcp, MultipleClients) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = TcpClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto reply = (*client)->Call(MessageType::kPing, ToBytes(msg));
        if (reply.ok() && ToString(*reply) == msg) ++ok_count;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
  server.Stop();
}

TEST(Tcp, ConnectToClosedPortFails) {
  auto client = TcpClient::Connect("127.0.0.1", 1);  // reserved port
  EXPECT_FALSE(client.ok());
}

// ------------------------------------------------ multiplexed transport

TEST(Async, InProcCompletesBeforeReturning) {
  InProcTransport t(std::make_shared<EchoHandler>());
  std::atomic<bool> callback_ran{false};
  auto call = t.AsyncCall(MessageType::kPing, ToBytes("now"),
                          [&](const Result<Bytes>& r) {
                            callback_ran = r.ok() && ToString(*r) == "now";
                          });
  EXPECT_TRUE(call.done());
  EXPECT_TRUE(callback_ran.load());
  auto probe = call.TryGet();
  ASSERT_TRUE(probe.has_value());
  ASSERT_TRUE(probe->ok());
  EXPECT_EQ(ToString(**probe), "now");
  EXPECT_EQ(ToString(*call.Wait()), "now");  // Wait is idempotent
}

TEST(Async, EmptyPendingCallReportsInternal) {
  PendingCall empty;
  EXPECT_FALSE(empty.done());
  EXPECT_EQ(empty.Wait().status().code(), StatusCode::kInternal);
}

/// Handler that parks requests on per-tag gates: kGetStatRange with a
/// 1-byte body blocks until that tag is released (deterministic slowness —
/// no sleeps), kPing echoes immediately, kInsertChunkBatch records its
/// body's first byte in arrival order.
class GateHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    if (type == MessageType::kPing) return Bytes(body.begin(), body.end());
    if (type == MessageType::kInsertChunkBatch) {
      std::lock_guard lock(mu_);
      mutation_order_.push_back(body.empty() ? 0xff : body[0]);
      return Bytes{};
    }
    if (type != MessageType::kGetStatRange) {
      return InvalidArgument("gate handler: unsupported type");
    }
    uint8_t tag = body.empty() ? 0 : body[0];
    std::unique_lock lock(mu_);
    ++entered_;
    entry_order_.push_back(tag);
    max_concurrent_ = std::max(max_concurrent_, entered_);
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_.count(tag) > 0; });
    --entered_;
    return Bytes{tag};
  }

  void Release(uint8_t tag) {
    std::lock_guard lock(mu_);
    released_.insert(tag);
    release_cv_.notify_all();
  }

  void ReleaseAll() {
    std::lock_guard lock(mu_);
    for (int t = 0; t < 256; ++t) released_.insert(static_cast<uint8_t>(t));
    release_cv_.notify_all();
  }

  /// Block until `n` gated requests are inside the handler concurrently.
  void WaitEntered(size_t n) {
    std::unique_lock lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  size_t max_concurrent() {
    std::lock_guard lock(mu_);
    return max_concurrent_;
  }

  /// Tags of the gated requests, in the order they entered the handler.
  std::vector<uint8_t> entry_order() {
    std::lock_guard lock(mu_);
    return entry_order_;
  }

  std::vector<uint8_t> mutation_order() {
    std::lock_guard lock(mu_);
    return mutation_order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_, release_cv_;
  std::set<uint8_t> released_;
  size_t entered_ = 0;
  size_t max_concurrent_ = 0;
  std::vector<uint8_t> entry_order_;
  std::vector<uint8_t> mutation_order_;
};

TEST(Tcp, PipelinedCallsOnOneConnectionAreServedOneAtATimeInSendOrder) {
  // Completion callbacks run on the client's reader thread in the order the
  // responses arrive. Declared first: the client outlives them otherwise.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint8_t> completion_order;
  auto gate = std::make_shared<GateHandler>();
  TcpServer server(gate, 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Eight calls pipelined on ONE socket.
  std::vector<PendingCall> calls;
  for (uint8_t tag = 0; tag < 8; ++tag) {
    calls.push_back((*client)->AsyncCall(
        MessageType::kGetStatRange, Bytes{tag},
        [&mu, &cv, &completion_order, tag](const Result<Bytes>&) {
          std::lock_guard lock(mu);
          completion_order.push_back(tag);
          cv.notify_all();
        }));
  }
  gate->WaitEntered(1);
  EXPECT_EQ(gate->entry_order(), (std::vector<uint8_t>{0}));

  // Release the later tags first: none can overtake the parked first call,
  // because the connection's reader holds one frame at a time.
  for (int tag = 7; tag >= 0; --tag) gate->Release(static_cast<uint8_t>(tag));
  for (uint8_t tag = 0; tag < 8; ++tag) {
    auto result = calls[tag].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0], tag);
  }
  const std::vector<uint8_t> in_order = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(gate->entry_order(), in_order);
  EXPECT_EQ(gate->max_concurrent(), 1u);
  // A call's waiter can wake before its callback has run.
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return completion_order.size() == 8; });
  EXPECT_EQ(completion_order, in_order);
  server.Stop();
}

TEST(Tcp, EightConnectionsAreInsideTheHandlerAtOnce) {
  auto gate = std::make_shared<GateHandler>();
  TcpServer server(gate, 0);
  ASSERT_TRUE(server.Start().ok());

  // One parked call per connection: each connection's reader runs its own
  // handler, so all eight are inside it at once.
  std::vector<std::unique_ptr<TcpClient>> clients;
  std::vector<PendingCall> calls;
  for (uint8_t tag = 0; tag < 8; ++tag) {
    auto client = TcpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    calls.push_back(
        (*client)->AsyncCall(MessageType::kGetStatRange, Bytes{tag}));
    clients.push_back(std::move(*client));
  }
  gate->WaitEntered(8);
  EXPECT_EQ(gate->max_concurrent(), 8u);
  for (const auto& call : calls) EXPECT_FALSE(call.done());

  gate->ReleaseAll();
  for (uint8_t tag = 0; tag < 8; ++tag) {
    auto result = calls[tag].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0], tag);
  }
  server.Stop();
}

TEST(Tcp, SlowQueryDoesNotHeadOfLineBlockPing) {
  auto gate = std::make_shared<GateHandler>();
  TcpServer server(gate, 0);
  ASSERT_TRUE(server.Start().ok());
  auto slow_client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow_client.ok());
  auto ping_client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(ping_client.ok());

  // A deliberately slow query, parked server-side...
  auto slow = (*slow_client)->AsyncCall(MessageType::kGetStatRange, Bytes{9});
  gate->WaitEntered(1);

  // ...must not delay a Ping on a second connection: this blocking Call
  // completes while the query is still parked (no timing involved — the
  // query cannot finish until we release it below).
  auto ping = (*ping_client)->Call(MessageType::kPing, ToBytes("urgent"));
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ToString(*ping), "urgent");
  EXPECT_FALSE(slow.done());

  gate->Release(9);
  auto result = slow.Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 9);
  server.Stop();
}

TEST(Tcp, PipelinedMutationsApplyInSendOrder) {
  auto gate = std::make_shared<GateHandler>();
  TcpServer server(gate, 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Ten pipelined mutations; the server must apply them in exactly the
  // order they were sent (batch N+1 may not overtake batch N), even with
  // reads interleaved.
  std::vector<PendingCall> calls;
  for (uint8_t i = 0; i < 10; ++i) {
    calls.push_back(
        (*client)->AsyncCall(MessageType::kInsertChunkBatch, Bytes{i}));
    if (i % 3 == 0) {
      ASSERT_TRUE((*client)->Call(MessageType::kPing, {}).ok());
    }
  }
  for (auto& call : calls) ASSERT_TRUE(call.Wait().ok());
  EXPECT_EQ(gate->mutation_order(),
            (std::vector<uint8_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  server.Stop();
}

TEST(Tcp, CompletionCallbackFires) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Bytes payload;
  (*client)->AsyncCall(MessageType::kPing, ToBytes("cb"),
                       [&](const Result<Bytes>& r) {
                         std::lock_guard lock(mu);
                         fired = true;
                         if (r.ok()) payload = *r;
                         cv.notify_all();
                       });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired; });
  EXPECT_EQ(ToString(payload), "cb");
  server.Stop();
}

/// Scripted raw peer: accepts one connection and lets the test read
/// request frames / write arbitrary response bytes — for protocol
/// violations a real TcpServer would never produce.
class RawServer {
 public:
  RawServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      std::abort();
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }

  ~RawServer() {
    CloseConn();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  void Accept() { conn_fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  /// Read one request frame; returns its header and, into `body` when
  /// given, its body (abort on malformed input, which no test intends to
  /// send).
  FrameHeader ReadRequest(Bytes* body = nullptr) {
    auto header = TryReadRequest(body);
    if (!header) std::abort();
    return *header;
  }

  /// Like ReadRequest, but a closed/failed connection returns nullopt
  /// (tests that race the client's error paths use this).
  std::optional<FrameHeader> TryReadRequest(Bytes* body = nullptr) {
    Bytes header(kFrameHeaderBytes);
    if (!ReadExact(conn_fd_, header).ok()) return std::nullopt;
    auto decoded = DecodeFrameHeader(header);
    if (!decoded.ok()) return std::nullopt;
    Bytes read_body(decoded->body_len);
    if (!ReadExact(conn_fd_, read_body).ok()) return std::nullopt;
    if (body != nullptr) *body = std::move(read_body);
    return *decoded;
  }

  // Write failures are ignored: tests racing the client's teardown paths
  // may legitimately write into a just-shutdown socket.
  void WriteResponse(uint64_t request_id, BytesView payload) {
    Bytes frame = EncodeFrame(MessageType::kResponse, request_id,
                              EncodeResponseBody(Status::Ok(), payload));
    (void)WriteAll(conn_fd_, frame);
  }

  void WriteRaw(BytesView raw) { (void)WriteAll(conn_fd_, raw); }

  void CloseConn() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    conn_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(Tcp, EightInFlightCallsCompleteOutOfOrder) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  // Eight pipelined requests on ONE socket, all read by the peer before it
  // answers any — the client's multiplexing acceptance bar.
  std::vector<PendingCall> calls;
  for (uint8_t tag = 0; tag < 8; ++tag) {
    calls.push_back(
        (*client)->AsyncCall(MessageType::kGetStatRange, Bytes{tag}));
  }
  std::vector<std::pair<uint64_t, Bytes>> requests;
  for (int i = 0; i < 8; ++i) {
    Bytes body;
    uint64_t id = raw.ReadRequest(&body).request_id;
    requests.emplace_back(id, std::move(body));
  }
  for (const auto& call : calls) EXPECT_FALSE(call.done());

  // Answer in reverse order, echoing each request's body: each response
  // matches its own call by request id even though it arrives before every
  // earlier request's.
  for (int tag = 7; tag >= 0; --tag) {
    raw.WriteResponse(requests[tag].first, requests[tag].second);
    auto result = calls[tag].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, Bytes{static_cast<uint8_t>(tag)});
    if (tag > 0) EXPECT_FALSE(calls[tag - 1].done());
  }
}

TEST(Tcp, DisconnectFansErrorOutToAllPendingCalls) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  std::vector<PendingCall> calls;
  for (int i = 0; i < 5; ++i) {
    calls.push_back((*client)->AsyncCall(MessageType::kPing, ToBytes("x")));
  }
  for (int i = 0; i < 5; ++i) raw.ReadRequest();
  raw.CloseConn();  // mid-stream disconnect with five calls pending

  for (auto& call : calls) {
    auto result = call.Wait();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  // The connection is terminally failed: later calls fail immediately.
  EXPECT_FALSE((*client)->Call(MessageType::kPing, {}).ok());
}

TEST(Tcp, ResponseForUnknownRequestIdFailsConnection) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  raw.WriteResponse(header.request_id + 1000, ToBytes("for nobody"));

  auto result = call.Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, DuplicateResponseIdFailsLaterCalls) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto first = (*client)->AsyncCall(MessageType::kPing, {});
  auto second = (*client)->AsyncCall(MessageType::kPing, {});
  auto h1 = raw.ReadRequest();
  raw.ReadRequest();
  raw.WriteResponse(h1.request_id, ToBytes("once"));
  auto r1 = first.Wait();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(ToString(*r1), "once");

  // The duplicate id no longer matches anything: a protocol violation that
  // fails the remaining call rather than mis-delivering a response.
  raw.WriteResponse(h1.request_id, ToBytes("again"));
  auto r2 = second.Wait();
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, NonResponseFrameFromServerFailsConnection) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  raw.WriteRaw(EncodeFrame(MessageType::kPing, header.request_id, {}));
  EXPECT_EQ(call.Wait().status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, OversizedResponseFrameRejectedByClient) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                   /*connect_timeout_ms=*/0,
                                   /*op_timeout_ms=*/0,
                                   /*max_frame_body=*/1 << 20);
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  // Claim a 256 MiB body without sending it: the client must reject the
  // claim itself, not allocate and wait.
  Bytes huge_header = EncodeFrame(MessageType::kResponse, header.request_id,
                                  {});
  huge_header[0] = 0x00;
  huge_header[1] = 0x00;
  huge_header[2] = 0x00;
  huge_header[3] = 0x10;  // body_len = 256 MiB little-endian
  raw.WriteRaw(BytesView(huge_header.data(), kFrameHeaderBytes));
  EXPECT_EQ(call.Wait().status().code(), StatusCode::kInvalidArgument);
}

TEST(Tcp, OversizedRequestFrameRejectedByServer) {
  TcpServerOptions options;
  options.max_frame_body = 1024;
  TcpServer server(std::make_shared<EchoHandler>(), 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Within bounds: served normally.
  ASSERT_TRUE((*client)->Call(MessageType::kPing, Bytes(512, 0x01)).ok());
  // Beyond bounds: a clean InvalidArgument response, not an abort or a
  // 4 GiB allocation, then the connection drops.
  auto result = (*client)->Call(MessageType::kPing, Bytes(4096, 0x01));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST(Tcp, OpTimeoutFailsPendingCallsButSparesIdleConnections) {
  {
    // A peer that accepts and then never answers must fail the call.
    RawServer raw;
    auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                     /*connect_timeout_ms=*/0,
                                     /*op_timeout_ms=*/150);
    ASSERT_TRUE(client.ok());
    raw.Accept();
    auto call = (*client)->AsyncCall(MessageType::kPing, {});
    raw.ReadRequest();
    auto result = call.Wait();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  {
    // An idle connection (nothing pending) must NOT time out: heartbeat
    // clients sit quiet between beats far longer than the op timeout.
    TcpServer server(std::make_shared<EchoHandler>(), 0);
    ASSERT_TRUE(server.Start().ok());
    auto client = TcpClient::Connect("127.0.0.1", server.port(),
                                     /*connect_timeout_ms=*/0,
                                     /*op_timeout_ms=*/100);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("a")).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto again = (*client)->Call(MessageType::kPing, ToBytes("b"));
    EXPECT_TRUE(again.ok()) << again.status().ToString();
    server.Stop();
  }
}

TEST(Tcp, OpTimeoutFiresForACallIssuedAfterAnIdleStretch) {
  // The reader is idle for 2.5 op timeouts, so the call below lands in the
  // middle of one of its idle poll slices. Nothing nudges the reader, yet
  // the call must still fail: no earlier than t, no later than 2t.
  constexpr int64_t kTimeoutMs = 200;
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                   /*connect_timeout_ms=*/0, kTimeoutMs);
  ASSERT_TRUE(client.ok());
  raw.Accept();
  std::this_thread::sleep_for(std::chrono::milliseconds(kTimeoutMs * 5 / 2));

  auto issued = std::chrono::steady_clock::now();
  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  raw.ReadRequest();  // the peer reads the request and never answers
  auto result = call.Wait();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - issued);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed.count(), kTimeoutMs);
  // 2t plus slack for a loaded (or sanitized) host's scheduler.
  EXPECT_LE(elapsed.count(), 2 * kTimeoutMs + 300);
}

TEST(Tcp, StuckCallTimesOutWhileOtherResponsesFlow) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                   /*connect_timeout_ms=*/0,
                                   /*op_timeout_ms=*/200);
  ASSERT_TRUE(client.ok());
  raw.Accept();

  // One request the peer never answers...
  auto stuck = (*client)->AsyncCall(MessageType::kGetStatRange, {});
  raw.ReadRequest();
  // ...while a stream of answered pings keeps the socket readable the
  // whole time. The stuck call's deadline must still fire.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(5);
  while (!stuck.done() && std::chrono::steady_clock::now() < deadline) {
    auto ping = (*client)->AsyncCall(MessageType::kPing, {});
    auto header = raw.TryReadRequest();
    if (!header) break;  // client tore the connection down: timeout fired
    raw.WriteResponse(header->request_id, ToBytes("pong"));
    if (!ping.Wait().ok()) break;  // connection failed: the timeout fired
  }
  auto result = stuck.Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

size_t OpenFdCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(Tcp, ConnectedClientHoldsOneDescriptor) {
  RawServer raw;
  size_t before = OpenFdCount();
  // The peer has not accepted yet, so the client's socket must be the only
  // new descriptor in this process.
  auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                   /*connect_timeout_ms=*/0,
                                   /*op_timeout_ms=*/1000);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(OpenFdCount(), before + 1);
  client->reset();
  EXPECT_EQ(OpenFdCount(), before);
}

TEST(Tcp, ConnectPingDestroyCyclesLeakNoDescriptor) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  size_t baseline = OpenFdCount();
  for (int i = 0; i < 1000; ++i) {
    auto client = TcpClient::Connect("127.0.0.1", server.port(),
                                     /*connect_timeout_ms=*/1000,
                                     /*op_timeout_ms=*/1000);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("x")).ok());
  }
  // The server closes its side of each connection on its reader thread
  // once it sees the client's shutdown; give the last few time to exit.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (OpenFdCount() != baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(OpenFdCount(), baseline);
  server.Stop();
}

TEST(Tcp, ConcurrentCallersShareOneSocket) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Many threads hammer ONE TcpClient with blocking Calls; the demux must
  // route every response to its caller (the old transport needed a client
  // per thread for this).
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto reply = (*client)->Call(MessageType::kPing, ToBytes(msg));
        if (reply.ok() && ToString(*reply) == msg) ++ok_count;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
  server.Stop();
}

/// This process's virtual size in KiB (VmSize in /proc/self/status), or -1.
int64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmSize:")) {
      return std::strtoll(line.c_str() + 7, nullptr, 10);
    }
  }
  return -1;
}

// A closed connection's reader thread is joined at the next accept, not at
// Stop(): an exited but unjoined thread keeps its stack (8 MiB by default)
// mapped, so a server that sees many short connections would grow by one
// stack per connection it ever served.
TEST(Tcp, ClosedConnectionsDoNotLeakReaderThreads) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto connect_ping_close = [&](int connections) {
    for (int i = 0; i < connections; ++i) {
      auto client = TcpClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("x")).ok());
    }
  };
  // Warm up first, so the allocator's per-thread arenas and the C
  // library's cache of joined stacks are in place before the measurement.
  connect_ping_close(100);
  const int64_t before_kib = VmSizeKib();
  ASSERT_GT(before_kib, 0);

  constexpr int kConnections = 1000;
  connect_ping_close(kConnections);

  // Leaking every reader would add ~8 GiB here; the few exited stacks
  // awaiting their join stay far below 1 GiB.
  const int64_t grown_mib = (VmSizeKib() - before_kib) / 1024;
  RecordProperty("vmsize_growth_mib", std::to_string(grown_mib));
  EXPECT_LT(grown_mib, 1024) << "VmSize grew by " << grown_mib << " MiB over "
                             << kConnections << " connections";
  server.Stop();
}

/// Handler that records the ambient trace context of every request: the
/// wire layer must stamp it before dispatching into the handler chain.
class TraceProbeHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    (void)type;
    std::lock_guard lock(mu_);
    seen_.push_back(metrics::CurrentTraceContext());
    return Bytes(body.begin(), body.end());
  }

  std::vector<metrics::TraceContext> seen() {
    std::lock_guard lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::vector<metrics::TraceContext> seen_;
};

TEST(Tcp, TraceContextPropagatesAcrossLoopback) {
  auto probe = std::make_shared<TraceProbeHandler>();
  TcpServer server(probe, 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A caller with an ambient trace context: the client stamps it on the
  // frame, the server adopts it — one logical request, one trace id across
  // the hop.
  metrics::SetCurrentTraceContext({0xabc123, 77});
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("traced")).ok());
  metrics::SetCurrentTraceContext({});

  // No ambient context: the server derives a nonzero origin trace id from
  // (connection serial, request id) so the request is traceable anyway.
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("origin")).ok());

  auto seen = probe->seen();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].trace_id, 0xabc123u);
  EXPECT_EQ(seen[0].parent_span_id, 77u);
  EXPECT_NE(seen[1].trace_id, 0u);
  EXPECT_NE(seen[1].trace_id, 0xabc123u);
  EXPECT_EQ(seen[1].parent_span_id, 0u);
  server.Stop();
}

TEST(MetricsHttp, ScrapeServesValidPrometheusExposition) {
  // Generate some wire traffic first so the registry has net counters.
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("x")).ok());
  }

  bool hook_ran = false;
  MetricsHttpServer metrics(0, [&hook_ran] { hook_ran = true; });
  ASSERT_TRUE(metrics.Start().ok());

  std::string response = HttpGet(metrics.port(), "/metrics");
  ASSERT_FALSE(response.empty());
  EXPECT_TRUE(response.starts_with("HTTP/1.0 200"));
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_TRUE(hook_ran) << "pre-collect hook must run before each render";

  auto body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);
  ASSERT_FALSE(body.empty());

  // Every line must be a comment or `name{labels} value` with a numeric
  // value — the Prometheus text-exposition contract.
  std::istringstream lines(body);
  std::string line;
  size_t samples = 0;
  std::set<std::string> sample_names;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "malformed line: " << line;
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    EXPECT_TRUE(name.starts_with("tc_")) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample value: " << line;
    sample_names.insert(name);
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  // The traffic above must be visible: server-side frame counters and
  // the request histogram family.
  EXPECT_NE(body.find("tc_net_rx_frames_total{side=\"server\"}"),
            std::string::npos)
      << body.substr(0, 512);
  EXPECT_NE(body.find("tc_net_server_conns"), std::string::npos);
  // Histogram summary conformance: every `_count` row has a matching
  // `_sum` row under the same name + labels, and vice versa — Prometheus
  // clients join the pair to compute rates and averages.
  metrics::GetHistogram("tc_test_scrape_seconds").Record(1234);
  std::string again_body = HttpGet(metrics.port(), "/metrics");
  EXPECT_NE(again_body.find("tc_test_scrape_seconds_count"),
            std::string::npos);
  EXPECT_NE(again_body.find("tc_test_scrape_seconds_sum"),
            std::string::npos);
  size_t count_rows = 0;
  for (const auto& name : sample_names) {
    auto mark = name.find("_count");
    if (mark == std::string::npos) continue;
    ++count_rows;
    std::string sum_name = name;
    sum_name.replace(mark, 6, "_sum");
    EXPECT_TRUE(sample_names.contains(sum_name))
        << name << " has no matching " << sum_name << " row";
  }
  for (const auto& name : sample_names) {
    auto mark = name.find("_sum");
    if (mark == std::string::npos) continue;
    std::string count_name = name;
    count_name.replace(mark, 4, "_count");
    EXPECT_TRUE(sample_names.contains(count_name))
        << name << " has no matching " << count_name << " row";
  }
  // The build-identity gauge is registered on first registry touch.
  EXPECT_NE(body.find("tc_build_info{version=\"8\",sanitizer=\""),
            std::string::npos);

  // Anything but GET /metrics is a 404, and the listener survives it.
  std::string missing = HttpGet(metrics.port(), "/other");
  EXPECT_TRUE(missing.starts_with("HTTP/1.0 404"));
  std::string again = HttpGet(metrics.port(), "/metrics");
  EXPECT_TRUE(again.starts_with("HTTP/1.0 200"));

  metrics.Stop();
  server.Stop();
}

TEST(MetricsHttp, EphemeralPortIsResolvedAfterStart) {
  MetricsHttpServer metrics(0);
  ASSERT_TRUE(metrics.Start().ok());
  EXPECT_GT(metrics.port(), 0);
  metrics.Stop();
}

}  // namespace
}  // namespace tc::net
