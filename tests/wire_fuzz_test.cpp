// Decode-robustness sweeps: every wire message decoder must survive
// truncation at any byte boundary and arbitrary byte garbage without
// crashing — returning clean Status errors. An untrusted network peer can
// send anything; the server must never trust frame contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string_view>

#include "client/grants.hpp"
#include "common/io.hpp"
#include "common/varint.hpp"
#include "crypto/rand.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::net {
namespace {

/// A named decoder run against hostile input. Returns true if decoding
/// succeeded (allowed — a fuzzed prefix can be a valid message; the
/// property under test is "no crash, no UB", enforced by running at all).
struct NamedDecoder {
  const char* name;
  std::function<bool(BytesView)> decode;
};

std::vector<NamedDecoder> AllDecoders() {
  return {
      {"CreateStream",
       [](BytesView in) { return CreateStreamRequest::Decode(in).ok(); }},
      {"DeleteStream",
       [](BytesView in) { return DeleteStreamRequest::Decode(in).ok(); }},
      {"GetRange",
       [](BytesView in) { return GetRangeRequest::Decode(in).ok(); }},
      {"GetRangeResponse",
       [](BytesView in) { return GetRangeResponse::Decode(in).ok(); }},
      {"StatRange",
       [](BytesView in) { return StatRangeRequest::Decode(in).ok(); }},
      {"StatRangeResponse",
       [](BytesView in) { return StatRangeResponse::Decode(in).ok(); }},
      {"StatSeries",
       [](BytesView in) { return StatSeriesRequest::Decode(in).ok(); }},
      {"StatSeriesResponse",
       [](BytesView in) { return StatSeriesResponse::Decode(in).ok(); }},
      {"MultiStatRange",
       [](BytesView in) { return MultiStatRangeRequest::Decode(in).ok(); }},
      {"RollupStream",
       [](BytesView in) { return RollupStreamRequest::Decode(in).ok(); }},
      {"RollupStreamResponse",
       [](BytesView in) { return RollupStreamResponse::Decode(in).ok(); }},
      {"DeleteRange",
       [](BytesView in) { return DeleteRangeRequest::Decode(in).ok(); }},
      {"StreamInfo",
       [](BytesView in) { return StreamInfoRequest::Decode(in).ok(); }},
      {"StreamInfoResponse",
       [](BytesView in) { return StreamInfoResponse::Decode(in).ok(); }},
      {"PutGrant",
       [](BytesView in) { return PutGrantRequest::Decode(in).ok(); }},
      {"FetchGrants",
       [](BytesView in) { return FetchGrantsRequest::Decode(in).ok(); }},
      {"FetchGrantsResponse",
       [](BytesView in) { return FetchGrantsResponse::Decode(in).ok(); }},
      {"RevokeGrant",
       [](BytesView in) { return RevokeGrantRequest::Decode(in).ok(); }},
      {"PutEnvelopes",
       [](BytesView in) { return PutEnvelopesRequest::Decode(in).ok(); }},
      {"GetEnvelopes",
       [](BytesView in) { return GetEnvelopesRequest::Decode(in).ok(); }},
      {"GetEnvelopesResponse",
       [](BytesView in) { return GetEnvelopesResponse::Decode(in).ok(); }},
      {"ResponseBody",
       [](BytesView in) { return DecodeResponseBody(in).ok(); }},
      {"AccessGrant",
       [](BytesView in) { return client::AccessGrant::Decode(in).ok(); }},
      {"PutAttestation",
       [](BytesView in) { return PutAttestationRequest::Decode(in).ok(); }},
      {"GetAttestation",
       [](BytesView in) { return GetAttestationRequest::Decode(in).ok(); }},
      {"GetChunkWitnessed",
       [](BytesView in) {
         return GetChunkWitnessedRequest::Decode(in).ok();
       }},
      {"GetChunkWitnessedResponse",
       [](BytesView in) {
         return GetChunkWitnessedResponse::Decode(in).ok();
       }},
      {"InsertChunkBatch",
       [](BytesView in) { return InsertChunkBatchRequest::Decode(in).ok(); }},
      {"ClusterInfoResponse",
       [](BytesView in) { return ClusterInfoResponse::Decode(in).ok(); }},
      {"ReplicaLog",
       [](BytesView in) { return ReplicaLogRequest::Decode(in).ok(); }},
      {"ReplicaLogAck",
       [](BytesView in) { return ReplicaLogAck::Decode(in).ok(); }},
      {"ReplicaHello",
       [](BytesView in) { return ReplicaHelloRequest::Decode(in).ok(); }},
      {"ReplicaHelloResponse",
       [](BytesView in) { return ReplicaHelloResponse::Decode(in).ok(); }},
      {"ReplicaHeartbeat",
       [](BytesView in) { return ReplicaHeartbeatRequest::Decode(in).ok(); }},
      {"MetricsInfoResponse",
       [](BytesView in) { return MetricsInfoResponse::Decode(in).ok(); }},
      {"TraceInfo",
       [](BytesView in) { return TraceInfoRequest::Decode(in).ok(); }},
      {"TraceInfoResponse",
       [](BytesView in) { return TraceInfoResponse::Decode(in).ok(); }},
      {"EventsInfo",
       [](BytesView in) { return EventsInfoRequest::Decode(in).ok(); }},
      {"EventsInfoResponse",
       [](BytesView in) { return EventsInfoResponse::Decode(in).ok(); }},
  };
}

/// One valid encoded message: the body of request frame `type` (kResponse
/// for a reply payload or a blob nested in another message), its bytes, and
/// a decode-then-encode of those bytes.
struct Sample {
  const char* name;
  MessageType type;
  Bytes bytes;
  std::function<Result<Bytes>(BytesView)> reencode;
};

template <typename T>
Sample Of(const char* name, MessageType type, const T& message) {
  return {name, type, message.Encode(), [](BytesView in) -> Result<Bytes> {
            TC_ASSIGN_OR_RETURN(T decoded, T::Decode(in));
            return decoded.Encode();
          }};
}

/// One valid encoded instance per message type, used as the truncation
/// baseline (truncating a *valid* message probes every partial-field path).
/// Every stream-routed request addresses uuid 7.
std::vector<Sample> ValidEncodings() {
  using enum MessageType;
  std::vector<Sample> out;
  StreamConfig config;
  config.name = "fuzz/stream";
  config.schema.hist_bins = 4;
  out.push_back(
      Of("CreateStream", kCreateStream, CreateStreamRequest{7, config}));
  out.push_back(Of("DeleteStream", kDeleteStream, DeleteStreamRequest{7}));
  out.push_back(Of("GetRange", kGetRange, GetRangeRequest{7, {100, 200}}));
  GetRangeResponse rr;
  rr.chunks.push_back({1, ToBytes("chunk-1")});
  rr.chunks.push_back({2, ToBytes("chunk-2")});
  out.push_back(Of("GetRangeResponse", kResponse, rr));
  out.push_back(
      Of("StatRange", kGetStatRange, StatRangeRequest{7, {100, 200}}));
  out.push_back(Of("StatRangeResponse", kResponse,
                   StatRangeResponse{1, 5, ToBytes("aggregate")}));
  out.push_back(
      Of("StatSeries", kGetStatSeries, StatSeriesRequest{7, {0, 500}, 4}));
  StatSeriesResponse sr;
  sr.first_chunk = 0;
  sr.granularity_chunks = 4;
  sr.aggregates = {ToBytes("w0"), ToBytes("w1")};
  out.push_back(Of("StatSeriesResponse", kResponse, sr));
  out.push_back(Of("MultiStatRange", kMultiStatRange,
                   MultiStatRangeRequest{{1, 2, 3}, {0, 100}}));
  out.push_back(Of("RollupStream", kRollupStream,
                   RollupStreamRequest{7, 8, 6, {0, 0}}));
  out.push_back(
      Of("RollupStreamResponse", kResponse, RollupStreamResponse{0, 8}));
  out.push_back(
      Of("DeleteRange", kDeleteRange, DeleteRangeRequest{7, {0, 100}}));
  out.push_back(Of("StreamInfo", kGetStreamInfo, StreamInfoRequest{7}));
  out.push_back(
      Of("StreamInfoResponse", kResponse, StreamInfoResponse{config, 42}));
  out.push_back(Of("PutGrant", kPutGrant,
                   PutGrantRequest{7, "alice", 1, ToBytes("sealed")}));
  out.push_back(Of("FetchGrants", kFetchGrants, FetchGrantsRequest{"alice"}));
  FetchGrantsResponse fr;
  fr.grants.push_back({7, 1, ToBytes("sealed")});
  out.push_back(Of("FetchGrantsResponse", kResponse, fr));
  out.push_back(
      Of("RevokeGrant", kRevokeGrant, RevokeGrantRequest{7, "alice", 1}));
  PutEnvelopesRequest pe;
  pe.uuid = 7;
  pe.resolution_chunks = 6;
  pe.envelopes = {ToBytes("env0"), ToBytes("env1")};
  out.push_back(Of("PutEnvelopes", kPutEnvelopes, pe));
  out.push_back(Of("GetEnvelopes", kGetEnvelopes,
                   GetEnvelopesRequest{7, 6, 0, 10}));
  GetEnvelopesResponse ge;
  ge.envelopes = {ToBytes("env")};
  out.push_back(Of("GetEnvelopesResponse", kResponse, ge));
  out.push_back({"ResponseBody", kResponse,
                 EncodeResponseBody(Status::Ok(), ToBytes("payload")),
                 [](BytesView in) -> Result<Bytes> {
                   TC_ASSIGN_OR_RETURN(Bytes payload, DecodeResponseBody(in));
                   return EncodeResponseBody(Status::Ok(), payload);
                 }});
  out.push_back(Of("PutAttestation", kPutAttestation,
                   PutAttestationRequest{7, ToBytes("attestation")}));
  out.push_back(
      Of("GetAttestation", kGetAttestation, GetAttestationRequest{7}));
  out.push_back(Of("GetChunkWitnessed", kGetChunkWitnessed,
                   GetChunkWitnessedRequest{7, 0, 8, 8}));
  GetChunkWitnessedResponse wr;
  wr.entries.push_back({3, ToBytes("digest"), ToBytes("payload"),
                        ToBytes("proof")});
  out.push_back(Of("GetChunkWitnessedResponse", kResponse, wr));
  // The batch's entries view these buffers, which outlive every sample.
  static const std::vector<Bytes> kBatchBytes = {
      ToBytes("digest-0"), ToBytes("payload-0"), ToBytes("digest-1"),
      ToBytes("digest-5"), ToBytes("payload-5")};
  InsertChunkBatchRequest batch;
  batch.uuid = 7;
  batch.entries.push_back({0, kBatchBytes[0], kBatchBytes[1]});
  batch.entries.push_back({1, kBatchBytes[2], {}});
  batch.entries.push_back({5, kBatchBytes[3], kBatchBytes[4]});
  out.push_back(Of("InsertChunkBatch", kInsertChunkBatch, batch));
  ClusterInfoResponse cluster;
  cluster.shards.push_back({0, 3, 4096, 2, ClusterInfoResponse::kAckQuorum, 5});
  cluster.shards.push_back({1, 2, 2048});
  out.push_back(Of("ClusterInfoResponse", kResponse, cluster));
  // The frame's records view this buffer, which outlives every sample.
  static const Bytes kLogRecords = {0x01, 0x01, 'k', 0x02, 'v', '1',
                                    0x03, 0x01, 'k', 0x01, '2'};
  out.push_back(Of("ReplicaLog", kReplicaLog,
                   ReplicaLogRequest{2, 0x0effULL, 13, kLogRecords}));
  out.push_back(Of("ReplicaLogAck", kResponse, ReplicaLogAck{0x0effULL, 24}));
  ReplicaHelloRequest hello;
  hello.shard = 2;
  hello.num_shards = 4;
  hello.generation = 0x0effULL;
  hello.length = 13;
  hello.store_fingerprint = 0xfeedULL;
  hello.host = "127.0.0.1";
  hello.port = 4434;
  out.push_back(Of("ReplicaHello", kReplicaHello, hello));
  out.push_back(Of("ReplicaHelloResponse", kResponse,
                   ReplicaHelloResponse{21, 500}));
  ReplicaHeartbeatRequest beat;
  beat.shard = 2;
  beat.log_end = 21;
  beat.peers.push_back({"127.0.0.1", 4434, 13});
  beat.peers.push_back({"127.0.0.1", 4435, 21});
  out.push_back(Of("ReplicaHeartbeat", kReplicaHeartbeat, beat));
  // MetricsInfo: the request is bodyless; the response carries all three
  // sample kinds so truncation probes every per-kind field path.
  MetricsInfoResponse mi;
  {
    MetricsInfoResponse::Entry e;
    e.kind = MetricsInfoResponse::kCounter;
    e.name = "tc_server_requests_total";
    e.labels = "type=\"ping\"";
    e.value = 42;
    mi.entries.push_back(e);
    e.kind = MetricsInfoResponse::kGauge;
    e.name = "tc_net_server_conns";
    e.labels.clear();
    e.value = -1;
    mi.entries.push_back(e);
    e.kind = MetricsInfoResponse::kHistogram;
    e.name = "tc_server_request_seconds";
    e.labels = "type=\"ping\"";
    e.count = 42;
    e.sum = 1000;
    e.max = 99;
    e.p50 = 15;
    e.p95 = 63;
    e.p99 = 63;
    mi.entries.push_back(e);
  }
  out.push_back(Of("MetricsInfoResponse", kResponse, mi));
  out.push_back(
      Of("TraceInfo", kTraceInfo, TraceInfoRequest{0x1234, 1}));
  TraceInfoResponse ti;
  {
    TraceInfoResponse::Span s;
    s.trace_id = 0x1234;
    s.span_id = 3;
    s.parent_span_id = 1;
    s.op = "router_dispatch";
    s.msg_type = 11;
    s.shard = 0xffffffffu;
    s.start_us = 1'700'000'000'000'000;
    s.duration_us = 812;
    s.slow = 1;
    ti.spans.push_back(s);
    s.span_id = 5;
    s.parent_span_id = 3;
    s.op = "stat_range";
    s.shard = 1;
    s.slow = 0;
    ti.spans.push_back(s);
    ti.dropped = 9;
  }
  out.push_back(Of("TraceInfoResponse", kResponse, ti));
  out.push_back(Of("EventsInfo", kEventsInfo, EventsInfoRequest{17}));
  EventsInfoResponse ev;
  ev.events.push_back({21, 1'700'000'000'000, "self_promotion", 0,
                       "127.0.0.1:4434 silent_ms=3000"});
  ev.events.push_back({22, 1'700'000'000'250, "promotion_complete", 0,
                       "127.0.0.1:4434 streams=3"});
  ev.dropped = 2;
  out.push_back(Of("EventsInfoResponse", kResponse, ev));
  client::AccessGrant grant;
  grant.stream_uuid = 7;
  grant.kind = client::GrantKind::kFullResolution;
  grant.first_chunk = 0;
  grant.last_chunk = 8;
  grant.tree_height = 10;
  grant.tokens.push_back({3, 1, crypto::Key128{}});
  out.push_back(Of("AccessGrant", kResponse, grant));
  return out;
}

TEST(WireFuzz, EveryDecoderSurvivesTruncationOfValidMessages) {
  auto decoders = AllDecoders();
  auto encodings = ValidEncodings();
  // Truncate each valid encoding at every byte boundary and feed it to
  // every decoder (not just its own — cross-type confusion included).
  for (const Sample& sample : encodings) {
    const Bytes& full = sample.bytes;
    for (size_t cut = 0; cut < full.size(); ++cut) {
      BytesView prefix(full.data(), cut);
      for (const auto& decoder : decoders) {
        (void)decoder.decode(prefix);  // must not crash
      }
    }
  }
  SUCCEED();
}

TEST(WireFuzz, EveryDecoderSurvivesRandomBytes) {
  auto decoders = AllDecoders();
  crypto::DeterministicRng rng(0xf022);
  for (int round = 0; round < 200; ++round) {
    Bytes garbage(rng.NextBelow(300));
    rng.Fill(garbage);
    for (const auto& decoder : decoders) {
      (void)decoder.decode(garbage);  // must not crash
    }
  }
  SUCCEED();
}

TEST(WireFuzz, EveryDecoderSurvivesBitFlipsOfValidMessages) {
  auto decoders = AllDecoders();
  auto encodings = ValidEncodings();
  crypto::DeterministicRng rng(77);
  for (const Sample& sample : encodings) {
    for (int round = 0; round < 32; ++round) {
      Bytes mutated = sample.bytes;
      if (mutated.empty()) continue;
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
      for (const auto& decoder : decoders) {
        (void)decoder.decode(mutated);  // must not crash
      }
    }
  }
  SUCCEED();
}

/// The exact encoding of each ValidEncodings() sample, by name.
struct PinnedBytes {
  const char* name;
  const char* hex;
};

// clang-format off
constexpr PinnedBytes kPinnedBytes[] = {
  {"CreateStream",
   "07000000000000000b66757a7a2f73747265616d000000000000000010270000"
   "000000002801010000000000000000000060ea00000000000004000000000000"
   "000000000001000000000000000100400000000100"},
  {"DeleteStream",
   "0700000000000000"},
  {"GetRange",
   "07000000000000006400000000000000c800000000000000"},
  {"GetRangeResponse",
   "020100000000000000076368756e6b2d310200000000000000076368756e6b2d"
   "32"},
  {"StatRange",
   "07000000000000006400000000000000c800000000000000"},
  {"StatRangeResponse",
   "0100000000000000050000000000000009616767726567617465"},
  {"StatSeries",
   "07000000000000000000000000000000f4010000000000000400000000000000"},
  {"StatSeriesResponse",
   "00000000000000000000000000000000040000000000000002027730027731"},
  {"MultiStatRange",
   "0301000000000000000200000000000000030000000000000000000000000000"
   "006400000000000000"},
  {"RollupStream",
   "0700000000000000080000000000000006000000000000000000000000000000"
   "0000000000000000"},
  {"DeleteRange",
   "070000000000000000000000000000006400000000000000"},
  {"StreamInfo",
   "0700000000000000"},
  {"StreamInfoResponse",
   "0b66757a7a2f73747265616d0000000000000000102700000000000028010100"
   "00000000000000000060ea000000000000040000000000000000000000010000"
   "000000000001004000000001002a00000000000000"},
  {"PutGrant",
   "070000000000000005616c6963650100000000000000067365616c6564"},
  {"FetchGrants",
   "05616c696365"},
  {"FetchGrantsResponse",
   "0107000000000000000100000000000000067365616c6564"},
  {"RevokeGrant",
   "070000000000000005616c6963650100000000000000"},
  {"PutEnvelopes",
   "0700000000000000060000000000000000000000000000000204656e76300465"
   "6e7631"},
  {"GetEnvelopes",
   "0700000000000000060000000000000000000000000000000a00000000000000"},
  {"GetEnvelopesResponse",
   "00000000000000000103656e76"},
  {"ResponseBody",
   "00007061796c6f6164"},
  {"PutAttestation",
   "07000000000000000b6174746573746174696f6e"},
  {"GetAttestation",
   "0700000000000000"},
  {"GetChunkWitnessed",
   "0700000000000000000000000000000008000000000000000800000000000000"},
  {"GetChunkWitnessedResponse",
   "01030000000000000006646967657374077061796c6f61640570726f6f66"},
  {"InsertChunkBatch",
   "0700000000000000030000000000000000086469676573742d30097061796c6f"
   "61642d300100000000000000086469676573742d310005000000000000000864"
   "69676573742d35097061796c6f61642d35"},
  {"ClusterInfoResponse",
   "0200000000030000000000000000100000000000000200000001050000000000"
   "0000000000000000000000000000000000000000000000000000000000000001"
   "0000000200000000000000000800000000000000000000000000000000000000"
   "0000000000000000000000000000000000000000000000000000000000"},
  {"ReplicaLog",
   "02000000ff0e0000000000000d000000000000000b01016b02763103016b0132"},
  {"ReplicaLogAck",
   "ff0e0000000000001800000000000000"},
  {"ReplicaHello",
   "020200000004000000ff0e0000000000000d00000000000000edfe0000000000"
   "00093132372e302e302e3152110000"},
  {"ReplicaHelloResponse",
   "1500000000000000f4010000"},
  {"ReplicaHeartbeat",
   "02000000150000000000000002093132372e302e302e31521100000d00000000"
   "000000093132372e302e302e31531100001500000000000000"},
  {"MetricsInfoResponse",
   "03001874635f7365727665725f72657175657374735f746f74616c0b74797065"
   "3d2270696e67222a00000000000000000000000000011374635f6e65745f7365"
   "727665725f636f6e6e7300ffffffffffffffff000000000000021974635f7365"
   "727665725f726571756573745f7365636f6e64730b747970653d2270696e6722"
   "ffffffffffffffff2ae807630f3f3f"},
  {"TraceInfo",
   "341200000000000001"},
  {"TraceInfoResponse",
   "023412000000000000030000000000000001000000000000000f726f75746572"
   "5f64697370617463680bffffffff00401e18240a0600ac060134120000000000"
   "00050000000000000003000000000000000a737461745f72616e67650b010000"
   "0000401e18240a0600ac060009"},
  {"EventsInfo",
   "1100000000000000"},
  {"EventsInfoResponse",
   "0215000000000000000068e5cf8b0100000e73656c665f70726f6d6f74696f6e"
   "000000001d3132372e302e302e313a343433342073696c656e745f6d733d3330"
   "30301600000000000000fa68e5cf8b0100001270726f6d6f74696f6e5f636f6d"
   "706c65746500000000183132372e302e302e313a343433342073747265616d73"
   "3d3302"},
  {"AccessGrant",
   "070000000000000001000000000000000008000000000000000a000000010300"
   "0000010000000000000000000000000000000000000000000000000000000000"
   "0000000000000000000000000000000000000000000000000000000000000000"
   "000000000000000000000000000000000000"},
};
// clang-format on

TEST(WireFuzz, ValidEncodingsMatchPinnedBytes) {
  // Wire compatibility: every sample encodes to exactly the bytes pinned
  // here, so a codec change that moves one byte names the message and the
  // offset.
  auto samples = ValidEncodings();
  for (const PinnedBytes& pinned : kPinnedBytes) {
    auto it =
        std::find_if(samples.begin(), samples.end(), [&](const Sample& s) {
          return std::string_view(s.name) == pinned.name;
        });
    ASSERT_NE(it, samples.end()) << "no sample named " << pinned.name;
    auto want = FromHex(pinned.hex);
    ASSERT_TRUE(want.ok()) << pinned.name;
    const Bytes& got = it->bytes;
    size_t diff = 0;
    while (diff < got.size() && diff < want->size() &&
           got[diff] == (*want)[diff]) {
      ++diff;
    }
    EXPECT_EQ(ToHex(got), pinned.hex)
        << pinned.name << ": first difference at byte " << diff;
  }
}

TEST(WireFuzz, DecodeThenEncodeReproducesEverySample) {
  for (const Sample& sample : ValidEncodings()) {
    auto again = sample.reencode(sample.bytes);
    ASSERT_TRUE(again.ok()) << sample.name << ": " << again.status().ToString();
    EXPECT_EQ(ToHex(*again), ToHex(sample.bytes)) << sample.name;
  }
}

TEST(WireFuzz, StreamRoutedRequestsStartWithTheirUuid) {
  // The shard router and a follower daemon route a Route::kStream frame on
  // the first 8 bytes of its body, read as the owning stream's uuid.
  auto samples = ValidEncodings();
  for (const FrameTypeInfo& row : kFrameTypes) {
    if (row.route != Route::kStream) continue;
    auto it = std::find_if(samples.begin(), samples.end(),
                           [&](const Sample& s) { return s.type == row.type; });
    ASSERT_NE(it, samples.end()) << row.name << " has no sample";
    BinaryReader r(it->bytes);
    auto uuid = r.GetU64();
    ASSERT_TRUE(uuid.ok()) << row.name;
    EXPECT_EQ(*uuid, 7u) << row.name;
  }
}

TEST(WireFuzz, LengthPrefixedVectorsRejectAbsurdCounts) {
  // A hostile length prefix claiming billions of elements must fail cleanly
  // (allocation-bomb defense), never attempt the allocation. The count is
  // positioned per message layout: `filler` bytes of preceding fields, then
  // a 5-byte varint ≈ 2^34, then a little trailing data.
  auto hostile_at = [](size_t filler) {
    Bytes b(filler, 0x00);
    for (int i = 0; i < 4; ++i) b.push_back(0xff);
    b.push_back(0x7f);  // varint terminator: count = 0x7ffffffff
    for (int i = 0; i < 8; ++i) b.push_back(0x01);
    return b;
  };
  EXPECT_FALSE(GetRangeResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(FetchGrantsResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(MultiStatRangeRequest::Decode(hostile_at(0)).ok());
  // StatSeriesResponse: count follows first_chunk + last_chunk +
  // granularity (24 bytes).
  EXPECT_FALSE(StatSeriesResponse::Decode(hostile_at(24)).ok());
  // AccessGrant: count follows uuid+kind+range+height (29 bytes).
  EXPECT_FALSE(client::AccessGrant::Decode(hostile_at(29)).ok());
  // InsertChunkBatch: count follows the uuid (8 bytes).
  EXPECT_FALSE(InsertChunkBatchRequest::Decode(hostile_at(8)).ok());
  // ClusterInfoResponse: count is the first field.
  EXPECT_FALSE(ClusterInfoResponse::Decode(hostile_at(0)).ok());
  // MetricsInfoResponse: entry count is the first field.
  EXPECT_FALSE(MetricsInfoResponse::Decode(hostile_at(0)).ok());
  // Replica log: the records' length follows shard + generation + offset
  // (20 bytes).
  EXPECT_FALSE(ReplicaLogRequest::Decode(hostile_at(20)).ok());
  // Heartbeat: peer count follows shard + log_end (12 bytes).
  EXPECT_FALSE(ReplicaHeartbeatRequest::Decode(hostile_at(12)).ok());
  // Trace and event journal responses: count is the first field.
  EXPECT_FALSE(TraceInfoResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(EventsInfoResponse::Decode(hostile_at(0)).ok());
}

TEST(WireFuzz, VectorCountsAreBoundedByTheMinimumElementSize) {
  // A GetRangeResponse chunk is at least 9 bytes (index, empty payload).
  // Five chunks in 9 bytes pass a one-byte-per-element bound, so a decoder
  // that only had that bound would reserve them before running out of
  // input; the minimum-size bound rejects the count before reserving.
  Bytes body = FromHex("05" "010000000000000000").value();
  auto decoded = GetRangeResponse::Decode(body);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "element count exceeds input");
  // One chunk fits, and decodes.
  body[0] = 0x01;
  ASSERT_TRUE(GetRangeResponse::Decode(body).ok());
}

TEST(WireFuzz, ReplicaLogBodiesOfGarbageOrCutShortAreErrors) {
  // A kReplicaLog body is shard, generation and offset, then the records
  // behind their varint length: it decodes only when the rest holds that
  // many bytes. Every strict prefix of a valid body is an error.
  const Bytes records(300, 0x01);
  Bytes valid = ReplicaLogRequest{1, 9, 40, records}.Encode();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(ReplicaLogRequest::Decode(BytesView(valid).first(cut)).ok())
        << "cut at " << cut;
  }
  crypto::DeterministicRng rng(0x106);
  for (int round = 0; round < 500; ++round) {
    // Seeded garbage: an error unless it happens to be well formed, which
    // the rule above decides without the decoder.
    Bytes garbage(rng.NextBelow(64));
    rng.Fill(garbage);
    size_t at = 20;
    auto length = garbage.size() > at ? GetVarint(garbage, at) : std::nullopt;
    bool well_formed = length && *length <= garbage.size() - at;
    EXPECT_EQ(ReplicaLogRequest::Decode(garbage).ok(), well_formed)
        << ToHex(garbage);
    // A header claiming more records than the body holds: an error, and
    // nothing is allocated for the claim.
    BinaryWriter lying;
    lying.PutU32(static_cast<uint32_t>(rng.NextU64()));
    lying.PutU64(rng.NextU64());
    lying.PutU64(rng.NextU64());
    lying.PutVar(garbage.size() + 1 + rng.NextBelow(uint64_t{1} << 40));
    lying.PutRaw(garbage);
    EXPECT_FALSE(ReplicaLogRequest::Decode(lying.data()).ok());
  }
}

TEST(WireFuzz, ReplicaHandshakeFramesRejectHostileFields) {
  // Hello with port 0 (or out of range): the primary would dial nothing.
  ReplicaHelloRequest hello;
  hello.shard = 0;
  hello.host = "127.0.0.1";
  hello.port = 0;
  EXPECT_EQ(ReplicaHelloRequest::Decode(hello.Encode()).status().code(),
            StatusCode::kInvalidArgument);
  BinaryWriter big_port;
  big_port.PutU8(kReplicaProtocolVersion);
  big_port.PutU32(0);
  big_port.PutU32(1);
  big_port.PutU64(0);
  big_port.PutU64(0);
  big_port.PutU64(0);
  big_port.PutString("127.0.0.1");
  big_port.PutU32(70'000);
  EXPECT_EQ(ReplicaHelloRequest::Decode(big_port.data()).status().code(),
            StatusCode::kInvalidArgument);

  // Every new frame fails cleanly when truncated at any byte: all fields
  // are mandatory, so no strict prefix parses (targeted sweep on top of
  // the global cross-decoder one, with non-trivial field values).
  Bytes ack_frame = ReplicaLogAck{9, 40}.Encode();
  for (size_t cut = 0; cut < ack_frame.size(); ++cut) {
    EXPECT_FALSE(ReplicaLogAck::Decode(BytesView(ack_frame.data(), cut)).ok())
        << "ack cut at " << cut;
  }
  hello.port = 4444;
  Bytes hello_frame = hello.Encode();
  for (size_t cut = 0; cut < hello_frame.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaHelloRequest::Decode(BytesView(hello_frame.data(), cut)).ok())
        << "hello cut at " << cut;
  }
  Bytes beat_frame =
      ReplicaHeartbeatRequest{1, 9, {{"h", 4444, 3}}}.Encode();
  for (size_t cut = 0; cut < beat_frame.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaHeartbeatRequest::Decode(BytesView(beat_frame.data(), cut))
            .ok())
        << "heartbeat cut at " << cut;
  }
}

TEST(WireFuzz, OutOfRangeFieldBytesAreInvalidArgument) {
  // One byte of a valid sample set outside its range: every 0/1 flag (all
  // decode through one flag rule), the replica ack mode and the metric
  // kind. A negative offset counts from the end of the sample.
  struct Case {
    const char* sample;
    int offset;
    uint8_t was;
    uint8_t bad;
  };
  const Case cases[] = {
      {"CreateStream", -1, 0, 2},         // config.integrity
      {"StreamInfoResponse", -9, 0, 2},   // config.integrity, num_chunks
      {"ClusterInfoResponse", 25, 1, 2},  // shards[0].ack_mode
      {"ClusterInfoResponse", 38, 0, 2},  // shards[0].auto_failover
      {"MetricsInfoResponse", 1, 0, 3},   // entries[0].kind
      {"TraceInfo", 8, 1, 2},             // slow_only
      {"TraceInfoResponse", -2, 0, 2},    // spans[1].slow, dropped
  };
  auto samples = ValidEncodings();
  for (const Case& c : cases) {
    auto it =
        std::find_if(samples.begin(), samples.end(), [&](const Sample& s) {
          return std::string_view(s.name) == c.sample;
        });
    ASSERT_NE(it, samples.end()) << c.sample;
    Bytes bytes = it->bytes;
    size_t at = c.offset < 0 ? bytes.size() - static_cast<size_t>(-c.offset)
                             : static_cast<size_t>(c.offset);
    ASSERT_EQ(bytes[at], c.was) << c.sample << " byte " << at;
    bytes[at] = c.bad;
    EXPECT_EQ(it->reencode(bytes).status().code(),
              StatusCode::kInvalidArgument)
        << c.sample << " byte " << at;
  }
}

TEST(WireFuzz, InsertChunkBatchRejectsMalformedFrames) {
  const Bytes digest = ToBytes("digest");
  const Bytes payload = ToBytes("payload");
  auto entry = [&](uint64_t index) {
    return InsertChunkBatchRequest::Entry{index, digest, payload};
  };

  // Well-formed baseline round-trips.
  InsertChunkBatchRequest good;
  good.uuid = 7;
  good.entries = {entry(3), entry(4), entry(9)};
  const Bytes encoded = good.Encode();
  auto decoded = InsertChunkBatchRequest::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->uuid, 7u);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_EQ(decoded->entries[2].chunk_index, 9u);
  EXPECT_EQ(ToString(decoded->entries[0].payload), "payload");

  // Overlapping chunk indices: duplicates and regressions are malformed
  // frames, rejected at decode before any server state is touched.
  InsertChunkBatchRequest duplicate;
  duplicate.uuid = 7;
  duplicate.entries = {entry(3), entry(3)};
  EXPECT_EQ(InsertChunkBatchRequest::Decode(duplicate.Encode()).status().code(),
            StatusCode::kInvalidArgument);
  InsertChunkBatchRequest regressing;
  regressing.uuid = 7;
  regressing.entries = {entry(5), entry(4)};
  EXPECT_EQ(
      InsertChunkBatchRequest::Decode(regressing.Encode()).status().code(),
      StatusCode::kInvalidArgument);

  // Truncated counts: a frame claiming more entries than its bytes can
  // hold fails cleanly at every cut point.
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(
        InsertChunkBatchRequest::Decode(BytesView(encoded.data(), cut)).ok())
        << "cut at " << cut;
  }

  // A count larger than the actual entry list (claims 4, carries 2).
  BinaryWriter w;
  w.PutU64(7);
  w.PutVar(4);
  for (uint64_t i = 0; i < 2; ++i) {
    w.PutU64(i);
    w.PutBytes(ToBytes("digest"));
    w.PutBytes(ToBytes("payload"));
  }
  EXPECT_FALSE(InsertChunkBatchRequest::Decode(w.data()).ok());
}

TEST(WireFuzz, FrameHeaderBoundsBodyLength) {
  Bytes frame = EncodeFrame(MessageType::kPing, 42, Bytes(32, 0xab));
  BytesView header(frame.data(), kFrameHeaderBytes);

  auto decoded = DecodeFrameHeader(header);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->body_len, 32u);
  EXPECT_EQ(decoded->type, MessageType::kPing);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->trace_id, 0u);  // no context unless the caller stamps one
  EXPECT_EQ(decoded->parent_span_id, 0u);

  // A stamped trace context round-trips through the header fields.
  Bytes traced = EncodeFrame(MessageType::kPing, 42, Bytes(4, 0xab),
                             /*trace_id=*/0xabcdef01, /*parent_span_id=*/77);
  auto traced_header =
      DecodeFrameHeader(BytesView(traced.data(), kFrameHeaderBytes));
  ASSERT_TRUE(traced_header.ok());
  EXPECT_EQ(traced_header->trace_id, 0xabcdef01u);
  EXPECT_EQ(traced_header->parent_span_id, 77u);

  // The bound is inclusive; one byte under it is a clean rejection (the
  // attacker-controlled u32 must never drive an allocation).
  EXPECT_TRUE(DecodeFrameHeader(header, 32).ok());
  auto rejected = DecodeFrameHeader(header, 31);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // A hostile header claiming a 4 GiB body fails the default bound. The
  // trailing trace id + parent span id bring the hand-built header to the
  // full 29 bytes, so it fails the bound, not a truncation check.
  BinaryWriter hostile;
  hostile.PutU32(0xffffffffu);
  hostile.PutU8(static_cast<uint8_t>(MessageType::kPing));
  hostile.PutU64(1);
  hostile.PutU64(0xdeadbeef);  // trace id
  hostile.PutU64(0x1);         // parent span id
  ASSERT_EQ(hostile.size(), kFrameHeaderBytes);
  EXPECT_FALSE(DecodeFrameHeader(hostile.data()).ok());

  // Truncation at every byte boundary fails cleanly.
  for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    EXPECT_FALSE(DecodeFrameHeader(BytesView(frame.data(), cut)).ok())
        << "header cut at " << cut;
  }
}

TEST(WireFuzz, FrameHeaderSurvivesRandomBytes) {
  crypto::DeterministicRng rng(0x17a3);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(kFrameHeaderBytes);
    rng.Fill(garbage);
    auto decoded = DecodeFrameHeader(garbage, 1 << 20);
    if (decoded.ok()) {
      EXPECT_LE(decoded->body_len, 1u << 20);  // the bound always holds
    }
  }
}

TEST(WireFuzz, ResponseBodyRoundTripsStatusCodes) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kPermissionDenied,
        StatusCode::kInvalidArgument, StatusCode::kUnavailable}) {
    Status in = code == StatusCode::kOk ? Status::Ok()
                                        : Status(code, "some message");
    Bytes body = EncodeResponseBody(in, ToBytes("data"));
    auto out = DecodeResponseBody(body);
    if (code == StatusCode::kOk) {
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(ToString(*out), "data");
    } else {
      EXPECT_EQ(out.status().code(), code);
      EXPECT_EQ(out.status().message(), "some message");
    }
  }
}

}  // namespace
}  // namespace tc::net
