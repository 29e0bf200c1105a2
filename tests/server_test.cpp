// Server engine unit tests: direct handler-level exercises of stream
// lifecycle, key store, envelopes, and error paths (complementing the
// client-driven e2e tests).
#include <gtest/gtest.h>
#include <malloc.h>

#include <filesystem>
#include <functional>
#include <map>

#include "common/metrics.hpp"
#include "index/digest_cipher.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"

namespace tc::server {
namespace {

using net::MessageType;

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : kv_(std::make_shared<store::MemKvStore>()),
        engine_(std::make_shared<ServerEngine>(kv_)) {}

  net::StreamConfig PlainConfig() {
    net::StreamConfig c;
    c.name = "s";
    c.t0 = 0;
    c.delta_ms = 1000;
    c.schema.with_sum = true;
    c.schema.with_count = false;
    c.cipher = net::CipherKind::kPlain;
    c.fanout = 4;
    return c;
  }

  Status Create(uint64_t uuid, const net::StreamConfig& config) {
    net::CreateStreamRequest req{uuid, config};
    return engine_->Handle(MessageType::kCreateStream, req.Encode()).status();
  }

  Status Insert(uint64_t uuid, uint64_t chunk, uint64_t value,
                Bytes payload = {}) {
    auto cipher = index::MakePlainCipher(1);
    const Bytes digest = *cipher->Encrypt(std::vector<uint64_t>{value}, chunk);
    net::InsertChunkBatchRequest req{uuid, {{chunk, digest, payload}}};
    return engine_->Handle(MessageType::kInsertChunkBatch, req.Encode())
        .status();
  }

  Result<net::StatRangeResponse> Query(uint64_t uuid, TimeRange range) {
    net::StatRangeRequest req{uuid, range};
    TC_ASSIGN_OR_RETURN(Bytes payload,
                        engine_->Handle(MessageType::kGetStatRange,
                                        req.Encode()));
    return net::StatRangeResponse::Decode(payload);
  }

  /// The (chunk, payload) pairs GetRange returns for chunks [first, last).
  std::map<uint64_t, Bytes> Payloads(uint64_t uuid, uint64_t first,
                                     uint64_t last) {
    net::GetRangeRequest req{uuid, {static_cast<Timestamp>(first) * 1000,
                                    static_cast<Timestamp>(last) * 1000}};
    auto blob = engine_->Handle(MessageType::kGetRange, req.Encode());
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    std::map<uint64_t, Bytes> out;
    if (!blob.ok()) return out;
    auto resp = net::GetRangeResponse::Decode(*blob);
    EXPECT_TRUE(resp.ok());
    for (auto& c : resp->chunks) out.emplace(c.chunk_index, c.payload);
    return out;
  }

  Status DeleteRange(uint64_t uuid, uint64_t first, uint64_t last) {
    net::DeleteRangeRequest req{uuid, {static_cast<Timestamp>(first) * 1000,
                                       static_cast<Timestamp>(last) * 1000}};
    return engine_->Handle(MessageType::kDeleteRange, req.Encode()).status();
  }

  uint64_t DecodeSum(const net::StatRangeResponse& resp) {
    auto cipher = index::MakePlainCipher(1);
    return (*cipher->Decrypt(resp.aggregate_blob, resp.first_chunk,
                             resp.last_chunk))[0];
  }

  std::shared_ptr<store::MemKvStore> kv_;
  std::shared_ptr<ServerEngine> engine_;
};

TEST_F(ServerTest, StreamLifecycle) {
  EXPECT_TRUE(Create(1, PlainConfig()).ok());
  EXPECT_EQ(Create(1, PlainConfig()).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->NumStreams(), 1u);

  net::DeleteStreamRequest del{1};
  EXPECT_TRUE(engine_->Handle(MessageType::kDeleteStream, del.Encode()).ok());
  EXPECT_EQ(engine_->NumStreams(), 0u);
  EXPECT_FALSE(engine_->Handle(MessageType::kDeleteStream, del.Encode()).ok());
}

TEST_F(ServerTest, RejectsZeroDeltaAndEmptySchema) {
  auto bad_delta = PlainConfig();
  bad_delta.delta_ms = 0;
  EXPECT_FALSE(Create(1, bad_delta).ok());

  auto no_fields = PlainConfig();
  no_fields.schema.with_sum = false;
  EXPECT_FALSE(Create(2, no_fields).ok());
}

TEST_F(ServerTest, InsertAndQueryRoundTrip) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 10; ++c) {
    ASSERT_TRUE(Insert(1, c, c + 1).ok());
  }
  auto resp = Query(1, {0, 10'000});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(DecodeSum(*resp), 55u);
}

TEST_F(ServerTest, InsertEnforcesOrderAndBlobSize) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  ASSERT_TRUE(Insert(1, 0, 1).ok());
  EXPECT_FALSE(Insert(1, 2, 1).ok());  // gap
  const Bytes short_digest(3, 0);
  net::InsertChunkBatchRequest bad{1, {{1, short_digest, {}}}};
  EXPECT_FALSE(
      engine_->Handle(MessageType::kInsertChunkBatch, bad.Encode()).ok());
}

TEST_F(ServerTest, UnknownStreamAndTypeErrors) {
  auto& unknown =
      metrics::GetCounter("tc_server_requests_total", "type=\"unknown\"");
  auto& response =
      metrics::GetCounter("tc_server_requests_total", "type=\"response\"");
  uint64_t unknown_before = unknown.value();
  uint64_t response_before = response.value();

  EXPECT_FALSE(Query(9, {0, 1000}).ok());
  EXPECT_FALSE(engine_->Handle(static_cast<MessageType>(200), {}).ok());
  EXPECT_FALSE(engine_->Handle(static_cast<MessageType>(22), {}).ok());
  EXPECT_TRUE(engine_->Handle(MessageType::kPing, {}).ok());
  // A byte past the enum and a reserved one both count as "unknown";
  // neither is a response.
  EXPECT_EQ(unknown.value() - unknown_before, 2u);
  EXPECT_EQ(response.value(), response_before);
}

TEST_F(ServerTest, GrantStoreLifecycle) {
  net::PutGrantRequest put{1, "alice", 7, Bytes{1, 2, 3}};
  ASSERT_TRUE(engine_->Handle(MessageType::kPutGrant, put.Encode()).ok());
  net::PutGrantRequest put2{2, "alice", 8, Bytes{4}};
  ASSERT_TRUE(engine_->Handle(MessageType::kPutGrant, put2.Encode()).ok());

  net::FetchGrantsRequest fetch{"alice"};
  auto resp = engine_->Handle(MessageType::kFetchGrants, fetch.Encode());
  ASSERT_TRUE(resp.ok());
  auto grants = net::FetchGrantsResponse::Decode(*resp);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants->grants.size(), 2u);

  // Revoke stream 1's grants only.
  net::RevokeGrantRequest revoke{1, "alice", 0};
  ASSERT_TRUE(engine_->Handle(MessageType::kRevokeGrant, revoke.Encode()).ok());
  resp = engine_->Handle(MessageType::kFetchGrants, fetch.Encode());
  grants = net::FetchGrantsResponse::Decode(*resp);
  ASSERT_EQ(grants->grants.size(), 1u);
  EXPECT_EQ(grants->grants[0].uuid, 2u);

  // Unknown principals fetch empty lists, revoking them is a no-op.
  net::FetchGrantsRequest nobody{"nobody"};
  resp = engine_->Handle(MessageType::kFetchGrants, nobody.Encode());
  EXPECT_TRUE(net::FetchGrantsResponse::Decode(*resp)->grants.empty());
}

TEST_F(ServerTest, EnvelopeStoreRoundTrip) {
  net::PutEnvelopesRequest put{1, 6, 10, {Bytes{1}, Bytes{2}, Bytes{3}}};
  ASSERT_TRUE(engine_->Handle(MessageType::kPutEnvelopes, put.Encode()).ok());

  net::GetEnvelopesRequest get{1, 6, 11, 12};
  auto resp = engine_->Handle(MessageType::kGetEnvelopes, get.Encode());
  ASSERT_TRUE(resp.ok());
  auto envs = net::GetEnvelopesResponse::Decode(*resp);
  ASSERT_TRUE(envs.ok());
  ASSERT_EQ(envs->envelopes.size(), 2u);
  EXPECT_EQ(envs->envelopes[0], Bytes{2});

  net::GetEnvelopesRequest missing{1, 6, 99, 99};
  EXPECT_FALSE(
      engine_->Handle(MessageType::kGetEnvelopes, missing.Encode()).ok());
}

TEST_F(ServerTest, StreamInfoReportsProgress) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  ASSERT_TRUE(Insert(1, 0, 5).ok());
  net::StreamInfoRequest info{1};
  auto resp = engine_->Handle(MessageType::kGetStreamInfo, info.Encode());
  ASSERT_TRUE(resp.ok());
  auto decoded = net::StreamInfoResponse::Decode(*resp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_chunks, 1u);
  EXPECT_EQ(decoded->config.name, "s");
}

TEST_F(ServerTest, RollupValidation) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 8; ++c) ASSERT_TRUE(Insert(1, c, 1).ok());

  net::RollupStreamRequest bad{1, 2, 0, {0, 0}};
  EXPECT_FALSE(engine_->Handle(MessageType::kRollupStream, bad.Encode()).ok());

  net::RollupStreamRequest ok{1, 2, 4, {0, 0}};
  ASSERT_TRUE(engine_->Handle(MessageType::kRollupStream, ok.Encode()).ok());
  auto resp = Query(2, {0, 8000});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(DecodeSum(*resp), 8u);
}

TEST_F(ServerTest, RollupOverAnExplicitRange) {
  // Chunk c holds c + 1. The range [5 s, 11.5 s) covers chunks 5..11; it is
  // widened down to a whole window at 4 and cut at the 12 chunks ingested,
  // so the derived stream holds windows [4, 8) and [8, 12).
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 12; ++c) ASSERT_TRUE(Insert(1, c, c + 1).ok());
  net::RollupStreamRequest rollup{1, 2, 4, {5000, 11500}};
  auto reply = engine_->Handle(MessageType::kRollupStream, rollup.Encode());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto segment = net::RollupStreamResponse::Decode(*reply);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(segment->first_chunk, 4u);
  EXPECT_EQ(segment->last_chunk, 12u);

  // The derived stream starts at the segment's first chunk, 4 s.
  auto first_window = Query(2, {4000, 8000});
  ASSERT_TRUE(first_window.ok()) << first_window.status().ToString();
  EXPECT_EQ(DecodeSum(*first_window), 5u + 6 + 7 + 8);
  auto both = Query(2, {4000, 12000});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(DecodeSum(*both), 5u + 6 + 7 + 8 + 9 + 10 + 11 + 12);

  // A range that starts past the ingested chunks creates nothing.
  net::RollupStreamRequest beyond{1, 3, 4, {20'000, 30'000}};
  EXPECT_EQ(engine_->Handle(MessageType::kRollupStream, beyond.Encode())
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine_->NumStreams(), 2u);
}

// Cipher kinds 2 and 3 (the paper's strawmen) are reserved: the engine
// refuses them before it reads the config's key bytes, and stores nothing.
TEST_F(ServerTest, StrawmanCipherKindsAreRefused) {
  for (uint8_t kind : {2, 3}) {
    auto config = PlainConfig();
    config.cipher = static_cast<net::CipherKind>(kind);
    config.cipher_public = ToBytes("arbitrary");
    Status refused = Create(1, config);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    EXPECT_NE(refused.message().find("cipher kind " + std::to_string(kind)),
              std::string::npos)
        << refused.ToString();
  }
  EXPECT_EQ(engine_->NumStreams(), 0u);
  EXPECT_EQ(kv_->Size(), 0u);
  // The uuid stays free.
  EXPECT_TRUE(Create(1, PlainConfig()).ok());
}

TEST_F(ServerTest, MultiStatRequiresMatchingLayouts) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  auto two_fields = PlainConfig();
  two_fields.schema.with_count = true;
  ASSERT_TRUE(Create(2, two_fields).ok());
  ASSERT_TRUE(Insert(1, 0, 5).ok());

  auto cipher2 = index::MakePlainCipher(2);
  const Bytes digest2 = *cipher2->Encrypt(std::vector<uint64_t>{5, 1}, 0);
  net::InsertChunkBatchRequest ins2{2, {{0, digest2, {}}}};
  ASSERT_TRUE(
      engine_->Handle(MessageType::kInsertChunkBatch, ins2.Encode()).ok());

  net::MultiStatRangeRequest req{{1, 2}, {0, 1000}};
  EXPECT_FALSE(
      engine_->Handle(MessageType::kMultiStatRange, req.Encode()).ok());
}

TEST_F(ServerTest, TotalIndexBytesAccumulates) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  ASSERT_TRUE(Insert(1, 0, 1).ok());
  EXPECT_GT(engine_->TotalIndexBytes(), 0u);
}

/// Chunk c's payload in PlainBatch by default: 8 bytes of c.
Bytes EightBytesOf(uint64_t c) { return Bytes(8, static_cast<uint8_t>(c)); }

/// The body of an InsertChunkBatch request of chunks [first, first + count)
/// of a one-field plaintext stream. Chunk c's payload is payload(c).
Bytes PlainBatch(uint64_t uuid, uint64_t first, uint64_t count,
                 const std::function<Bytes(uint64_t)>& payload = EightBytesOf) {
  auto cipher = index::MakePlainCipher(1);
  // Reserved up front: the entries view these buffers.
  std::vector<Bytes> digests, payloads;
  digests.reserve(count);
  payloads.reserve(count);
  net::InsertChunkBatchRequest batch{uuid, {}};
  for (uint64_t c = first; c < first + count; ++c) {
    digests.push_back(*cipher->Encrypt(std::vector<uint64_t>{c}, c));
    payloads.push_back(payload(c));
    batch.entries.push_back({c, digests.back(), payloads.back()});
  }
  return batch.Encode();
}

TEST_F(ServerTest, BatchMarksStoreAndIndexStagesOnce) {
  auto& store_hist =
      metrics::GetHistogram("tc_server_stage_seconds", "stage=\"store\"");
  auto& index_hist =
      metrics::GetHistogram("tc_server_stage_seconds", "stage=\"index\"");
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  uint64_t store_before = store_hist.Snapshot().count;
  uint64_t index_before = index_hist.Snapshot().count;
  ASSERT_TRUE(engine_
                  ->Handle(MessageType::kInsertChunkBatch,
                           PlainBatch(1, 0, 10))
                  .ok());
  EXPECT_EQ(store_hist.Snapshot().count, store_before + 1);
  EXPECT_EQ(index_hist.Snapshot().count, index_before + 1);
}

/// Chunk c's payload in these tests: none for every third chunk.
Bytes TestPayload(uint64_t c) {
  return c % 3 == 0 ? Bytes{} : Bytes(1 + c % 200, static_cast<uint8_t>(c));
}

TEST_F(ServerTest, PayloadsRoundTripAcrossBlocks) {
  // Payloads sit in 64-chunk blocks; single inserts append to the open
  // block and a batch writes its share of each block at once.
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 70; ++c) {
    ASSERT_TRUE(Insert(1, c, 1, TestPayload(c)).ok());
  }
  ASSERT_TRUE(engine_
                  ->Handle(MessageType::kInsertChunkBatch,
                           PlainBatch(1, 70, 130, TestPayload))
                  .ok());
  for (uint64_t c = 200; c < 205; ++c) {
    ASSERT_TRUE(Insert(1, c, 1, TestPayload(c)).ok());
  }
  EXPECT_TRUE(kv_->Contains("pay/1/3"));
  EXPECT_FALSE(kv_->Contains("pay/1/4"));

  auto check = [&] {
    auto got = Payloads(1, 0, 205);
    for (uint64_t c = 0; c < 205; ++c) {
      if (c % 3 == 0) {
        EXPECT_FALSE(got.contains(c)) << "chunk " << c;
      } else {
        EXPECT_EQ(got[c], TestPayload(c)) << "chunk " << c;
      }
    }
    EXPECT_EQ(Payloads(1, 130, 131).size(), 1u);
  };
  check();
  engine_ = std::make_shared<ServerEngine>(kv_);  // restart
  check();
  ASSERT_TRUE(Insert(1, 205, 1, TestPayload(205)).ok());
  EXPECT_EQ(Payloads(1, 205, 206)[205], TestPayload(205));
}

TEST_F(ServerTest, DeleteRangeDropsPayloadsAndKeepsDigests) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  ASSERT_TRUE(engine_
                  ->Handle(MessageType::kInsertChunkBatch,
                           PlainBatch(1, 0, 150, TestPayload))
                  .ok());

  // Block 1 (chunks 64-127) goes whole; blocks 0 and 2 keep some chunks.
  ASSERT_TRUE(DeleteRange(1, 10, 140).ok());
  EXPECT_FALSE(kv_->Contains("pay/1/1"));
  EXPECT_TRUE(kv_->Contains("pay/1/0"));
  auto kept = [](uint64_t c) { return c % 3 != 0 && (c < 10 || c >= 140); };
  auto check = [&](uint64_t last) {
    auto got = Payloads(1, 0, last);
    for (uint64_t c = 0; c < last; ++c) {
      if (kept(c)) {
        EXPECT_EQ(got[c], TestPayload(c)) << "chunk " << c;
      } else {
        EXPECT_FALSE(got.contains(c)) << "chunk " << c;
      }
    }
  };
  check(150);
  auto sum = Query(1, {0, 150'000});
  ASSERT_TRUE(sum.ok());
  uint64_t expected = 0;
  for (uint64_t c = 0; c < 150; ++c) expected += c;
  EXPECT_EQ(DecodeSum(*sum), expected);

  // The open block was rewritten under the stream: ingest continues, and
  // deleting the same range again changes nothing.
  ASSERT_TRUE(Insert(1, 150, 150, TestPayload(150)).ok());
  ASSERT_TRUE(DeleteRange(1, 10, 140).ok());
  check(151);
  engine_ = std::make_shared<ServerEngine>(kv_);  // restart
  check(151);
}

TEST_F(ServerTest, DeleteStreamLeavesNoKeysBehind) {
  // A stream that stays keeps the stream directory in the store.
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  ASSERT_TRUE(Insert(1, 0, 1).ok());
  const size_t before = kv_->Size();

  ASSERT_TRUE(Create(2, PlainConfig()).ok());
  ASSERT_TRUE(engine_
                  ->Handle(MessageType::kInsertChunkBatch,
                           PlainBatch(2, 0, 300))
                  .ok());
  for (uint64_t c = 300; c < 303; ++c) ASSERT_TRUE(Insert(2, c, 1).ok());
  // A block that a failed batch wrote past the position.
  ASSERT_TRUE(kv_->Put("pay/2/5", Bytes{1, 7}).ok());
  EXPECT_GT(kv_->Size(), before + 300 / 64);

  net::DeleteStreamRequest del{2};
  ASSERT_TRUE(engine_->Handle(MessageType::kDeleteStream, del.Encode()).ok());
  EXPECT_EQ(kv_->Size(), before);
}

TEST_F(ServerTest, IngestRewritesPayloadsLeftAheadOfTheIndex) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 5; ++c) {
    ASSERT_TRUE(Insert(1, c, 1, TestPayload(c)).ok());
  }
  // A crash between chunk 5's payload write and its index entry: the
  // block holds an entry past the index.
  Bytes block = *kv_->Get("pay/1/0");
  tc::Append(block, Bytes{3, 9, 9, 9});
  ASSERT_TRUE(kv_->Put("pay/1/0", block).ok());

  engine_ = std::make_shared<ServerEngine>(kv_);  // restart
  ASSERT_TRUE(Insert(1, 5, 1, Bytes{5, 5}).ok());
  ASSERT_TRUE(Insert(1, 6, 1, Bytes{6}).ok());
  auto got = Payloads(1, 0, 7);
  EXPECT_EQ(got[5], (Bytes{5, 5}));
  EXPECT_EQ(got[6], (Bytes{6}));
  EXPECT_EQ(got[4], TestPayload(4));
}

TEST_F(ServerTest, RollupStreamSurvivesRestart) {
  ASSERT_TRUE(Create(1, PlainConfig()).ok());
  for (uint64_t c = 0; c < 8; ++c) ASSERT_TRUE(Insert(1, c, 1).ok());
  net::RollupStreamRequest rollup{1, 2, 4, {0, 0}};
  ASSERT_TRUE(
      engine_->Handle(MessageType::kRollupStream, rollup.Encode()).ok());

  engine_ = std::make_shared<ServerEngine>(kv_);  // restart
  EXPECT_EQ(engine_->NumStreams(), 2u);
  auto resp = Query(2, {0, 8000});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(DecodeSum(*resp), 8u);
  EXPECT_TRUE(Payloads(2, 0, 2).empty());
}

// ------------------------------------------------- stored record layouts
// The engine's records are the store's durable contract: a store written by
// one build must open under the next. These pin their exact bytes.

Bytes Hex(std::string_view hex) { return FromHex(hex).value(); }

TEST_F(ServerTest, StreamDirectoryBytesArePinned) {
  ASSERT_TRUE(Create(0x0102030405060708, PlainConfig()).ok());
  ASSERT_TRUE(Create(7, PlainConfig()).ok());
  // varint count, then each uuid as a little-endian u64, in uuid order.
  EXPECT_EQ(ToHex(kv_->Get("meta/streams").value()),
            "02" "0700000000000000" "0807060504030201");
}

TEST_F(ServerTest, StreamDirectoryThatDoesNotDecodeIsRejected) {
  for (const char* dir : {
           "02" "0700000000000000" "080706",     // truncated
           "ffffffff0f" "0700000000000000",      // count beyond the input
       }) {
    auto kv = std::make_shared<store::MemKvStore>();
    ASSERT_TRUE(kv->Put("meta/streams", Hex(dir)).ok());
    ServerEngine engine(kv);  // recovery is best-effort: no stream, no crash
    EXPECT_EQ(engine.NumStreams(), 0u) << dir;
    EXPECT_EQ(engine.Refresh().code(), StatusCode::kDataLoss) << dir;
  }
}

TEST_F(ServerTest, GrantDirectoryBytesArePinned) {
  for (const net::PutGrantRequest& put : {
           net::PutGrantRequest{7, "alice", 1, ToBytes("s1")},
           net::PutGrantRequest{8, "alice", 2, ToBytes("s2")},
           net::PutGrantRequest{7, "bob", 3, ToBytes("s3")},
       }) {
    ASSERT_TRUE(engine_->Handle(MessageType::kPutGrant, put.Encode()).ok());
  }
  // varint principal count; per principal its name, a varint grant count
  // and (uuid, grant id) as little-endian u64s.
  EXPECT_EQ(ToHex(kv_->Get("meta/grantdir").value()),
            "02"
            "05616c696365" "02"
            "0700000000000000" "0100000000000000"
            "0800000000000000" "0200000000000000"
            "03626f62" "01"
            "0700000000000000" "0300000000000000");
}

TEST_F(ServerTest, GrantDirectoryThatDoesNotDecodeIsRejected) {
  auto alice_grants = [](const char* dir) {
    auto kv = std::make_shared<store::MemKvStore>();
    EXPECT_TRUE(kv->Put("grant/alice/7/1", ToBytes("sealed")).ok());
    EXPECT_TRUE(kv->Put("meta/grantdir", Hex(dir)).ok());
    ServerEngine engine(kv);
    auto resp = engine.Handle(MessageType::kFetchGrants,
                              net::FetchGrantsRequest{"alice"}.Encode());
    EXPECT_TRUE(resp.ok());
    return net::FetchGrantsResponse::Decode(resp.value())->grants.size();
  };
  EXPECT_EQ(alice_grants("01" "05616c696365" "01"
                         "0700000000000000" "0100000000000000"),
            1u);
  EXPECT_EQ(alice_grants("01" "05616c696365" "01"
                         "0700000000000000" "0100"),  // truncated
            0u);
  EXPECT_EQ(alice_grants("ffffffff0f" "05616c696365" "01"
                         "0700000000000000"),  // count beyond the input
            0u);
}

TEST_F(ServerTest, PayloadBlockBytesArePinned) {
  ASSERT_TRUE(Create(7, PlainConfig()).ok());
  const Bytes batch = PlainBatch(7, 0, 3, [](uint64_t c) {
    return c == 0 ? ToBytes("ab") : c == 2 ? ToBytes("cde") : Bytes{};
  });
  ASSERT_TRUE(engine_->Handle(MessageType::kInsertChunkBatch, batch).ok());
  // One entry per chunk: varint length, then the payload.
  EXPECT_EQ(ToHex(kv_->Get("pay/7/0").value()), "026162" "00" "03636465");
}

TEST_F(ServerTest, PayloadBlockThatDoesNotDecodeIsRejected) {
  ASSERT_TRUE(Create(7, PlainConfig()).ok());
  ASSERT_TRUE(engine_
                  ->Handle(MessageType::kInsertChunkBatch,
                           PlainBatch(7, 0, 2))
                  .ok());
  for (const char* block : {
           "026162" "056364",      // truncated second entry
           "026162" "ffffffff0f6364",  // length beyond the input
       }) {
    ASSERT_TRUE(kv_->Put("pay/7/0", Hex(block)).ok());
    net::GetRangeRequest req{7, {0, 2000}};
    EXPECT_EQ(engine_->Handle(MessageType::kGetRange, req.Encode())
                  .status()
                  .code(),
              StatusCode::kDataLoss)
        << block;
  }
}

TEST(ServerHeap, BatchedChunkTakesAtMost80BytesOfHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer replaces malloc, which mallinfo2 measures";
#endif
  // Over a log store with the index cache off, the heap holds the engine's
  // stream state and the store's key directory: a chunk key per chunk, an
  // index node key per 64 chunks, and a side-table extent per appended
  // record. Allocations too big for the heap are mapped and counted in
  // hblkhd, not uordblks.
  constexpr uint64_t kBatch = 256;
  constexpr uint64_t kChunks = 65'536;
  auto path = std::filesystem::path(::testing::TempDir()) /
              ("server_heap_" + std::to_string(::getpid()) + ".log");
  std::filesystem::remove(path);
  {
    auto log = store::LogKvStore::Open(path.string());
    ASSERT_TRUE(log.ok());
    ServerOptions options;
    options.index_cache_bytes = 0;
    ServerEngine engine(std::shared_ptr<store::KvStore>(std::move(*log)),
                        options);
    net::StreamConfig config;
    config.name = "s";
    config.t0 = 0;
    config.delta_ms = 1000;
    config.schema.with_sum = true;
    config.schema.with_count = false;
    config.cipher = net::CipherKind::kPlain;
    config.fanout = 64;
    // A random-looking 64-bit uuid, so keys are as long as in production.
    constexpr uint64_t kUuid = 18446744073709551557u;
    net::CreateStreamRequest create{kUuid, config};
    ASSERT_TRUE(
        engine.Handle(MessageType::kCreateStream, create.Encode()).ok());

    auto heap_bytes = [] {
      struct mallinfo2 info = ::mallinfo2();
      return info.uordblks + info.hblkhd;
    };
    size_t before = heap_bytes();
    for (uint64_t first = 0; first < kChunks; first += kBatch) {
      ASSERT_TRUE(engine
                      .Handle(MessageType::kInsertChunkBatch,
                              PlainBatch(kUuid, first, kBatch))
                      .ok());
    }
    size_t per_chunk = (heap_bytes() - before) / kChunks;
    EXPECT_LE(per_chunk, 80u) << "heap bytes per batched chunk";
  }
  std::filesystem::remove(path);
}

/// Heap bytes per chunk that an engine over a log store, with the index
/// cache off, takes to ingest 65,536 chunks of a one-field plaintext stream
/// with 8-byte payloads: in batches of 256 chunks, or of one chunk each.
/// The heap then holds the engine's stream state and the store's key
/// directory: a payload block key and an index node key per 64 chunks, and
/// a side-table extent per appended record. Allocations too big for the
/// heap are mapped and counted in hblkhd, not uordblks.
size_t HeapBytesPerChunk(bool batched) {
  constexpr uint64_t kBatch = 256;
  constexpr uint64_t kChunks = 65'536;
  auto path = std::filesystem::path(::testing::TempDir()) /
              ("server_heap_" + std::to_string(::getpid()) + ".log");
  std::filesystem::remove(path);
  size_t per_chunk = 0;
  {
    auto log = store::LogKvStore::Open(path.string());
    EXPECT_TRUE(log.ok());
    ServerOptions options;
    options.index_cache_bytes = 0;
    ServerEngine engine(std::shared_ptr<store::KvStore>(std::move(*log)),
                        options);
    net::StreamConfig config;
    config.name = "s";
    config.t0 = 0;
    config.delta_ms = 1000;
    config.schema.with_sum = true;
    config.schema.with_count = false;
    config.cipher = net::CipherKind::kPlain;
    config.fanout = 64;
    // A random-looking 64-bit uuid, so keys are as long as in production.
    constexpr uint64_t kUuid = 18446744073709551557u;
    net::CreateStreamRequest create{kUuid, config};
    EXPECT_TRUE(
        engine.Handle(MessageType::kCreateStream, create.Encode()).ok());

    auto heap_bytes = [] {
      struct mallinfo2 info = ::mallinfo2();
      return info.uordblks + info.hblkhd;
    };
    size_t before = heap_bytes();
    for (uint64_t first = 0; first < kChunks; first += kBatch) {
      if (batched) {
        EXPECT_TRUE(engine
                        .Handle(MessageType::kInsertChunkBatch,
                                PlainBatch(kUuid, first, kBatch))
                        .ok());
        continue;
      }
      for (uint64_t c = first; c < first + kBatch; ++c) {
        EXPECT_TRUE(engine
                        .Handle(MessageType::kInsertChunkBatch,
                                PlainBatch(kUuid, c, 1))
                        .ok());
      }
    }
    per_chunk = (heap_bytes() - before) / kChunks;
  }
  std::filesystem::remove(path);
  return per_chunk;
}

TEST(ServerHeap, BatchedChunkTakesAtMost8BytesOfHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer replaces malloc, which mallinfo2 measures";
#endif
  EXPECT_LE(HeapBytesPerChunk(/*batched=*/true), 8u)
      << "heap bytes per batched chunk";
}

TEST(ServerHeap, SingleInsertChunkTakesAtMost40BytesOfHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer replaces malloc, which mallinfo2 measures";
#endif
  // Two side-table extents per chunk: its payload block's and its index
  // node's appends.
  EXPECT_LE(HeapBytesPerChunk(/*batched=*/false), 40u)
      << "heap bytes per single-inserted chunk";
}

// sync_each_insert flushes outside the stream lock (holding stream->mu
// across an fsync would stall every reader behind the disk, and abort a
// Debug build), so the ack-after-flush contract is asserted here directly: a
// successful insert returns only after a Sync covered its Puts, and a
// batch pays exactly one Sync.
class SyncSpyKv final : public store::KvStore {
 public:
  explicit SyncSpyKv(std::shared_ptr<store::KvStore> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& key, BytesView value) override {
    ++unsynced_writes_;
    return inner_->Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override {
    ++unsynced_writes_;
    return inner_->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Sync() override {
    ++syncs_;
    unsynced_writes_ = 0;
    return inner_->Sync();
  }

  int syncs() const { return syncs_; }
  int unsynced_writes() const { return unsynced_writes_; }

 private:
  std::shared_ptr<store::KvStore> inner_;
  int syncs_ = 0;
  int unsynced_writes_ = 0;
};

TEST(ServerSyncEachInsert, AckImpliesFlushedAndBatchPaysOneSync) {
  auto spy =
      std::make_shared<SyncSpyKv>(std::make_shared<store::MemKvStore>());
  ServerOptions opts;
  opts.sync_each_insert = true;
  ServerEngine engine(spy, opts);

  net::StreamConfig config;
  config.name = "s";
  config.t0 = 0;
  config.delta_ms = 1000;
  config.schema.with_sum = true;
  config.schema.with_count = false;
  config.cipher = net::CipherKind::kPlain;
  config.fanout = 4;
  net::CreateStreamRequest create{1, config};
  ASSERT_TRUE(
      engine.Handle(MessageType::kCreateStream, create.Encode()).ok());

  auto cipher = index::MakePlainCipher(1);
  int syncs_before = spy->syncs();
  const Bytes payload{0x01};
  const Bytes digest = *cipher->Encrypt(std::vector<uint64_t>{1}, 0);
  net::InsertChunkBatchRequest ins{1, {{0, digest, payload}}};
  ASSERT_TRUE(
      engine.Handle(MessageType::kInsertChunkBatch, ins.Encode()).ok());
  EXPECT_EQ(spy->syncs(), syncs_before + 1);  // one insert, one flush
  EXPECT_EQ(spy->unsynced_writes(), 0);       // ...and it covered the Puts

  net::InsertChunkBatchRequest batch;
  batch.uuid = 1;
  std::vector<Bytes> digests;
  for (uint64_t i = 1; i <= 4; ++i) {
    digests.push_back(*cipher->Encrypt(std::vector<uint64_t>{i}, i));
  }
  for (uint64_t i = 1; i <= 4; ++i) {
    batch.entries.push_back({i, digests[i - 1], payload});
  }
  syncs_before = spy->syncs();
  ASSERT_TRUE(
      engine.Handle(MessageType::kInsertChunkBatch, batch.Encode()).ok());
  EXPECT_EQ(spy->syncs(), syncs_before + 1);  // whole batch, one flush
  EXPECT_EQ(spy->unsynced_writes(), 0);
}

}  // namespace
}  // namespace tc::server
