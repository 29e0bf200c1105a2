// Sharded cluster layer tests: stream-partitioned routing must be
// transparent — batched uploads and their retries behave over an N-shard
// router as over a single engine, while cluster-wide operations
// scatter-gather correctly. The whole client workflow (ingest, queries,
// grants, rollup) over routers is tests/scenario_test.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <set>

#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "replica/follower_daemon.hpp"
#include "replica/replica_set.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"
#include "temp_logs.hpp"
#include "tests/support/helpers.hpp"

namespace tc {
namespace {

using client::OwnerClient;
using cluster::ShardRouter;
using testing::HeacConfig;
using testing::IngestChunks;
using testing::kDelta;
using testing::OracleSum;
using testing::PlainConfig;

/// An N-shard in-process cluster, each shard over its own memory store.
struct Cluster {
  std::vector<std::shared_ptr<server::ServerEngine>> engines;
  std::shared_ptr<ShardRouter> router;
  std::shared_ptr<net::InProcTransport> transport;
};

Cluster MakeCluster(size_t shards) {
  Cluster c;
  for (size_t i = 0; i < shards; ++i) {
    server::ServerOptions options;
    options.shard_id = static_cast<uint32_t>(i);
    c.engines.push_back(std::make_shared<server::ServerEngine>(
        std::make_shared<store::MemKvStore>(), options));
  }
  c.router = std::make_shared<ShardRouter>(c.engines);
  c.transport = std::make_shared<net::InProcTransport>(c.router);
  return c;
}

/// Find a uuid that the router places on `shard` (deterministic probe).
uint64_t UuidOnShard(const ShardRouter& router, size_t shard,
                     uint64_t salt = 1) {
  for (uint64_t u = salt;; ++u) {
    if (router.ShardOf(u) == shard) return u;
  }
}

/// Wire-level plaintext stream: create + insert `chunks` digests where
/// chunk c carries sum = value(c), count = 1.
void MakePlainStream(net::Transport& t, uint64_t uuid, uint64_t chunks,
                     std::function<uint64_t(uint64_t)> value) {
  net::CreateStreamRequest create{uuid, PlainConfig("plain")};
  ASSERT_TRUE(t.Call(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t c = 0; c < chunks; ++c) {
    std::vector<uint64_t> fields{value(c), 1};
    Bytes blob = *cipher->Encrypt(fields, c);
    net::InsertChunkBatchRequest req{uuid, {{c, blob, {}}}};
    ASSERT_TRUE(t.Call(net::MessageType::kInsertChunkBatch, req.Encode()).ok())
        << "chunk " << c;
  }
}

/// Decode a plaintext-cipher StatRangeResponse blob into its u64 fields.
std::vector<uint64_t> PlainFields(BytesView blob) {
  std::vector<uint64_t> fields(blob.size() / 8);
  std::memcpy(fields.data(), blob.data(), fields.size() * 8);
  return fields;
}

TEST(ShardRouter, PlacementIsDeterministicAndCoversAllShards) {
  auto a = MakeCluster(4);
  auto b = MakeCluster(4);
  std::set<size_t> hit;
  for (uint64_t uuid = 1; uuid <= 1000; ++uuid) {
    size_t shard = a.router->ShardOf(uuid);
    EXPECT_EQ(shard, b.router->ShardOf(uuid)) << uuid;
    ASSERT_LT(shard, 4u);
    hit.insert(shard);
  }
  // SplitMix64 dispersion: 1000 sequential uuids must reach every shard.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouter, BatchedIngestMatchesUnbatched) {
  auto c = MakeCluster(3);
  client::OwnerOptions batched;
  batched.upload_batch_chunks = 8;
  OwnerClient owner_single(c.transport);
  OwnerClient owner_batched(c.transport, batched);

  auto a = owner_single.CreateStream(HeacConfig("single"));
  auto b = owner_batched.CreateStream(HeacConfig("batched"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(IngestChunks(owner_single, *a, 0, 21).ok());
  ASSERT_TRUE(IngestChunks(owner_batched, *b, 0, 21).ok());

  auto sa = owner_single.GetStatRange(*a, {0, 21 * kDelta});
  auto sb = owner_batched.GetStatRange(*b, {0, 21 * kDelta});
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();
  EXPECT_EQ(sa->stats.Sum().value(), sb->stats.Sum().value());
  EXPECT_EQ(sb->stats.Sum().value(), OracleSum(0, 21));
  // Raw reads decrypt across batch boundaries too.
  auto points = owner_batched.GetRange(*b, {0, 21 * kDelta});
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 21u * 5u);
}

constexpr uint64_t kNever = ~uint64_t{0};

/// Transport that fails one InsertChunkBatch: the next one when armed, or
/// the first one starting at chunk `fail_batch_at` (transient network error
/// injection for the upload retry path).
class FlakyTransport final : public net::Transport {
 public:
  explicit FlakyTransport(std::shared_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  net::PendingCall AsyncCall(net::MessageType type, BytesView body,
                             net::CallCallback on_done = nullptr) override {
    if (type == net::MessageType::kInsertChunkBatch &&
        (fail_next_batch || FirstChunk(body) == fail_batch_at)) {
      fail_next_batch = false;
      fail_batch_at = kNever;
      net::CallCompleter completer(std::move(on_done));
      completer.Complete(Unavailable("injected transport failure"));
      return completer.pending();
    }
    return inner_->AsyncCall(type, body, std::move(on_done));
  }

  bool fail_next_batch = false;
  uint64_t fail_batch_at = kNever;

 private:
  static uint64_t FirstChunk(BytesView body) {
    auto req = net::InsertChunkBatchRequest::Decode(body);
    return req.ok() && !req->entries.empty() ? req->entries[0].chunk_index
                                              : kNever;
  }

  std::shared_ptr<net::Transport> inner_;
};

TEST(ShardRouter, BatchedUploadSurvivesTransientTransportFailure) {
  auto c = MakeCluster(2);
  auto flaky = std::make_shared<FlakyTransport>(c.transport);
  client::OwnerOptions options;
  options.upload_batch_chunks = 8;
  OwnerClient owner(flaky, options);
  auto uuid = owner.CreateStream(HeacConfig("flaky"));
  ASSERT_TRUE(uuid.ok());

  // Five chunks sealed into the client-side buffer (batch never fills).
  for (uint64_t ch = 0; ch < 5; ++ch) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(owner
                      .InsertRecord(*uuid,
                                    {static_cast<Timestamp>(ch * kDelta +
                                                            i * 1000),
                                     static_cast<int64_t>(ch + 1)})
                      .ok());
    }
  }

  // The batch send fails; the sealed chunks must survive client-side so a
  // retry can deliver them without gapping the append-only stream.
  flaky->fail_next_batch = true;
  EXPECT_FALSE(owner.Flush(*uuid).ok());
  ASSERT_TRUE(owner.Flush(*uuid).ok());

  auto stats = owner.GetStatRange(*uuid, {0, 5 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 5));
  EXPECT_EQ(stats->stats.Count().value(), 25u);
}

/// One upload that fails mid-ingest, on a stream with or without a witness
/// tree, in batches of `batch_chunks` (1: one-chunk uploads).
struct MidIngestFailure {
  bool integrity;
  uint64_t batch_chunks;
  uint64_t fail_at;  // first chunk of the failing batch
};

class UploadFailsMidIngest
    : public ::testing::TestWithParam<MidIngestFailure> {};

TEST_P(UploadFailsMidIngest, OneCallFailsAndEveryChunkLandsOnce) {
  // The owner moves on to the next chunk and re-sends the failed ones after
  // a resync: exactly the call that saw the failure fails, and the stream
  // ends with no gap and no duplicate.
  const MidIngestFailure& p = GetParam();
  auto c = MakeCluster(2);
  auto flaky = std::make_shared<FlakyTransport>(c.transport);
  client::OwnerOptions options;
  options.upload_batch_chunks = p.batch_chunks;
  OwnerClient owner(flaky, options);
  auto config = HeacConfig("mid-ingest");
  config.integrity = p.integrity;
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());

  // 40 chunks of 5 points; each failed InsertRecord is retried once.
  constexpr uint64_t kChunks = 40;
  flaky->fail_batch_at = p.fail_at;
  int failed_calls = 0;
  for (uint64_t ch = 0; ch < kChunks; ++ch) {
    for (int i = 0; i < 5; ++i) {
      index::DataPoint point{static_cast<Timestamp>(ch * kDelta + i * 1000),
                             static_cast<int64_t>(ch + 1)};
      Status st = owner.InsertRecord(*uuid, point);
      if (!st.ok()) {
        ++failed_calls;
        st = owner.InsertRecord(*uuid, point);
      }
      ASSERT_TRUE(st.ok()) << "chunk " << ch << ": " << st.ToString();
    }
  }
  Status flush = owner.Flush(*uuid);
  ASSERT_TRUE(flush.ok()) << flush.ToString();
  EXPECT_EQ(failed_calls, 1);
  EXPECT_EQ(flaky->fail_batch_at, kNever) << "no upload failed";

  net::StreamInfoRequest info_req{*uuid};
  auto info_blob = c.transport->Call(net::MessageType::kGetStreamInfo,
                                     info_req.Encode());
  ASSERT_TRUE(info_blob.ok());
  EXPECT_EQ(net::StreamInfoResponse::Decode(*info_blob)->num_chunks, kChunks);
  auto stats = owner.GetStatRange(*uuid, {0, kChunks * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Count().value(), 5 * kChunks);
  EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, kChunks));
  if (!p.integrity) return;
  ASSERT_TRUE(owner.Attest(*uuid).ok());
  auto verified = owner.GetVerifiedStatRange(*uuid, {0, kChunks * kDelta});
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->stats.Count().value(), 5 * kChunks);
  EXPECT_EQ(verified->stats.Sum().value(), OracleSum(0, kChunks));
}

INSTANTIATE_TEST_SUITE_P(
    ShardRouter, UploadFailsMidIngest,
    ::testing::Values(MidIngestFailure{false, 4, 8},
                      MidIngestFailure{true, 4, 8},
                      MidIngestFailure{false, 1, 13},
                      MidIngestFailure{true, 1, 13}),
    [](const ::testing::TestParamInfo<MidIngestFailure>& info) {
      return std::string(info.param.integrity ? "Integrity" : "Heac") +
             (info.param.batch_chunks == 1 ? "OneChunk" : "Batched");
    });

TEST(ShardRouter, BatchedChunksInvisibleUntilFlush) {
  auto c = MakeCluster(2);
  client::OwnerOptions options;
  options.upload_batch_chunks = 16;
  OwnerClient owner(c.transport, options);
  auto uuid = owner.CreateStream(HeacConfig("buffered"));
  ASSERT_TRUE(uuid.ok());

  // Three sealed chunks stay client-side: the batch has not filled.
  for (uint64_t ch = 0; ch < 4; ++ch) {
    ASSERT_TRUE(
        owner.InsertRecord(*uuid, {static_cast<Timestamp>(ch * kDelta), 1})
            .ok());
  }
  net::StreamInfoRequest info_req{*uuid};
  auto info_blob = c.transport->Call(net::MessageType::kGetStreamInfo,
                                     info_req.Encode());
  ASSERT_TRUE(info_blob.ok());
  EXPECT_EQ(net::StreamInfoResponse::Decode(*info_blob)->num_chunks, 0u);

  ASSERT_TRUE(owner.Flush(*uuid).ok());
  info_blob = c.transport->Call(net::MessageType::kGetStreamInfo,
                                info_req.Encode());
  ASSERT_TRUE(info_blob.ok());
  EXPECT_EQ(net::StreamInfoResponse::Decode(*info_blob)->num_chunks, 4u);
}

TEST(ShardRouter, InsertChunkBatchValidation) {
  auto c = MakeCluster(2);
  uint64_t uuid = UuidOnShard(*c.router, 0);
  MakePlainStream(*c.transport, uuid, 2, [](uint64_t) { return 1; });
  auto cipher = index::MakePlainCipher(2);
  std::vector<uint64_t> fields{1, 1};
  Bytes blob = *cipher->Encrypt(fields, 0);

  // Empty batch.
  net::InsertChunkBatchRequest empty{uuid, {}};
  EXPECT_EQ(c.transport->Call(net::MessageType::kInsertChunkBatch,
                              empty.Encode())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A gap: the append-only index rejects chunk 5 when 2 is next.
  net::InsertChunkBatchRequest gap{uuid, {{5, blob, {}}}};
  EXPECT_EQ(c.transport->Call(net::MessageType::kInsertChunkBatch,
                              gap.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // Mid-batch failure applies the valid prefix (same observable state as
  // the equivalent sequence of one-chunk batches failing at that point).
  net::InsertChunkBatchRequest partial{uuid,
                                       {{2, blob, {}}, {3, blob, {}},
                                        {7, blob, {}}}};
  EXPECT_FALSE(c.transport
                   ->Call(net::MessageType::kInsertChunkBatch, partial.Encode())
                   .ok());
  net::StatRangeRequest stat{uuid, {0, 10 * kDelta}};
  auto resp = c.transport->Call(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(net::StatRangeResponse::Decode(*resp)->last_chunk, 4u);

  // Unknown stream.
  net::InsertChunkBatchRequest orphan{uuid + 1, {{0, blob, {}}}};
  // Route resolves some shard; whichever it is, the stream is unknown.
  EXPECT_EQ(c.transport
                ->Call(net::MessageType::kInsertChunkBatch, orphan.Encode())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ShardRouter, RollupAcrossShardsMatchesEngineNative) {
  auto c = MakeCluster(4);
  size_t source_shard = 1;
  uint64_t source = UuidOnShard(*c.router, source_shard);
  MakePlainStream(*c.transport, source, 8,
                  [](uint64_t chunk) { return 10 + chunk; });

  // One target on the source's shard (engine-native path), one on a
  // different shard (decomposed path).
  uint64_t same_target = UuidOnShard(*c.router, source_shard, source + 1);
  uint64_t cross_target =
      UuidOnShard(*c.router, (source_shard + 1) % 4, source + 1);

  for (uint64_t target : {same_target, cross_target}) {
    net::RollupStreamRequest req{source, target, 4, {0, 0}};
    auto resp =
        c.transport->Call(net::MessageType::kRollupStream, req.Encode());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    auto aligned = net::RollupStreamResponse::Decode(*resp);
    ASSERT_TRUE(aligned.ok());
    EXPECT_EQ(aligned->first_chunk, 0u);
    EXPECT_EQ(aligned->last_chunk, 8u);
  }

  // Both derived streams answer from the shard their uuid hashes to, with
  // byte-identical aggregates (plain add is deterministic).
  Bytes blobs[2];
  uint64_t targets[2] = {same_target, cross_target};
  for (int i = 0; i < 2; ++i) {
    net::StatRangeRequest stat{targets[i], {0, 8 * kDelta}};
    auto resp =
        c.transport->Call(net::MessageType::kGetStatRange, stat.Encode());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    auto decoded = net::StatRangeResponse::Decode(*resp);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->last_chunk, 2u);
    blobs[i] = decoded->aggregate_blob;
  }
  EXPECT_EQ(blobs[0], blobs[1]);
  auto fields = PlainFields(blobs[1]);
  ASSERT_EQ(fields.size(), 2u);
  uint64_t expected = 0;
  for (uint64_t chunk = 0; chunk < 8; ++chunk) expected += 10 + chunk;
  EXPECT_EQ(fields[0], expected);
}

TEST(ShardRouter, RollupDropsIntegrityFlagOnBothPaths) {
  // Derived streams carry no witness tree (their digests are server-
  // computed aggregates) — and that must not depend on whether source and
  // target hashed to the same shard.
  auto c = MakeCluster(4);
  size_t source_shard = 2;
  uint64_t source = UuidOnShard(*c.router, source_shard);
  auto config = PlainConfig("integrity-src");
  config.integrity = true;
  net::CreateStreamRequest create{source, config};
  ASSERT_TRUE(
      c.transport->Call(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 4; ++ch) {
    std::vector<uint64_t> fields{ch, 1};
    Bytes blob = *cipher->Encrypt(fields, ch);
    net::InsertChunkBatchRequest req{source, {{ch, blob, {}}}};
    ASSERT_TRUE(
        c.transport->Call(net::MessageType::kInsertChunkBatch, req.Encode())
            .ok());
  }

  uint64_t targets[2] = {
      UuidOnShard(*c.router, source_shard, source + 1),
      UuidOnShard(*c.router, (source_shard + 1) % 4, source + 1)};
  for (uint64_t target : targets) {
    net::RollupStreamRequest req{source, target, 2, {0, 0}};
    ASSERT_TRUE(
        c.transport->Call(net::MessageType::kRollupStream, req.Encode()).ok());
    net::StreamInfoRequest info_req{target};
    auto info_blob = c.transport->Call(net::MessageType::kGetStreamInfo,
                                       info_req.Encode());
    ASSERT_TRUE(info_blob.ok());
    auto info = net::StreamInfoResponse::Decode(*info_blob);
    ASSERT_TRUE(info.ok());
    EXPECT_FALSE(info->config.integrity);
    EXPECT_EQ(info->num_chunks, 2u);
  }
}

TEST(ShardRouter, ClusterInfoReportsPerShardPlacement) {
  auto c = MakeCluster(3);
  OwnerClient owner(c.transport);
  std::vector<uint64_t> uuids;
  for (int s = 0; s < 5; ++s) {
    auto created = owner.CreateStream(HeacConfig("ci" + std::to_string(s)));
    ASSERT_TRUE(created.ok());
    uuids.push_back(*created);
    ASSERT_TRUE(IngestChunks(owner, *created, 0, 3).ok());
  }

  auto blob = c.transport->Call(net::MessageType::kClusterInfo, {});
  ASSERT_TRUE(blob.ok());
  auto info = net::ClusterInfoResponse::Decode(*blob);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->shards.size(), 3u);
  uint64_t total_streams = 0, total_bytes = 0;
  for (const auto& s : info->shards) {
    EXPECT_EQ(s.num_streams, c.engines[s.shard]->NumStreams());
    total_streams += s.num_streams;
    total_bytes += s.index_bytes;
    // Replica-less shards report empty replication health.
    EXPECT_EQ(s.replicas, 0u);
    EXPECT_EQ(s.max_lag_bytes, 0u);
  }
  EXPECT_EQ(total_streams, 5u);
  EXPECT_EQ(total_bytes, c.router->TotalIndexBytes());

  // A standalone engine answers the same message with one entry.
  auto solo = MakeCluster(1);
  auto solo_blob =
      solo.engines[0]->Handle(net::MessageType::kClusterInfo, {});
  ASSERT_TRUE(solo_blob.ok());
  EXPECT_EQ(net::ClusterInfoResponse::Decode(*solo_blob)->shards.size(), 1u);
}

TEST(ShardRouter, PingBroadcastsToEveryShard) {
  auto c = MakeCluster(4);
  EXPECT_TRUE(c.transport->Call(net::MessageType::kPing, {}).ok());
}

TEST(ShardRouter, ClusterInfoReportsCompactionStats) {
  // One log-backed shard: engine mutations overwrite directory keys, so
  // dead bytes accrue; an explicit Compact must show up in kClusterInfo.
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("cluster_compact_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::remove(path.c_str());
  auto log = store::LogKvStore::Open(path);
  ASSERT_TRUE(log.ok());
  std::shared_ptr<store::LogKvStore> kv = std::move(*log);
  auto engine = std::make_shared<server::ServerEngine>(kv);
  auto router = std::make_shared<ShardRouter>(
      std::vector<std::shared_ptr<server::ServerEngine>>{engine});

  OwnerClient owner(std::make_shared<net::InProcTransport>(router));
  for (int s = 0; s < 3; ++s) {
    auto created = owner.CreateStream(HeacConfig("lc" + std::to_string(s)));
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(IngestChunks(owner, *created, 0, 2).ok());
  }

  auto decode_info = [&] {
    auto blob = router->Handle(net::MessageType::kClusterInfo, {});
    EXPECT_TRUE(blob.ok());
    auto info = net::ClusterInfoResponse::Decode(*blob);
    EXPECT_TRUE(info.ok());
    return *info;
  };
  auto before = decode_info();
  ASSERT_EQ(before.shards.size(), 1u);
  EXPECT_GT(before.shards[0].store_dead_bytes, 0u);  // overwritten dir keys
  EXPECT_EQ(before.shards[0].store_compactions, 0u);

  ASSERT_TRUE(kv->Compact().ok());
  auto after = decode_info();
  EXPECT_EQ(after.shards[0].store_dead_bytes, 0u);
  EXPECT_EQ(after.shards[0].store_compactions, 1u);

  // The standalone engine reports the same stats without a router.
  auto solo_blob = engine->Handle(net::MessageType::kClusterInfo, {});
  ASSERT_TRUE(solo_blob.ok());
  auto solo = net::ClusterInfoResponse::Decode(*solo_blob);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo->shards[0].store_compactions, 1u);

  engine.reset();
  router.reset();
  kv.reset();
  std::remove(path.c_str());
}

TEST(ShardRouter, ShardChannelsServeAsyncCalls) {
  auto c = MakeCluster(3);
  // Scatter a Ping by hand through every shard channel — the same
  // AsyncCall path the router's cluster-wide handlers use.
  std::vector<net::PendingCall> calls;
  for (size_t i = 0; i < c.router->num_shards(); ++i) {
    calls.push_back(c.router->channel(i)->AsyncCall(net::MessageType::kPing,
                                                    BytesView{}));
  }
  for (auto& call : calls) {
    auto result = call.Wait();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(ShardRouter, CrossShardMultiStatRangeNeedsMatchingLayouts) {
  // A one-field stream on shard 0 and a two-field stream on shard 1: the
  // router's merge of their partial aggregates refuses the pair.
  auto c = MakeCluster(2);
  const uint64_t narrow = UuidOnShard(*c.router, 0);
  const uint64_t wide = UuidOnShard(*c.router, 1);
  net::StreamConfig config = PlainConfig("narrow");
  config.schema.with_count = false;
  net::CreateStreamRequest create{narrow, config};
  ASSERT_TRUE(
      c.transport->Call(net::MessageType::kCreateStream, create.Encode()).ok());
  Bytes blob = *index::MakePlainCipher(1)->Encrypt(std::vector<uint64_t>{7}, 0);
  net::InsertChunkBatchRequest insert{narrow, {{0, blob, {}}}};
  ASSERT_TRUE(
      c.transport->Call(net::MessageType::kInsertChunkBatch, insert.Encode())
          .ok());
  MakePlainStream(*c.transport, wide, 1, [](uint64_t) { return 7; });

  net::MultiStatRangeRequest req{{narrow, wide}, {0, kDelta}};
  auto merged =
      c.transport->Call(net::MessageType::kMultiStatRange, req.Encode());
  ASSERT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find("matching digest layouts"),
            std::string::npos);
}

// ----------------------------------------------------------------------
// Per-frame-type routing, pinned for every row of the frame-type table (the
// reserved bytes 22 and 23 included) and one byte far outside the enum. The
// expected sets below are written out independently of the table the
// servers dispatch on.

using net::MessageType;

std::vector<uint8_t> TypeBytes() {
  std::vector<uint8_t> bytes;
  for (const net::FrameTypeInfo& row : net::kFrameTypes) {
    bytes.push_back(static_cast<uint8_t>(row.type));
  }
  bytes.push_back(0xEE);
  return bytes;
}

/// Served by a caught-up replica. Key-store reads (grants, envelopes,
/// attestations) stay on primaries: replica engines do not refresh
/// key-store state.
bool ReplicaRead(MessageType type) {
  static const std::set<MessageType> types = {
      MessageType::kGetRange,          MessageType::kGetStatRange,
      MessageType::kGetStatSeries,     MessageType::kGetStreamInfo,
      MessageType::kGetChunkWitnessed, MessageType::kMultiStatRange,
  };
  return types.contains(type);
}

bool ReplicationFrame(MessageType type) {
  static const std::set<MessageType> types = {
      MessageType::kReplicaHello,
      MessageType::kReplicaHeartbeat,
      MessageType::kReplicaLog,
  };
  return types.contains(type);
}

/// Not a request any serving stack answers: responses, replication frames
/// (a follower endpoint's business), reserved bytes and bytes outside the
/// enum.
bool NotARequest(MessageType type) {
  static const std::set<uint8_t> reserved = {3, 22, 23, 25, 26, 27, 29};
  auto byte = static_cast<uint8_t>(type);
  return type == MessageType::kResponse || ReplicationFrame(type) ||
         reserved.contains(byte) ||
         byte > static_cast<uint8_t>(MessageType::kReplicaLog);
}

bool IsUnknownTypeError(const Result<Bytes>& result) {
  return !result.ok() &&
         result.status().code() == StatusCode::kInvalidArgument &&
         result.status().message() == "unknown message type";
}

/// A well-formed request body for the reads (so a replica can answer them)
/// and the introspection frames; every other type gets a body naming a
/// stream that does not exist, so a write routed by it fails harmlessly.
Bytes RequestBody(MessageType type, uint64_t uuid) {
  const TimeRange all{0, 4 * kDelta};
  switch (type) {
    case MessageType::kGetRange: return net::GetRangeRequest{uuid, all}.Encode();
    case MessageType::kGetStatRange:
      return net::StatRangeRequest{uuid, all}.Encode();
    case MessageType::kGetStatSeries:
      return net::StatSeriesRequest{uuid, all, 2}.Encode();
    case MessageType::kGetStreamInfo:
      return net::StreamInfoRequest{uuid}.Encode();
    case MessageType::kGetChunkWitnessed:
      return net::GetChunkWitnessedRequest{uuid, 0, 2, 0}.Encode();
    case MessageType::kMultiStatRange:
      return net::MultiStatRangeRequest{{uuid}, all}.Encode();
    case MessageType::kTraceInfo: return net::TraceInfoRequest{}.Encode();
    case MessageType::kEventsInfo: return net::EventsInfoRequest{}.Encode();
    default: break;
  }
  BinaryWriter w;
  w.PutU64(0xDEAD);
  return std::move(w).Take();
}

TEST(FrameRouting, RouterSendsExactlyTheReplicaReadsToACaughtUpReplica) {
  testing::TempLogs logs;
  auto made = replica::ReplicaSet::Make(logs.Open("p"), {logs.Open("r")},
                                        {}, {});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto set = *made;
  auto router = std::make_shared<ShardRouter>(
      std::vector<std::shared_ptr<replica::ReplicaSet>>{set});
  OwnerClient owner(std::make_shared<net::InProcTransport>(router));
  auto uuid = owner.CreateStream(HeacConfig("routed", /*integrity=*/true));
  ASSERT_TRUE(uuid.ok()) << uuid.status().ToString();
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 4).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());

  for (uint8_t byte : TypeBytes()) {
    auto type = static_cast<MessageType>(byte);
    uint64_t replica_before = set->replica_reads();
    uint64_t primary_before = set->primary_reads();
    EXPECT_EQ(net::FrameType(type).replica_read, ReplicaRead(type))
        << "type byte " << int{byte};
    auto result = router->Handle(type, RequestBody(type, *uuid));
    if (ReplicaRead(type)) {
      EXPECT_TRUE(result.ok())
          << "type byte " << int{byte} << ": " << result.status().ToString();
    }
    EXPECT_EQ(set->replica_reads() - replica_before, ReplicaRead(type) ? 1u : 0u)
        << "type byte " << int{byte};
    EXPECT_EQ(set->primary_reads(), primary_before) << "type byte " << int{byte};
    EXPECT_EQ(IsUnknownTypeError(result), NotARequest(type))
        << "type byte " << int{byte} << ": " << result.status().ToString();
  }
}

TEST(FrameRouting, EngineRejectsExactlyTheNonRequestTypes) {
  server::ServerEngine engine(std::make_shared<store::MemKvStore>());
  for (uint8_t byte : TypeBytes()) {
    auto type = static_cast<MessageType>(byte);
    auto result = engine.Handle(type, RequestBody(type, 0xDEAD));
    EXPECT_EQ(IsUnknownTypeError(result), NotARequest(type))
        << "type byte " << int{byte} << ": " << result.status().ToString();
  }
}

TEST(FrameRouting, FollowingDaemonServesReplicaReadsAndDefersTheRest) {
  testing::TempLogs logs;
  auto kv = logs.Open("f");
  uint64_t uuid = 0;
  {
    OwnerClient owner(std::make_shared<net::InProcTransport>(
        std::make_shared<server::ServerEngine>(kv)));
    auto created = owner.CreateStream(HeacConfig("followed", /*integrity=*/true));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    uuid = *created;
    ASSERT_TRUE(IngestChunks(owner, uuid, 0, 4).ok());
  }
  replica::FollowerDaemon daemon({kv}, {});
  const std::set<MessageType> answered_by_any_server = {
      MessageType::kPing,        MessageType::kClusterInfo,
      MessageType::kMetricsInfo, MessageType::kTraceInfo,
      MessageType::kEventsInfo,
  };
  for (uint8_t byte : TypeBytes()) {
    auto type = static_cast<MessageType>(byte);
    auto result = daemon.Handle(type, RequestBody(type, uuid));
    if (ReplicaRead(type) || answered_by_any_server.contains(type)) {
      EXPECT_TRUE(result.ok())
          << "type byte " << int{byte} << ": " << result.status().ToString();
    } else if (type == MessageType::kReplicaHello) {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    } else if (!ReplicationFrame(type)) {
      // Writes, key-store reads, responses and unknown bytes all need the
      // primary.
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << "type byte " << int{byte} << ": " << result.status().ToString();
    }
  }
}

}  // namespace
}  // namespace tc
