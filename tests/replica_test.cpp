// Replication layer tests: log shipping must converge followers onto the
// primary's exact state, quorum acks must mean what they claim, snapshot
// catch-up must reconverge empty/stale/diverged followers, replica read
// routing must be invisible to clients, and failover promotion must serve
// the complete pre-failure stream history in both ack modes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <thread>
#include <utility>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "replica/replica_set.hpp"
#include "replica/replica_wire.hpp"
#include "replica/replicated_kv.hpp"
#include "server/server_engine.hpp"
#include "store/fault_kv.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"

namespace tc {
namespace {

using client::ConsumerClient;
using client::OwnerClient;
using client::Principal;
using cluster::ShardRouter;
using replica::AckMode;
using replica::ReplicatedKvOptions;
using replica::ReplicatedKvStore;
using replica::ReplicaSet;
using replica::ReplicaSetOptions;

constexpr DurationMs kDelta = 10 * kSecond;

std::map<std::string, Bytes> Contents(const store::KvStore& kv) {
  std::map<std::string, Bytes> out;
  EXPECT_TRUE(kv.Scan([&](const std::string& key, BytesView value) {
                // Follower-local bookkeeping (persisted applied seq) is not
                // replicated state; convergence compares everything else.
                if (std::string_view(key).starts_with(
                        replica::kReplicaMetaPrefix)) {
                  return;
                }
                out.emplace(key, Bytes(value.begin(), value.end()));
              }).ok());
  return out;
}

net::StreamConfig HeacConfig(const std::string& name) {
  net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema.with_sum = true;
  c.schema.with_count = true;
  c.cipher = net::CipherKind::kHeac;
  c.fanout = 4;
  return c;
}

net::StreamConfig PlainConfig(const std::string& name) {
  auto c = HeacConfig(name);
  c.cipher = net::CipherKind::kPlain;
  return c;
}

Status IngestChunks(OwnerClient& owner, uint64_t uuid, uint64_t first,
                    uint64_t count) {
  for (uint64_t c = first; c < first + count; ++c) {
    for (int i = 0; i < 5; ++i) {
      TC_RETURN_IF_ERROR(owner.InsertRecord(
          uuid, {static_cast<Timestamp>(c * kDelta + i * 1000),
                 static_cast<int64_t>(c + 1)}));
    }
  }
  return owner.Flush(uuid);
}

int64_t OracleSum(uint64_t first, uint64_t last) {
  int64_t sum = 0;
  for (uint64_t c = first; c < last; ++c) sum += 5 * (c + 1);
  return sum;
}

/// A follower in this process, built the way ReplicaSet builds one: the
/// shipper reaches an applier over `kv` through the replication frames.
std::shared_ptr<replica::Follower> InProcFollower(
    std::shared_ptr<store::KvStore> kv) {
  return std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(
          std::make_shared<replica::ReplicaApplier>(std::move(kv))));
}

// --------------------------------------------------------- ReplicatedKvStore

TEST(ReplicatedKv, ShipsPutsAndDeletesToFollowers) {
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  auto f0 = std::make_shared<store::MemKvStore>();
  auto f1 = std::make_shared<store::MemKvStore>();
  rkv->AddFollower(InProcFollower(f0));
  rkv->AddFollower(InProcFollower(f1));

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        rkv->Put("k" + std::to_string(i), ToBytes("v" + std::to_string(i)))
            .ok());
  }
  for (int i = 0; i < 50; i += 3) {
    ASSERT_TRUE(rkv->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  auto expected = Contents(*rkv);
  EXPECT_FALSE(expected.contains("k0"));
  EXPECT_TRUE(expected.contains("k1"));
  EXPECT_EQ(Contents(*f0), expected);
  EXPECT_EQ(Contents(*f1), expected);
  EXPECT_EQ(rkv->MaxLagOps(), 0u);
  EXPECT_EQ(rkv->follower_seq(0), rkv->head_seq());
}

TEST(ReplicatedKv, SnapshotSeedsEmptyAndReconvergesDivergedFollowers) {
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  ASSERT_TRUE(rkv->Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(rkv->Put("b", ToBytes("2")).ok());

  // One empty follower, one holding stale garbage (a diverged ex-peer):
  // registration snapshots both — extra keys go, missing keys arrive.
  auto empty = std::make_shared<store::MemKvStore>();
  auto stale = std::make_shared<store::MemKvStore>();
  ASSERT_TRUE(stale->Put("zombie", ToBytes("boo")).ok());
  ASSERT_TRUE(stale->Put("a", ToBytes("wrong")).ok());
  rkv->AddFollower(InProcFollower(empty));
  rkv->AddFollower(InProcFollower(stale));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  EXPECT_EQ(Contents(*empty), Contents(*rkv));
  EXPECT_EQ(Contents(*stale), Contents(*rkv));
  EXPECT_FALSE(stale->Contains("zombie"));
  EXPECT_GE(rkv->snapshots_shipped(), 2u);
}

/// Follower whose application can be held shut (quorum/lag tests).
class GatedFollower final : public replica::Follower {
 public:
  explicit GatedFollower(std::shared_ptr<store::KvStore> kv)
      : inner_(InProcFollower(std::move(kv))) {}

  Status ApplyOps(std::span<const replica::LoggedOp> ops) override {
    if (!open_.load()) return Unavailable("gate closed");
    return inner_->ApplyOps(ops);
  }
  Result<uint64_t> BeginSnapshot(uint64_t origin, uint64_t seq) override {
    if (!open_.load()) return Unavailable("gate closed");
    return inner_->BeginSnapshot(origin, seq);
  }
  Status ApplySnapshotChunk(
      uint64_t seq, uint64_t first_index,
      std::span<const replica::SnapshotEntry> entries) override {
    if (!open_.load()) return Unavailable("gate closed");
    return inner_->ApplySnapshotChunk(seq, first_index, entries);
  }
  Status EndSnapshot(uint64_t seq, uint64_t total_entries) override {
    if (!open_.load()) return Unavailable("gate closed");
    return inner_->EndSnapshot(seq, total_entries);
  }

  void Open() { open_.store(true); }
  void Close() { open_.store(false); }

 private:
  std::shared_ptr<replica::Follower> inner_;
  std::atomic<bool> open_{true};
};

TEST(ReplicatedKv, QuorumPutReturnsOnlyAfterFollowerHoldsIt) {
  ReplicatedKvOptions options;
  options.ack = AckMode::kQuorum;
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>(), options);
  auto fkv = std::make_shared<store::MemKvStore>();
  auto gate = std::make_shared<GatedFollower>(fkv);
  rkv->AddFollower(gate);

  // Gate open: the quorum (primary + 1 of 1 follower) means the follower
  // must hold every acknowledged write by the time Put returns.
  for (int i = 0; i < 10; ++i) {
    std::string key = "q" + std::to_string(i);
    ASSERT_TRUE(rkv->Put(key, ToBytes("v")).ok());
    EXPECT_TRUE(fkv->Contains(key)) << key;
  }
}

TEST(ReplicatedKv, QuorumBlocksWhileFollowerIsStuckAndTimesOut) {
  ReplicatedKvOptions options;
  options.ack = AckMode::kQuorum;
  options.quorum_timeout_ms = 300;
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>(), options);
  auto fkv = std::make_shared<store::MemKvStore>();
  auto gate = std::make_shared<GatedFollower>(fkv);
  gate->Close();
  rkv->AddFollower(gate);

  // The write lands on the primary but the ack never comes: semi-sync
  // reports the write failed after the timeout, and the follower's health
  // surfaces why it is lagging.
  Status s = rkv->Put("k", ToBytes("v"));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(rkv->Contains("k"));
  EXPECT_FALSE(fkv->Contains("k"));
  EXPECT_EQ(rkv->follower_error(0).code(), StatusCode::kUnavailable);

  // Re-open the gate: the pipeline drains and quorum writes succeed again.
  gate->Open();
  ASSERT_TRUE(rkv->Put("k2", ToBytes("v2")).ok());
  EXPECT_TRUE(fkv->Contains("k2"));
  EXPECT_TRUE(fkv->Contains("k"));  // the stalled op shipped too
  EXPECT_TRUE(rkv->follower_error(0).ok());  // health cleared on recovery
}

TEST(ReplicatedKv, FollowerBehindTheLogWindowIsSnapshotFed) {
  ReplicatedKvOptions options;
  options.max_log_ops = 8;  // tiny retained window
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>(), options);
  auto fkv = std::make_shared<store::MemKvStore>();
  auto gate = std::make_shared<GatedFollower>(fkv);
  rkv->AddFollower(gate);
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  uint64_t seeded = rkv->snapshots_shipped();

  // Stall the follower and write far past the window, overwriting the same
  // keys so streaming the ops and applying the snapshot differ in work but
  // not in outcome.
  gate->Close();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        rkv->Put("k" + std::to_string(i % 10), ToBytes(std::to_string(i)))
            .ok());
  }
  gate->Open();
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_GT(rkv->snapshots_shipped(), seeded);
  EXPECT_EQ(Contents(*fkv), Contents(*rkv));
}

TEST(ReplicatedKv, SnapshotStreamsInBoundedChunks) {
  ReplicatedKvOptions options;
  options.snapshot_chunk_entries = 8;  // force many small chunks
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>(), options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i),
                         ToBytes("value-" + std::to_string(i)))
                    .ok());
  }
  auto fkv = std::make_shared<store::MemKvStore>();
  rkv->AddFollower(InProcFollower(fkv));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  // 100 entries at ≤8 per chunk: the stream must have been split, never a
  // single full-store shipment.
  EXPECT_GE(rkv->snapshot_chunks_shipped(), 100u / 8u);
  EXPECT_GE(rkv->snapshots_shipped(), 1u);
  EXPECT_EQ(Contents(*fkv), Contents(*rkv));
}

TEST(ReplicaApplier, SnapshotStreamResumesReconvergesAndRejectsGaps) {
  auto kv = std::make_shared<store::MemKvStore>();
  ASSERT_TRUE(kv->Put("zombie", ToBytes("stale")).ok());
  auto applier = std::make_shared<replica::ReplicaApplier>(kv);
  // Drive the applier's snapshot frames the way a shipper does; the
  // follower checks every chunk ack against the entries it sent.
  replica::RemoteFollower stream(
      std::make_shared<net::InProcTransport>(applier));

  EXPECT_EQ(stream.BeginSnapshot(/*origin=*/1, 7).value(), 0u);
  std::vector<replica::SnapshotEntry> first = {{"a", ToBytes("1")},
                                               {"b", ToBytes("2")}};
  ASSERT_TRUE(stream.ApplySnapshotChunk(7, 0, first).ok());

  // Reconnect mid-stream: a Begin with the same (origin, seq) resumes
  // where the stream left off instead of restarting.
  EXPECT_EQ(stream.BeginSnapshot(1, 7).value(), 2u);
  // A different origin with the same seq (a new primary whose restarted
  // numbering happens to collide) must NOT resume the stale stream.
  EXPECT_EQ(stream.BeginSnapshot(2, 7).value(), 0u);
  EXPECT_EQ(stream.BeginSnapshot(1, 7).value(), 0u);  // ...and it is gone
  ASSERT_TRUE(stream.ApplySnapshotChunk(7, 0, first).ok());
  std::vector<replica::SnapshotEntry> second = {{"c", ToBytes("3")}};
  ASSERT_TRUE(stream.ApplySnapshotChunk(7, 2, second).ok());

  // Re-delivered overlap is idempotent (the ack still counts 3 entries);
  // a gap is rejected.
  std::vector<replica::SnapshotEntry> overlap = {{"b", ToBytes("2")},
                                                 {"c", ToBytes("3")}};
  ASSERT_TRUE(stream.ApplySnapshotChunk(7, 1, overlap).ok());
  EXPECT_EQ(stream.ApplySnapshotChunk(7, 5, second).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(applier->snapshot_in_progress());

  // End reconciles: keys the stream never named are deleted, and the
  // applied seq jumps to the snapshot's.
  ASSERT_TRUE(stream.EndSnapshot(7, 3).ok());
  EXPECT_FALSE(applier->snapshot_in_progress());
  EXPECT_EQ(applier->applied_seq(), 7u);
  EXPECT_FALSE(kv->Contains("zombie"));
  EXPECT_TRUE(kv->Contains("a"));
  EXPECT_TRUE(kv->Contains("c"));

  // A different seq is a different stream: no resume.
  EXPECT_EQ(stream.BeginSnapshot(1, 9).value(), 0u);
  // And a count mismatch at End fails instead of passing a short stream.
  ASSERT_TRUE(stream.ApplySnapshotChunk(9, 0, first).ok());
  EXPECT_EQ(stream.EndSnapshot(9, 5).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(applier->snapshot_in_progress());
  EXPECT_EQ(applier->applied_seq(), 7u);
}

TEST(ReplicaApplier, ReadRefreshesAfterAReseedLandsOnTheSameSeq) {
  // After failover the new primary numbers its ops from 1 again, so a
  // re-seed can leave the applied seq exactly where it was while the store
  // changed underneath. The read engine must still refresh.
  auto applier = std::make_shared<replica::ReplicaApplier>(
      std::make_shared<store::MemKvStore>());
  replica::RemoteFollower follower(
      std::make_shared<net::InProcTransport>(applier));
  auto seed = [&](uint64_t origin, uint64_t chunks) {
    // A primary's store holding one stream of `chunks` chunks, streamed to
    // the applier as one snapshot at seq 7.
    auto primary_kv = std::make_shared<store::MemKvStore>();
    server::ServerEngine primary(primary_kv);
    net::CreateStreamRequest create{42, PlainConfig("reseeded")};
    ASSERT_TRUE(
        primary.Handle(net::MessageType::kCreateStream, create.Encode()).ok());
    auto cipher = index::MakePlainCipher(2);
    for (uint64_t ch = 0; ch < chunks; ++ch) {
      std::vector<uint64_t> fields{ch + 1, 1};
      Bytes digest = *cipher->Encrypt(fields, ch);
      net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
      ASSERT_TRUE(
          primary.Handle(net::MessageType::kInsertChunkBatch, req.Encode())
              .ok());
    }
    std::vector<replica::SnapshotEntry> entries;
    ASSERT_TRUE(primary_kv
                    ->Scan([&](const std::string& key, BytesView value) {
                      entries.emplace_back(key,
                                           Bytes(value.begin(), value.end()));
                    })
                    .ok());
    ASSERT_EQ(follower.BeginSnapshot(origin, 7).value(), 0u);
    ASSERT_TRUE(follower.ApplySnapshotChunk(7, 0, entries).ok());
    ASSERT_TRUE(follower.EndSnapshot(7, entries.size()).ok());
  };
  auto replica_chunks = [&] {
    net::StreamInfoRequest req{42};
    auto resp = applier->Read(net::MessageType::kGetStreamInfo, req.Encode());
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? net::StreamInfoResponse::Decode(*resp)->num_chunks : 0;
  };

  seed(/*origin=*/1, 4);
  EXPECT_EQ(replica_chunks(), 4u);
  seed(/*origin=*/2, 6);
  EXPECT_EQ(applier->applied_seq(), 7u);
  EXPECT_EQ(replica_chunks(), 6u);
}

// ------------------------------------------------------------ wire follower

TEST(ReplicaWire, RemoteFollowerConvergesThroughApplier) {
  // Follower node: an applier over its local store, reachable through a
  // transport — the multi-process deployment shape, in-proc here.
  auto follower_kv = std::make_shared<store::MemKvStore>();
  ASSERT_TRUE(follower_kv->Put("stale", ToBytes("x")).ok());
  auto applier = std::make_shared<replica::ReplicaApplier>(follower_kv);
  auto transport = std::make_shared<net::InProcTransport>(applier);

  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  ASSERT_TRUE(rkv->Put("pre", ToBytes("1")).ok());
  rkv->AddFollower(std::make_shared<replica::RemoteFollower>(transport));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->Delete("k7").ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  EXPECT_EQ(Contents(*follower_kv), Contents(*rkv));
  EXPECT_FALSE(follower_kv->Contains("stale"));
  EXPECT_EQ(applier->applied_seq(), rkv->head_seq());

  // Re-delivered prefixes are idempotent at the applier.
  net::ReplicaOpsRequest replay;
  replay.first_seq = 1;
  replay.ops.push_back({net::kReplicaOpPut, "pre", ToBytes("1")});
  auto ack = applier->Handle(net::MessageType::kReplicaOps, replay.Encode());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(net::ReplicaAckResponse::Decode(*ack)->applied_seq,
            rkv->head_seq());

  // A follower endpoint is not a serving engine.
  EXPECT_FALSE(applier->Handle(net::MessageType::kGetStatRange, {}).ok());
}

/// Transport handler whose target can be swapped — the in-proc stand-in
/// for a follower daemon dying and coming back empty on the same endpoint.
class SwappableHandler final : public net::RequestHandler {
 public:
  explicit SwappableHandler(std::shared_ptr<net::RequestHandler> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    std::shared_ptr<net::RequestHandler> inner;
    {
      std::lock_guard lock(mu_);
      inner = inner_;
    }
    return inner->Handle(type, body);
  }

  void Swap(std::shared_ptr<net::RequestHandler> inner) {
    std::lock_guard lock(mu_);
    inner_ = std::move(inner);
  }

 private:
  std::mutex mu_;
  std::shared_ptr<net::RequestHandler> inner_;
};

TEST(ReplicaWire, FollowerRestartGapTriggersReseed) {
  auto kv1 = std::make_shared<store::MemKvStore>();
  auto applier1 = std::make_shared<replica::ReplicaApplier>(kv1);
  auto swap = std::make_shared<SwappableHandler>(applier1);

  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  rkv->AddFollower(std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(swap)));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(Contents(*kv1), Contents(*rkv));
  uint64_t seeded = rkv->snapshots_shipped();

  // The follower process "restarts" with an empty store: shipping the next
  // op run would silently graft a suffix onto missing history. The applier
  // must reject the gap and the shipper must re-seed with a snapshot.
  auto kv2 = std::make_shared<store::MemKvStore>();
  swap->Swap(std::make_shared<replica::ReplicaApplier>(kv2));
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_GT(rkv->snapshots_shipped(), seeded);
  EXPECT_EQ(Contents(*kv2), Contents(*rkv));
}

/// Forwards to the applier and records the kind of every shipped op.
class OpKindRecorder final : public net::RequestHandler {
 public:
  explicit OpKindRecorder(std::shared_ptr<net::RequestHandler> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    if (type == net::MessageType::kReplicaOps) {
      auto req = net::ReplicaOpsRequest::Decode(body);
      if (req.ok()) {
        std::lock_guard lock(mu_);
        for (const auto& op : req->ops) kinds_.push_back(op.kind);
      }
    }
    return inner_->Handle(type, body);
  }

  std::vector<uint8_t> kinds() {
    std::lock_guard lock(mu_);
    return kinds_;
  }

 private:
  std::shared_ptr<net::RequestHandler> inner_;
  std::mutex mu_;
  std::vector<uint8_t> kinds_;
};

TEST(ReplicaWire, AppendsShipAsSuffixesAndDivergedFollowersReseed) {
  auto follower_kv = std::make_shared<store::MemKvStore>();
  auto applier = std::make_shared<replica::ReplicaApplier>(follower_kv);
  auto recorder = std::make_shared<OpKindRecorder>(applier);
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  rkv->AddFollower(std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(recorder)));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  ASSERT_TRUE(rkv->Put("node", ToBytes("ab")).ok());
  auto grown = rkv->Append("node", 2, ToBytes("cd"));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(*grown, 4u);
  // A mismatched append fails at the primary and is never shipped.
  EXPECT_EQ(rkv->Append("node", 2, ToBytes("xx")).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(Contents(*follower_kv), Contents(*rkv));
  EXPECT_EQ(recorder->kinds(),
            (std::vector<uint8_t>{net::kReplicaOpPut, net::kReplicaOpAppend}));

  // The applier checks the prior length like the primary did: an append
  // that does not fit the follower's value is refused, not grafted on.
  net::ReplicaOpsRequest misfit;
  misfit.first_seq = applier->applied_seq() + 1;
  misfit.ops.push_back({net::kReplicaOpAppend, "node", ToBytes("zz"), 9});
  EXPECT_EQ(applier->Handle(net::MessageType::kReplicaOps, misfit.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ToString(*follower_kv->Get("node")), "abcd");

  // A follower whose copy diverged fails the next shipped append and is
  // re-seeded to the primary's state.
  uint64_t seeded = rkv->snapshots_shipped();
  ASSERT_TRUE(follower_kv->Put("node", ToBytes("a")).ok());
  ASSERT_TRUE(rkv->Append("node", 4, ToBytes("ef")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_GT(rkv->snapshots_shipped(), seeded);
  EXPECT_EQ(ToString(*follower_kv->Get("node")), "abcdef");
  EXPECT_EQ(Contents(*follower_kv), Contents(*rkv));
}

TEST(ReplicatedKv, InProcFollowerAppliesAndReseedsOnAppendMismatch) {
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  auto follower = std::make_shared<store::MemKvStore>();
  rkv->AddFollower(InProcFollower(follower));
  ASSERT_TRUE(rkv->Put("node", ToBytes("ab")).ok());
  ASSERT_TRUE(rkv->Append("node", 2, ToBytes("cd")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(ToString(*follower->Get("node")), "abcd");

  uint64_t seeded = rkv->snapshots_shipped();
  ASSERT_TRUE(follower->Delete("node").ok());  // diverge: base value gone
  ASSERT_TRUE(rkv->Append("node", 4, ToBytes("ef")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_GT(rkv->snapshots_shipped(), seeded);
  EXPECT_EQ(Contents(*follower), Contents(*rkv));
}

/// Acks the first op shipment after the initial snapshot without passing
/// it on: a shipment lost after the follower acknowledged it.
class LossyFollower final : public replica::Follower {
 public:
  explicit LossyFollower(std::shared_ptr<replica::Follower> inner)
      : inner_(std::move(inner)) {}

  Status ApplyOps(std::span<const replica::LoggedOp> ops) override {
    if (seeded_ && !lost_) {
      lost_ = true;
      return Status::Ok();
    }
    return inner_->ApplyOps(ops);
  }
  Result<uint64_t> BeginSnapshot(uint64_t origin, uint64_t seq) override {
    return inner_->BeginSnapshot(origin, seq);
  }
  Status ApplySnapshotChunk(
      uint64_t seq, uint64_t first_index,
      std::span<const replica::SnapshotEntry> entries) override {
    return inner_->ApplySnapshotChunk(seq, first_index, entries);
  }
  Status EndSnapshot(uint64_t seq, uint64_t total_entries) override {
    Status s = inner_->EndSnapshot(seq, total_entries);
    if (s.ok()) seeded_ = true;
    return s;
  }

 private:
  std::shared_ptr<replica::Follower> inner_;
  // Touched only by the one shipper thread.
  bool seeded_ = false;
  bool lost_ = false;
};

TEST(ReplicatedKv, InProcFollowerCatchesAnAckedButLostShipment) {
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  auto fkv = std::make_shared<store::MemKvStore>();
  rkv->AddFollower(std::make_shared<LossyFollower>(InProcFollower(fkv)));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  // One key per shipment: the first vanishes after its ack, and the next
  // arrives past a sequence gap the applier must refuse.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i),
                         ToBytes("v" + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  }
  EXPECT_EQ(Contents(*fkv), Contents(*rkv));
  EXPECT_TRUE(fkv->Contains("k0"));
  // The registration snapshot, then the re-seed the gap forced.
  EXPECT_EQ(rkv->snapshots_shipped(), 2u);
}

TEST(ReplicaApplier, ReDeliveredAppendsAreSkippedAndMisfitsRejected) {
  auto kv = std::make_shared<store::MemKvStore>();
  ASSERT_TRUE(kv->Put("node", ToBytes("ab")).ok());
  replica::ReplicaApplier applier(kv);
  auto ship = [&](uint64_t first_seq,
                  std::vector<net::ReplicaOpsRequest::Op> ops) {
    net::ReplicaOpsRequest req;
    req.first_seq = first_seq;
    req.ops = std::move(ops);
    return applier.Handle(net::MessageType::kReplicaOps, req.Encode())
        .status()
        .code();
  };
  auto append = [](std::string key, std::string_view suffix, uint64_t at) {
    return net::ReplicaOpsRequest::Op{net::kReplicaOpAppend, std::move(key),
                                      ToBytes(suffix), at};
  };
  // A batch that failed after its first op is shipped again whole.
  EXPECT_EQ(ship(1, {append("node", "cd", 2)}), StatusCode::kOk);
  EXPECT_EQ(ship(1, {append("node", "cd", 2), append("node", "ef", 4)}),
            StatusCode::kOk);
  EXPECT_EQ(ship(1, {append("node", "cd", 2), append("node", "ef", 4)}),
            StatusCode::kOk);
  EXPECT_EQ(ToString(*kv->Get("node")), "abcdef");
  EXPECT_EQ(applier.applied_seq(), 2u);

  // An append the store already holds at its offset (a snapshot read the
  // value after the append landed) is recognised by its bytes and skipped.
  EXPECT_EQ(ship(3, {append("node", "ef", 4)}), StatusCode::kOk);
  EXPECT_EQ(ToString(*kv->Get("node")), "abcdef");

  // An append that does not match the bytes at its offset is a divergence.
  EXPECT_EQ(ship(4, {append("node", "cx", 2)}),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ship(4, {append("node", "efgh", 4)}),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ship(4, {append("node", "x", 9)}),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ship(4, {append("gone", "x", 0)}),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ToString(*kv->Get("node")), "abcdef");
  EXPECT_EQ(applier.applied_seq(), 3u);
}

/// Runs `hook` once, as the first snapshot stream opens (after the shipper
/// pinned its seq and listed the keys, before it reads any value).
class SnapshotHookFollower final : public replica::Follower {
 public:
  SnapshotHookFollower(std::shared_ptr<replica::Follower> inner,
                       std::function<void()> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  Status ApplyOps(std::span<const replica::LoggedOp> ops) override {
    return inner_->ApplyOps(ops);
  }
  Result<uint64_t> BeginSnapshot(uint64_t origin, uint64_t seq) override {
    if (hook_) std::exchange(hook_, nullptr)();
    return inner_->BeginSnapshot(origin, seq);
  }
  Status ApplySnapshotChunk(
      uint64_t seq, uint64_t first_index,
      std::span<const replica::SnapshotEntry> entries) override {
    return inner_->ApplySnapshotChunk(seq, first_index, entries);
  }
  Status EndSnapshot(uint64_t seq, uint64_t total_entries) override {
    return inner_->EndSnapshot(seq, total_entries);
  }

 private:
  std::shared_ptr<replica::Follower> inner_;
  std::function<void()> hook_;
};

TEST(ReplicatedKv, AppendsRacingASnapshotConvergeAfterOneSnapshot) {
  // Ingest keeps appending while a follower is seeded, so the snapshot can
  // carry appends newer than its pinned seq, and those are shipped again
  // afterwards. The follower must skip them, not fail their length check
  // and re-seed (which under steady ingest would repeat forever).
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  ASSERT_TRUE(rkv->Put("node", ToBytes("ab")).ok());
  auto follower_kv = std::make_shared<store::MemKvStore>();
  ReplicatedKvStore* primary = rkv.get();
  rkv->AddFollower(std::make_shared<SnapshotHookFollower>(
      InProcFollower(follower_kv), [primary] {
        EXPECT_TRUE(primary->Append("node", 2, ToBytes("cd")).ok());
        EXPECT_TRUE(primary->Append("node", 4, ToBytes("ef")).ok());
      }));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  ASSERT_TRUE(rkv->Append("node", 6, ToBytes("gh")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->snapshots_shipped(), 1u);
  EXPECT_EQ(ToString(*follower_kv->Get("node")), "abcdefgh");
  EXPECT_EQ(Contents(*follower_kv), Contents(*rkv));
}

// --------------------------------------------------------------- ReplicaSet

struct ReplicatedCluster {
  std::shared_ptr<store::MemKvStore> backend;
  std::vector<std::shared_ptr<ReplicaSet>> sets;
  std::shared_ptr<ShardRouter> router;
  std::shared_ptr<net::InProcTransport> transport;

  Status WaitCaughtUp() {
    for (auto& set : sets) TC_RETURN_IF_ERROR(set->WaitCaughtUp());
    return Status::Ok();
  }
};

ReplicatedCluster MakeReplicatedCluster(size_t shards, size_t replicas,
                                        AckMode ack,
                                        uint64_t max_read_lag_ops = 0) {
  ReplicatedCluster c;
  c.backend = std::make_shared<store::MemKvStore>();
  for (size_t i = 0; i < shards; ++i) {
    auto primary = std::make_shared<store::PrefixKvStore>(
        c.backend, "s" + std::to_string(i) + "/");
    std::vector<std::shared_ptr<store::KvStore>> followers;
    for (size_t j = 0; j < replicas; ++j) {
      followers.push_back(std::make_shared<store::PrefixKvStore>(
          c.backend, "s" + std::to_string(i) + "r" + std::to_string(j) + "/"));
    }
    server::ServerOptions engine_options;
    engine_options.shard_id = static_cast<uint32_t>(i);
    ReplicaSetOptions options;
    options.kv.ack = ack;
    options.max_read_lag_ops = max_read_lag_ops;
    c.sets.push_back(ReplicaSet::Make(std::move(primary), std::move(followers),
                                      engine_options, options));
  }
  c.router = std::make_shared<ShardRouter>(c.sets);
  c.transport = std::make_shared<net::InProcTransport>(c.router);
  return c;
}

TEST(ReplicaSet, ReadsAreServedByReplicasAndMatchThePrimary) {
  auto c = MakeReplicatedCluster(2, 2, AckMode::kAsync);
  OwnerClient owner(c.transport);
  auto uuid = owner.CreateStream(HeacConfig("replicated"));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 12).ok());
  ASSERT_TRUE(c.WaitCaughtUp().ok());

  for (int round = 0; round < 6; ++round) {
    auto stats = owner.GetStatRange(*uuid, {0, 12 * kDelta});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 12));
    auto points = owner.GetRange(*uuid, {0, 3 * kDelta});
    ASSERT_TRUE(points.ok()) << points.status().ToString();
    EXPECT_EQ(points->size(), 15u);
  }
  auto& set = c.sets[c.router->ShardOf(*uuid)];
  EXPECT_GT(set->replica_reads(), 0u);
  // Caught-up replicas answer everything; the primary is never consulted.
  EXPECT_EQ(set->primary_reads(), 0u);

  // Streams created after the replicas attached appear on them too (the
  // refresh picks up directory changes, not just appends).
  auto fresh = owner.CreateStream(HeacConfig("late"));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(IngestChunks(owner, *fresh, 0, 4).ok());
  ASSERT_TRUE(c.WaitCaughtUp().ok());
  auto stats = owner.GetStatRange(*fresh, {0, 4 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 4));
}

TEST(ReplicaSet, LaggingReplicaIsSkippedUntilCaughtUp) {
  // Followers over hard-failing stores cannot apply anything: every read
  // must fall back to the primary rather than serve a stale replica.
  auto backend = std::make_shared<store::MemKvStore>();
  auto primary = std::make_shared<store::PrefixKvStore>(backend, "p/");
  store::FaultOptions fault;
  fault.fail_all = true;
  auto fault_kv = std::make_shared<store::FaultKvStore>(
      std::make_shared<store::PrefixKvStore>(backend, "r0/"), fault);
  auto set = ReplicaSet::Make(primary, {fault_kv}, {}, {});

  net::CreateStreamRequest create{42, PlainConfig("lagging")};
  ASSERT_TRUE(
      set->Handle(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 4; ++ch) {
    std::vector<uint64_t> fields{ch + 1, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
    ASSERT_TRUE(
        set->Handle(net::MessageType::kInsertChunkBatch, req.Encode()).ok());
  }
  net::StatRangeRequest stat{42, {0, 4 * kDelta}};
  auto resp = set->HandleRead(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(set->replica_reads(), 0u);
  EXPECT_GT(set->primary_reads(), 0u);

  // Heal the follower: once caught up, it serves.
  fault_kv->SetFailAll(false);
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  resp = set->HandleRead(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_GT(set->replica_reads(), 0u);
}

TEST(ReplicaSet, WitnessedReadsServeFromReplicas) {
  auto c = MakeReplicatedCluster(1, 1, AckMode::kAsync);
  auto config = PlainConfig("witnessed");
  config.integrity = true;
  net::CreateStreamRequest create{7, config};
  ASSERT_TRUE(
      c.transport->Call(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 6; ++ch) {
    std::vector<uint64_t> fields{ch, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    Bytes payload = ToBytes("sealed" + std::to_string(ch));
    net::InsertChunkBatchRequest req{7, {{ch, digest, payload}}};
    ASSERT_TRUE(
        c.transport->Call(net::MessageType::kInsertChunkBatch, req.Encode())
            .ok());
  }
  ASSERT_TRUE(c.WaitCaughtUp().ok());

  // Proof-less bulk witnessed read (at_size = 0) must come back identical
  // from the replica path and the primary engine directly.
  net::GetChunkWitnessedRequest req{7, 0, 6, 0};
  auto via_router =
      c.transport->Call(net::MessageType::kGetChunkWitnessed, req.Encode());
  ASSERT_TRUE(via_router.ok()) << via_router.status().ToString();
  auto via_primary =
      c.sets[0]->primary()->Handle(net::MessageType::kGetChunkWitnessed,
                                   req.Encode());
  ASSERT_TRUE(via_primary.ok());
  EXPECT_EQ(*via_router, *via_primary);
  EXPECT_GT(c.sets[0]->replica_reads(), 0u);
}

TEST(ReplicaSet, RejectedDuplicateInsertDoesNotClobberStoredPayload) {
  // The payload-before-append ordering must not let a rejected duplicate
  // insert overwrite a committed chunk's ciphertext: the position check
  // runs before any store write.
  auto engine = std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>());
  net::CreateStreamRequest create{9, PlainConfig("dup")};
  ASSERT_TRUE(
      engine->Handle(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  std::vector<uint64_t> fields{1, 1};
  const Bytes digest = *cipher->Encrypt(fields, 0);
  const Bytes committed = ToBytes("committed");
  net::InsertChunkBatchRequest first{9, {{0, digest, committed}}};
  ASSERT_TRUE(
      engine->Handle(net::MessageType::kInsertChunkBatch, first.Encode())
          .ok());

  const Bytes clobber = ToBytes("clobber");
  net::InsertChunkBatchRequest dup_batch{9, {{0, digest, clobber}}};
  EXPECT_EQ(engine
                ->Handle(net::MessageType::kInsertChunkBatch,
                         dup_batch.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  net::GetRangeRequest range{9, {0, kDelta}};
  auto resp = engine->Handle(net::MessageType::kGetRange, range.Encode());
  ASSERT_TRUE(resp.ok());
  auto chunks = net::GetRangeResponse::Decode(*resp);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->chunks.size(), 1u);
  EXPECT_EQ(ToString(chunks->chunks[0].payload), "committed");
}

// ----------------------------------------------------------------- failover

void RunFailoverDrill(AckMode ack) {
  auto c = MakeReplicatedCluster(2, 2, ack);
  OwnerClient owner(c.transport);
  Principal alice{"alice", crypto::GenerateBoxKeyPair()};

  std::vector<uint64_t> uuids;
  std::vector<int64_t> sums;
  std::vector<size_t> point_counts;
  for (int s = 0; s < 4; ++s) {
    auto created = owner.CreateStream(HeacConfig("fo" + std::to_string(s)));
    ASSERT_TRUE(created.ok());
    uuids.push_back(*created);
    ASSERT_TRUE(IngestChunks(owner, *created, 0, 10).ok());
    ASSERT_TRUE(owner
                    .GrantAccess(*created, alice.id, alice.keys.public_key,
                                 {0, 10 * kDelta}, 1)
                    .ok());
    auto stats = owner.GetStatRange(*created, {0, 10 * kDelta});
    ASSERT_TRUE(stats.ok());
    sums.push_back(stats->stats.Sum().value());
    auto points = owner.GetRange(*created, {0, 10 * kDelta});
    ASSERT_TRUE(points.ok());
    point_counts.push_back(points->size());
  }
  // Async mode only guarantees what has shipped; drain before the "crash"
  // (quorum mode guarantees acked writes survive by construction, but the
  // drill drops BOTH shards' primaries, so drain regardless).
  ASSERT_TRUE(c.WaitCaughtUp().ok());

  // Drop every shard's primary. Writes must fail; replica reads survive.
  // (The failed write is probed at the wire so the owner's client-side
  // retry buffer stays empty for the post-promotion ingest below.)
  for (auto& set : c.sets) ASSERT_TRUE(set->DropPrimary().ok());
  const Bytes probe_digest = ToBytes("digest");
  net::InsertChunkBatchRequest probe{uuids[0], {{10, probe_digest, {}}}};
  EXPECT_EQ(c.transport
                ->Call(net::MessageType::kInsertChunkBatch, probe.Encode())
                .status()
                .code(),
            StatusCode::kUnavailable);
  {
    auto stats = owner.GetStatRange(uuids[0], {0, 10 * kDelta});
    ASSERT_TRUE(stats.ok()) << "replica reads during failover: "
                            << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), sums[0]);
  }

  // Promote. The complete pre-failure history must be served: chunk
  // counts, raw range reads, and decrypted statistical sums identical.
  for (auto& set : c.sets) {
    ASSERT_TRUE(set->Promote().ok());
    EXPECT_EQ(set->promotions(), 1u);
    EXPECT_EQ(set->num_replicas(), 1u);  // one follower became primary
  }
  for (size_t s = 0; s < uuids.size(); ++s) {
    net::StreamInfoRequest info_req{uuids[s]};
    auto info_blob = c.transport->Call(net::MessageType::kGetStreamInfo,
                                       info_req.Encode());
    ASSERT_TRUE(info_blob.ok()) << info_blob.status().ToString();
    EXPECT_EQ(net::StreamInfoResponse::Decode(*info_blob)->num_chunks, 10u);

    auto stats = owner.GetStatRange(uuids[s], {0, 10 * kDelta});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), sums[s]);
    auto points = owner.GetRange(uuids[s], {0, 10 * kDelta});
    ASSERT_TRUE(points.ok());
    EXPECT_EQ(points->size(), point_counts[s]);
  }

  // Grants survived too (the promoted engine recovered key-store state):
  // the consumer fetches and decrypts through the new primaries.
  ConsumerClient consumer(c.transport, alice);
  auto n = consumer.FetchGrants();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 4);
  auto consumed = consumer.GetStatRange(uuids[1], {0, 10 * kDelta});
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed->stats.Sum().value(), sums[1]);

  // The promoted primaries accept new writes, replicated to the survivor.
  ASSERT_TRUE(IngestChunks(owner, uuids[0], 10, 2).ok());
  ASSERT_TRUE(c.WaitCaughtUp().ok());
  auto extended = owner.GetStatRange(uuids[0], {0, 12 * kDelta});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->stats.Sum().value(), OracleSum(0, 12));
}

TEST(Failover, PromotedFollowerServesFullHistoryAsync) {
  RunFailoverDrill(AckMode::kAsync);
}

TEST(Failover, PromotedFollowerServesFullHistoryQuorum) {
  RunFailoverDrill(AckMode::kQuorum);
}

TEST(Failover, AutoFailoverPromotesWhenPrimaryStoreDies) {
  // Heartbeat probes against a primary store that starts failing must trip
  // the miss threshold and run the drop+promote sequence without any
  // operator call — PR 3's manual drill, automated.
  auto backend = std::make_shared<store::MemKvStore>();
  store::FaultOptions fault;
  auto fault_kv = std::make_shared<store::FaultKvStore>(
      std::make_shared<store::PrefixKvStore>(backend, "p/"), fault);
  std::vector<std::shared_ptr<store::KvStore>> followers = {
      std::make_shared<store::PrefixKvStore>(backend, "r0/"),
      std::make_shared<store::PrefixKvStore>(backend, "r1/")};
  ReplicaSetOptions options;
  options.failover.auto_failover = true;
  options.failover.heartbeat_interval_ms = 20;
  options.failover.miss_threshold = 2;
  auto set = ReplicaSet::Make(fault_kv, followers, {}, options);

  net::CreateStreamRequest create{42, PlainConfig("auto")};
  ASSERT_TRUE(
      set->Handle(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 6; ++ch) {
    std::vector<uint64_t> fields{ch + 1, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
    ASSERT_TRUE(
        set->Handle(net::MessageType::kInsertChunkBatch, req.Encode()).ok());
  }
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->promotions(), 0u);
  EXPECT_TRUE(set->auto_failover());

  // Kill the primary's store. The monitor must notice and promote. Poll
  // the auto_failovers counter — it is the last thing the monitor bumps,
  // so promotions() is settled once it reads 1.
  fault_kv->SetFailAll(true);
  for (int i = 0; i < 200 && set->auto_failovers() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(set->auto_failovers(), 1u) << "auto-failover did not fire";
  EXPECT_EQ(set->promotions(), 1u);
  EXPECT_EQ(set->num_replicas(), 1u);

  // The shard serves the full history again — reads and new writes.
  net::StatRangeRequest stat{42, {0, 6 * kDelta}};
  auto resp = set->HandleRead(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  std::vector<uint64_t> next{7, 1};
  const Bytes next_digest = *cipher->Encrypt(next, 6);
  net::InsertChunkBatchRequest more{42, {{6, next_digest, {}}}};
  ASSERT_TRUE(
      set->Handle(net::MessageType::kInsertChunkBatch, more.Encode()).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
}

TEST(Failover, RemoteFollowersAreReHomedByPromotion) {
  auto backend = std::make_shared<store::MemKvStore>();
  auto primary = std::make_shared<store::PrefixKvStore>(backend, "p/");
  auto local = std::make_shared<store::PrefixKvStore>(backend, "l/");
  auto set = ReplicaSet::Make(primary, {local}, {}, {});

  // A socket follower, in-proc: applier behind a transport.
  auto remote_kv = std::make_shared<store::MemKvStore>();
  auto applier = std::make_shared<replica::ReplicaApplier>(remote_kv);
  ASSERT_TRUE(set->AddRemoteFollower(
                     std::make_shared<replica::RemoteFollower>(
                         std::make_shared<net::InProcTransport>(applier)),
                     "127.0.0.1:7001")
                  .ok());
  // Duplicate registration (daemon restart) must not double-ship.
  EXPECT_EQ(set->AddRemoteFollower(
                   std::make_shared<replica::RemoteFollower>(
                       std::make_shared<net::InProcTransport>(applier)),
                   "127.0.0.1:7001")
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(set->num_remote_followers(), 1u);

  net::CreateStreamRequest create{42, PlainConfig("rehome")};
  ASSERT_TRUE(
      set->Handle(net::MessageType::kCreateStream, create.Encode()).ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 4; ++ch) {
    std::vector<uint64_t> fields{ch + 1, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
    ASSERT_TRUE(
        set->Handle(net::MessageType::kInsertChunkBatch, req.Encode()).ok());
  }
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(applier->applied_seq(), 0u);

  // Failover: the remote follower must keep following the promoted
  // primary (fresh sequence numbering adopted through the re-seed).
  ASSERT_TRUE(set->DropPrimary().ok());
  ASSERT_TRUE(set->Promote().ok());
  EXPECT_EQ(set->num_remote_followers(), 1u);
  for (uint64_t ch = 4; ch < 8; ++ch) {
    std::vector<uint64_t> fields{ch + 1, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
    ASSERT_TRUE(
        set->Handle(net::MessageType::kInsertChunkBatch, req.Encode()).ok());
  }
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(Contents(*remote_kv), Contents(*local));
}

TEST(Failover, QuiescentReHelloForcesReseed) {
  // A wiped follower re-registering on a shard with no write traffic: the
  // gap detector never fires (nothing ships), so the reconcile path must
  // force the snapshot itself or the primary would count an empty store
  // as fully caught up forever.
  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {}, {},
                              {});
  auto kv1 = std::make_shared<store::MemKvStore>();
  auto applier1 = std::make_shared<replica::ReplicaApplier>(kv1);
  auto swap = std::make_shared<SwappableHandler>(applier1);
  ASSERT_TRUE(set->AddRemoteFollower(
                     std::make_shared<replica::RemoteFollower>(
                         std::make_shared<net::InProcTransport>(swap)),
                     "127.0.0.1:7002")
                  .ok());
  net::CreateStreamRequest create{42, PlainConfig("quiescent")};
  ASSERT_TRUE(
      set->Handle(net::MessageType::kCreateStream, create.Encode()).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(kv1->Size(), 0u);
  uint64_t seeded = set->snapshots_shipped();

  // "Restart" the follower with an empty store; it re-hellos claiming
  // applied_seq 0. No writes follow — reconciliation alone must re-seed.
  auto kv2 = std::make_shared<store::MemKvStore>();
  swap->Swap(std::make_shared<replica::ReplicaApplier>(kv2));
  set->ReconcileRemoteFollower("127.0.0.1:7002", 0);
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(set->snapshots_shipped(), seeded);
  EXPECT_EQ(Contents(*kv2), Contents(*kv1));
  // An honest claim (already at the recorded seq) must NOT churn.
  uint64_t settled = set->snapshots_shipped();
  set->ReconcileRemoteFollower("127.0.0.1:7002", set->head_seq());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->snapshots_shipped(), settled);
}

TEST(Failover, DropAndPromoteGuardrails) {
  auto single = ReplicaSet::Single(std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>()));
  EXPECT_EQ(single->DropPrimary().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(single->Promote().code(), StatusCode::kFailedPrecondition);

  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(),
                              {std::make_shared<store::MemKvStore>()}, {}, {});
  EXPECT_EQ(set->Promote().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(set->DropPrimary().ok());
  EXPECT_EQ(set->DropPrimary().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(set->Promote().ok());
  // The group is down to its last copy: a second failover has nothing to
  // promote onto.
  ASSERT_TRUE(set->DropPrimary().ok());
  EXPECT_EQ(set->Promote().code(), StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- shard meta

TEST(ShardMeta, BindPersistsAndRejectsLayoutChanges) {
  store::MemKvStore kv;
  ASSERT_TRUE(cluster::BindShardMeta(kv, 2, 4).ok());
  // Same layout re-binds cleanly (restart with the same --shards).
  EXPECT_TRUE(cluster::BindShardMeta(kv, 2, 4).ok());
  // A different shard count (or id) fails fast instead of silently
  // re-homing streams away from their on-disk state.
  EXPECT_EQ(cluster::BindShardMeta(kv, 2, 8).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster::BindShardMeta(kv, 1, 4).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardMeta, MetaKeyReplicatesWithTheShard) {
  // Binding through the replicated store ships the layout to followers, so
  // a promoted follower refuses a wrong --shards just like the original.
  auto rkv = std::make_shared<ReplicatedKvStore>(
      std::make_shared<store::MemKvStore>());
  auto fkv = std::make_shared<store::MemKvStore>();
  rkv->AddFollower(InProcFollower(fkv));
  ASSERT_TRUE(cluster::BindShardMeta(*rkv, 0, 2).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_TRUE(cluster::BindShardMeta(*fkv, 0, 2).ok());
  EXPECT_EQ(cluster::BindShardMeta(*fkv, 0, 3).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardMeta, BytesArePinned) {
  // Shard id, then shard count, as little-endian u32s.
  store::MemKvStore kv;
  ASSERT_TRUE(cluster::BindShardMeta(kv, 2, 4).ok());
  EXPECT_EQ(ToHex(kv.Get("meta/cluster/shard").value()), "0200000004000000");

  store::MemKvStore truncated;
  ASSERT_TRUE(
      truncated.Put("meta/cluster/shard", FromHex("020000000400").value())
          .ok());
  EXPECT_EQ(cluster::BindShardMeta(truncated, 2, 4).code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------- applied-seq marker

TEST(AppliedSeqMarker, BytesArePinnedAndABadMarkerStartsOver) {
  // The follower's applied seq, a little-endian u64 under the replica-meta
  // prefix, read back when an applier opens the store.
  const std::string key = std::string(replica::kReplicaMetaPrefix) + "applied";
  auto kv = std::make_shared<store::MemKvStore>();
  replica::ReplicaApplier applier(kv);
  net::ReplicaOpsRequest ops;
  ops.first_seq = 1;
  ops.ops.push_back({net::kReplicaOpPut, "k1", ToBytes("v1")});
  ops.ops.push_back({net::kReplicaOpPut, "k2", ToBytes("v2")});
  ASSERT_TRUE(
      applier.Handle(net::MessageType::kReplicaOps, ops.Encode()).ok());
  EXPECT_EQ(ToHex(kv->Get(key).value()), "0200000000000000");
  EXPECT_EQ(replica::ReplicaApplier(kv).applied_seq(), 2u);

  ASSERT_TRUE(kv->Put(key, FromHex("020000").value()).ok());  // truncated
  EXPECT_EQ(replica::ReplicaApplier(kv).applied_seq(), 0u);
}

}  // namespace
}  // namespace tc
