// Replication layer tests: a follower's log must stay a byte prefix of its
// primary's, quorum acks must mean what they claim, a follower must resume
// from its own length when its log matches the primary's and be copied from
// the start when it does not, garbage frames must change nothing, replica
// read routing must be invisible to clients, and failover promotion must
// serve the complete pre-failure stream history in both ack modes. Every
// store is a real LogKvStore.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <utility>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "replica/replica_set.hpp"
#include "replica/replica_wire.hpp"
#include "replica/replicated_kv.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "temp_logs.hpp"
#include "tests/support/helpers.hpp"

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
using store::LogHead;
using store::LogKvStore;
using store::LogPosition;
using testing::HeacConfig;
using testing::IngestChunks;
using testing::kDelta;
using testing::OracleSum;
using testing::PlainConfig;
using testing::TempLogs;

/// Creates the plaintext stream 42.
Status CreatePlainStream(net::RequestHandler& handler, const std::string& name) {
  net::CreateStreamRequest create{42, PlainConfig(name)};
  return handler.Handle(net::MessageType::kCreateStream, create.Encode())
      .status();
}

/// Plain digests of `chunks` chunks of stream 42, inserted one per request.
Status InsertPlainChunks(net::RequestHandler& handler, uint64_t first,
                         uint64_t count) {
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = first; ch < first + count; ++ch) {
    std::vector<uint64_t> fields{ch + 1, 1};
    TC_ASSIGN_OR_RETURN(Bytes digest, cipher->Encrypt(fields, ch));
    net::InsertChunkBatchRequest req{42, {{ch, digest, {}}}};
    TC_RETURN_IF_ERROR(
        handler.Handle(net::MessageType::kInsertChunkBatch, req.Encode())
            .status());
  }
  return Status::Ok();
}

std::shared_ptr<ReplicatedKvStore> OpenReplicated(
    std::shared_ptr<LogKvStore> log, ReplicatedKvOptions options = {}) {
  auto rkv = ReplicatedKvStore::Open(std::move(log), options);
  EXPECT_TRUE(rkv.ok()) << rkv.status().ToString();
  return rkv.ok() ? *rkv : nullptr;
}

std::shared_ptr<ReplicaSet> MakeSet(
    std::shared_ptr<LogKvStore> primary,
    std::vector<std::shared_ptr<LogKvStore>> followers,
    ReplicaSetOptions options = {}, server::ServerOptions engine = {}) {
  auto set = ReplicaSet::Make(std::move(primary), std::move(followers),
                              engine, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return set.ok() ? *set : nullptr;
}

/// A follower in this process, built the way ReplicaSet builds one: the
/// shipper reaches an applier over `log` through kReplicaLog frames.
std::shared_ptr<replica::Follower> InProcFollower(
    std::shared_ptr<LogKvStore> log) {
  return std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(
          std::make_shared<replica::ReplicaApplier>(std::move(log))));
}

/// Follower whose frames can be held shut (quorum and lag tests).
class GatedFollower final : public replica::Follower {
 public:
  explicit GatedFollower(std::shared_ptr<LogKvStore> log)
      : inner_(InProcFollower(std::move(log))) {}

  Result<LogPosition> ShipLog(LogPosition at, BytesView records) override {
    if (!open_.load()) return Unavailable("gate closed");
    return inner_->ShipLog(at, records);
  }

  void Open() { open_.store(true); }
  void Close() { open_.store(false); }

 private:
  std::shared_ptr<replica::Follower> inner_;
  std::atomic<bool> open_{true};
};

// --------------------------------------------------------- ReplicatedKvStore

TEST(ReplicatedKv, FollowerLogsAreBytePrefixesOfThePrimarys) {
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  auto f0 = logs.Open("f0");
  auto f1 = logs.Open("f1");
  rkv->AddFollower(InProcFollower(f0));
  rkv->AddFollower(InProcFollower(f1));

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        rkv->Put("k" + std::to_string(i), ToBytes("v" + std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(rkv->Append("k1", 2, ToBytes("+")).ok());
  for (int i = 0; i < 50; i += 3) {
    ASSERT_TRUE(rkv->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  ASSERT_TRUE(rkv->Sync().ok());

  for (const auto& follower : {f0, f1}) {
    EXPECT_FALSE(follower->Contains("k0"));
    EXPECT_EQ(ToString(*follower->Get("k1")), "v1+");
    EXPECT_EQ(follower->Size(), rkv->Size());
  }
  // Caught up, the logs are the same bytes; the generation record too.
  EXPECT_EQ(logs.Bytes("f0"), logs.Bytes("p"));
  EXPECT_EQ(logs.Bytes("f1"), logs.Bytes("p"));
  EXPECT_EQ(f0->Head().position(), rkv->log()->Head().position());
  EXPECT_EQ(rkv->MaxLagBytes(), 0u);
  EXPECT_EQ(rkv->follower_bytes(0), rkv->log()->Head().length);
}

TEST(ReplicatedKv, EmptyAndDivergedFollowersAreCopiedFromTheStart) {
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  ASSERT_TRUE(rkv->Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(rkv->Put("b", ToBytes("2")).ok());

  // One empty follower, one holding another primary's history (a diverged
  // ex-peer in a generation this log never had): both are copied.
  auto empty = logs.Open("empty");
  auto stale = logs.Open("stale");
  {
    auto other = OpenReplicated(stale);
    ASSERT_TRUE(other->Put("zombie", ToBytes("boo")).ok());
    ASSERT_TRUE(other->Put("a", ToBytes("wrong")).ok());
  }
  rkv->AddFollower(InProcFollower(empty));
  rkv->AddFollower(InProcFollower(stale), stale->Head().position());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("empty", "p"));
  EXPECT_TRUE(logs.Same("stale", "p"));
  EXPECT_FALSE(stale->Contains("zombie"));
  EXPECT_TRUE(logs.IsPrefix("stale", "p"));
  EXPECT_EQ(rkv->full_copies(), 2u);
}

TEST(ReplicatedKv, QuorumPutReturnsOnlyAfterFollowerHoldsIt) {
  TempLogs logs;
  ReplicatedKvOptions options;
  options.ack = AckMode::kQuorum;
  auto rkv = OpenReplicated(logs.Open("p"), options);
  auto follower = logs.Open("f");
  rkv->AddFollower(std::make_shared<GatedFollower>(follower));

  // The quorum (primary + 1 of 1 follower) means the follower holds every
  // acknowledged write by the time Put returns.
  for (int i = 0; i < 10; ++i) {
    std::string key = "q" + std::to_string(i);
    ASSERT_TRUE(rkv->Put(key, ToBytes("v")).ok());
    EXPECT_TRUE(follower->Contains(key)) << key;
  }
  EXPECT_TRUE(logs.IsPrefix("f", "p"));
}

TEST(ReplicatedKv, QuorumBlocksWhileFollowerIsStuckAndTimesOut) {
  TempLogs logs;
  ReplicatedKvOptions options;
  options.ack = AckMode::kQuorum;
  options.quorum_timeout_ms = 300;
  auto rkv = OpenReplicated(logs.Open("p"), options);
  auto follower = logs.Open("f");
  auto gate = std::make_shared<GatedFollower>(follower);
  gate->Close();
  rkv->AddFollower(gate);

  // The write lands on the primary but the ack never comes: semi-sync
  // reports the write failed after the timeout, and the follower's health
  // surfaces why it is lagging.
  Status s = rkv->Put("k", ToBytes("v"));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(rkv->Contains("k"));
  EXPECT_FALSE(follower->Contains("k"));
  EXPECT_EQ(rkv->follower_error(0).code(), StatusCode::kUnavailable);

  // Re-open the gate: the pipeline drains and quorum writes succeed again.
  gate->Open();
  ASSERT_TRUE(rkv->Put("k2", ToBytes("v2")).ok());
  EXPECT_TRUE(follower->Contains("k2"));
  EXPECT_TRUE(follower->Contains("k"));  // the stalled bytes shipped too
  EXPECT_TRUE(rkv->follower_error(0).ok());  // health cleared on recovery
  EXPECT_TRUE(logs.IsPrefix("f", "p"));
}

TEST(ReplicatedKv, StalledFollowerResumesFromItsLengthWithoutACopy) {
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  auto follower = logs.Open("f");
  auto gate = std::make_shared<GatedFollower>(follower);
  rkv->AddFollower(gate);
  ASSERT_TRUE(rkv->Put("seed", ToBytes("x")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);  // it started empty

  // However far a follower falls behind, its log is a prefix of the
  // primary's: it is shipped the difference, never copied again.
  gate->Close();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        rkv->Put("k" + std::to_string(i % 10), ToBytes(std::to_string(i)))
            .ok());
  }
  EXPECT_GT(rkv->MaxLagBytes(), 0u);
  gate->Open();
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);
  EXPECT_EQ(rkv->MaxLagBytes(), 0u);
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "p"));
}

/// Records the size of every frame it passes on.
class FrameRecorder final : public replica::Follower {
 public:
  explicit FrameRecorder(std::shared_ptr<LogKvStore> log)
      : inner_(InProcFollower(std::move(log))) {}

  Result<LogPosition> ShipLog(LogPosition at, BytesView records) override {
    if (!records.empty()) sizes_.push_back(records.size());
    return inner_->ShipLog(at, records);
  }

  /// Read only once the shipper is idle (after WaitCaughtUp).
  const std::vector<size_t>& sizes() const { return sizes_; }

 private:
  std::shared_ptr<replica::Follower> inner_;
  std::vector<size_t> sizes_;
};

TEST(ReplicatedKv, CatchUpShipsBoundedFramesAndAnOversizedRecordAlone) {
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i),
                         Bytes(64 << 10, static_cast<uint8_t>(i)))
                    .ok());
  }
  const size_t big = replica::kLogFrameBytes + (512 << 10);
  ASSERT_TRUE(rkv->Put("big", Bytes(big, 0xb1)).ok());
  ASSERT_TRUE(rkv->Put("after", ToBytes("tail")).ok());
  auto follower = logs.Open("f");
  auto recorder = std::make_shared<FrameRecorder>(follower);
  rkv->AddFollower(recorder);
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  // 2.5 MiB of small records in frames of at most 1 MiB, then the record
  // that is larger than a frame, alone.
  size_t oversized = 0;
  for (size_t size : recorder->sizes()) {
    if (size > replica::kLogFrameBytes) {
      ++oversized;
      EXPECT_LT(size, big + 64);  // the record and its header, no more
    }
  }
  EXPECT_EQ(oversized, 1u);
  EXPECT_GE(recorder->sizes().size(), 4u);
  EXPECT_EQ(rkv->full_copies(), 1u);
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "p"));
}

/// Reports a frame as written without passing it on, once, after the
/// first frame: a follower whose ack cannot be trusted.
class LyingFollower final : public replica::Follower {
 public:
  explicit LyingFollower(std::shared_ptr<LogKvStore> log)
      : inner_(InProcFollower(std::move(log))) {}

  Result<LogPosition> ShipLog(LogPosition at, BytesView records) override {
    if (!records.empty() && at.length > 0 && !lied_) {
      lied_ = true;
      return LogPosition{at.generation, at.length + records.size()};
    }
    return inner_->ShipLog(at, records);
  }

 private:
  std::shared_ptr<replica::Follower> inner_;
  bool lied_ = false;  // touched only by the one shipper thread
};

TEST(ReplicatedKv, AFollowerWhoseLogIsNotWhereItAckedIsPositionedAgain) {
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  auto follower = logs.Open("f");
  rkv->AddFollower(std::make_shared<LyingFollower>(follower));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  // One key per frame: the second frame "lands" without reaching the log,
  // the third is refused at a position the log is not at, and the shipper
  // asks where the log stands and resumes from there — no copy.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i),
                         ToBytes("v" + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  }
  ASSERT_TRUE(rkv->Put("last", ToBytes("x")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);  // the first, of an empty log
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "p"));
}

/// Runs `hook` once, as the first frame ships (after the shipper read it).
class FirstFrameHook final : public replica::Follower {
 public:
  FirstFrameHook(std::shared_ptr<LogKvStore> log, std::function<void()> hook)
      : inner_(InProcFollower(std::move(log))), hook_(std::move(hook)) {}

  Result<LogPosition> ShipLog(LogPosition at, BytesView records) override {
    if (hook_ && !records.empty()) std::exchange(hook_, nullptr)();
    return inner_->ShipLog(at, records);
  }

 private:
  std::shared_ptr<replica::Follower> inner_;
  std::function<void()> hook_;
};

TEST(ReplicatedKv, WritesRacingACopyConvergeAfterOneCopy) {
  // Ingest keeps appending while a follower is copied: the bytes written
  // after the copy's first frame was read ship after it, from where it
  // ended.
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  ASSERT_TRUE(rkv->Put("node", ToBytes("ab")).ok());
  auto follower = logs.Open("f");
  ReplicatedKvStore* primary = rkv.get();
  rkv->AddFollower(std::make_shared<FirstFrameHook>(follower, [primary] {
    EXPECT_TRUE(primary->Append("node", 2, ToBytes("cd")).ok());
    EXPECT_TRUE(primary->Append("node", 4, ToBytes("ef")).ok());
  }));
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  ASSERT_TRUE(rkv->Append("node", 6, ToBytes("gh")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);
  EXPECT_EQ(ToString(*follower->Get("node")), "abcdefgh");
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "p"));
}

TEST(ReplicatedKv, PrimaryRestartThatLostATailCopiesOnlyTheFollowerHoldingIt) {
  TempLogs logs;
  uint64_t kept = 0;
  {
    auto primary = logs.Open("p");
    auto rkv = OpenReplicated(primary);
    rkv->AddFollower(InProcFollower(logs.Open("ahead")));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
    }
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
    ASSERT_TRUE(rkv->Sync().ok());
    // A follower that stopped here holds a prefix of what survives.
    kept = primary->Head().length;
    std::filesystem::copy_file(logs.Path("p"), logs.Path("behind"));
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("lost")).ok());
    }
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  }
  // The primary comes back without the tail its follower already holds.
  ASSERT_EQ(::truncate(logs.Path("p").c_str(), static_cast<off_t>(kept)), 0);
  auto rkv = OpenReplicated(logs.Open("p"));
  auto ahead = logs.Open("ahead");
  auto behind = logs.Open("behind");
  ASSERT_GT(ahead->Head().length, kept);
  rkv->AddFollower(InProcFollower(ahead), ahead->Head().position());
  rkv->AddFollower(InProcFollower(behind), behind->Head().position());
  ASSERT_TRUE(rkv->Put("after", ToBytes("restart")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  // The follower holding the lost tail is past where the new generation
  // began: it is copied. The one behind resumes.
  EXPECT_EQ(rkv->full_copies(), 1u);
  EXPECT_FALSE(ahead->Contains("k15"));
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("ahead", "p"));
  EXPECT_TRUE(logs.Same("behind", "p"));
}

TEST(ReplicatedKv, PromotionCopiesASurvivorHoldingAnAsyncTail) {
  // The primary dies after shipping a tail to one follower but not the
  // other, and the other is promoted (a daemon election can pick it from
  // a stale view): the survivor's tail is not in the new primary's history.
  TempLogs logs;
  auto promoted = logs.Open("promoted");
  auto survivor = logs.Open("survivor");
  {
    auto rkv = OpenReplicated(logs.Open("p"));
    auto gate = std::make_shared<GatedFollower>(promoted);
    rkv->AddFollower(gate);
    rkv->AddFollower(InProcFollower(survivor));
    ASSERT_TRUE(rkv->Put("k", ToBytes("v")).ok());
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
    gate->Close();
    ASSERT_TRUE(rkv->Put("tail", ToBytes("async")).ok());
    for (int i = 0; i < 2000 && !survivor->Contains("tail"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(survivor->Contains("tail"));
  }
  auto rkv = OpenReplicated(promoted);
  rkv->AddFollower(InProcFollower(survivor), survivor->Head().position());
  ASSERT_TRUE(rkv->Put("new", ToBytes("era")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);
  EXPECT_FALSE(survivor->Contains("tail"));
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("survivor", "promoted"));
}

TEST(ReplicatedKv, PrimaryCompactionCopiesEveryFollower) {
  TempLogs logs;
  auto primary = logs.Open("p");
  auto rkv = OpenReplicated(primary);
  rkv->AddFollower(InProcFollower(logs.Open("f0")));
  rkv->AddFollower(InProcFollower(logs.Open("f1")));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i % 20),
                         Bytes(256, static_cast<uint8_t>(i)))
                    .ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 2u);

  // A rewritten log starts a generation that replaced the old log whole:
  // no follower's log is a prefix of it, so each is copied again from its
  // first byte.
  const uint64_t old_length = primary->Head().length;
  ASSERT_TRUE(primary->Compact().ok());
  EXPECT_EQ(primary->Head().generation.replaced, old_length);
  ASSERT_TRUE(rkv->Put("post", ToBytes("compaction")).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_EQ(rkv->full_copies(), 4u);
  EXPECT_TRUE(logs.Same("f0", "p"));
  EXPECT_TRUE(logs.Same("f1", "p"));
  EXPECT_EQ(rkv->follower_bytes(0), primary->Head().progress());
}

/// Passes frames on until cut, then lets through only `frames` more frames
/// of a copy (frames for a position other than the log's own) and refuses
/// the rest: a primary that dies mid-copy.
class CopyCutter final : public replica::Follower {
 public:
  explicit CopyCutter(std::shared_ptr<LogKvStore> log)
      : log_(log), inner_(InProcFollower(std::move(log))) {}

  Result<LogPosition> ShipLog(LogPosition at, BytesView records) override {
    if (cut_.load() && !records.empty() && at != log_->Head().position()) {
      if (left_.load() == 0) return Unavailable("primary gone mid-copy");
      --left_;
      ++copied_;
    }
    return inner_->ShipLog(at, records);
  }

  void Cut(int frames) {
    left_.store(frames);
    cut_.store(true);
  }
  int copied() const { return copied_.load(); }

 private:
  std::shared_ptr<LogKvStore> log_;
  std::shared_ptr<replica::Follower> inner_;
  std::atomic<bool> cut_{false};
  std::atomic<int> left_{0};
  std::atomic<int> copied_{0};
};

TEST(ReplicatedKv, PrimaryLostMidCopyAfterACompactionKeepsEveryAckedWrite) {
  // A primary compacts, so every follower must be copied again, and dies
  // before any copy is whole. Each copy was written beside its follower's
  // log, so every follower still holds every write a quorum acked, and the
  // one promoted serves them all; the other resumes from its length.
  TempLogs logs;
  auto primary = logs.Open("p");
  replica::ReplicatedKvOptions options;
  options.ack = AckMode::kQuorum;
  options.quorum_timeout_ms = 300;
  auto opened = ReplicatedKvStore::Open(primary, options);
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<ReplicatedKvStore> rkv = std::move(*opened);
  auto f0 = logs.Open("f0");
  auto f1 = logs.Open("f1");
  auto cut0 = std::make_shared<CopyCutter>(f0);
  auto cut1 = std::make_shared<CopyCutter>(f1);
  rkv->AddFollower(cut0);
  rkv->AddFollower(cut1);
  // 40 keys of 64 KiB, half overwritten: the compacted log is 2.5 MiB, a
  // copy of three frames.
  std::map<std::string, Bytes> acked;
  for (int i = 0; i < 60; ++i) {
    std::string key = "k" + std::to_string(i % 40);
    acked[key] = Bytes(64 << 10, static_cast<uint8_t>(i));
    ASSERT_TRUE(rkv->Put(key, acked[key]).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  ASSERT_TRUE(rkv->Sync().ok());
  std::filesystem::copy_file(logs.Path("p"), logs.Path("before"));
  const LogPosition at0 = f0->Head().position();
  const LogPosition at1 = f1->Head().position();

  cut0->Cut(1);
  cut1->Cut(1);
  ASSERT_TRUE(primary->Compact().ok());
  // No follower holds the compacted log, so no quorum acks a write to it.
  EXPECT_EQ(rkv->Put("late", ToBytes("x")).code(), StatusCode::kUnavailable);
  for (int i = 0; i < 2000 && (cut0->copied() < 1 || cut1->copied() < 1);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(cut0->copied(), 1);
  ASSERT_EQ(cut1->copied(), 1);
  // Mid-copy, each follower keeps the log it acked, and its acked bytes
  // still rank it: progress below any log holding the compacted one.
  EXPECT_TRUE(std::filesystem::exists(logs.Path("f0") + ".copy"));
  EXPECT_EQ(f0->Head().position(), at0);
  EXPECT_EQ(f1->Head().position(), at1);
  EXPECT_EQ(rkv->follower_bytes(0), at0.length);
  EXPECT_EQ(rkv->follower_bytes(1), at1.length);
  EXPECT_GT(primary->Head().progress(), at0.length);
  rkv.reset();  // the primary dies

  EXPECT_TRUE(logs.Same("f0", "before"));
  EXPECT_TRUE(logs.Same("f1", "before"));
  auto promoted = OpenReplicated(f0);
  promoted->AddFollower(InProcFollower(f1), f1->Head().position());
  ASSERT_TRUE(promoted->WaitCaughtUp().ok());
  EXPECT_EQ(promoted->full_copies(), 0u);
  for (const auto& [key, value] : acked) {
    EXPECT_EQ(*f0->Get(key), value) << key;
    EXPECT_EQ(*f1->Get(key), value) << key;
  }
  EXPECT_FALSE(std::filesystem::exists(logs.Path("f0") + ".copy"));
  ASSERT_TRUE(promoted->Sync().ok());
  EXPECT_TRUE(logs.Same("f1", "f0"));
}

// ------------------------------------------------------------ wire follower

TEST(ReplicaApplier, WritesOnlyAtItsOwnPositionOrFromTheStart) {
  TempLogs logs;
  auto source = logs.Open("source");
  ASSERT_TRUE(source->StartGeneration().ok());
  ASSERT_TRUE(source->Put("a", ToBytes("1")).ok());
  const LogPosition first = source->Head().position();
  ASSERT_TRUE(source->Put("b", ToBytes("2")).ok());
  const uint64_t gen = source->Head().generation.id;
  Bytes head = *source->ReadLog(gen, 0, first.length);
  Bytes rest = *source->ReadLog(gen, first.length, 1 << 20);
  ASSERT_EQ(head.size(), first.length);

  auto log = logs.Open("f");
  replica::RemoteFollower follower(std::make_shared<net::InProcTransport>(
      std::make_shared<replica::ReplicaApplier>(log)));
  // Empty records ask where the log stands.
  EXPECT_EQ(*follower.ShipLog({}, {}), (LogPosition{0, 0}));
  EXPECT_EQ(*follower.ShipLog({}, head), first);
  // A frame for any other position is refused and writes nothing.
  EXPECT_EQ(follower.ShipLog({gen, first.length + 1}, rest).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(follower.ShipLog({gen + 1, first.length}, rest).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(log->Head().position(), first);
  EXPECT_EQ(*follower.ShipLog(first, rest), source->Head().position());
  // A frame at length 0 of a generation copies from the start over
  // whatever the log held.
  EXPECT_EQ(*follower.ShipLog({gen, 0}, head), first);
  EXPECT_FALSE(log->Contains("b"));
  EXPECT_EQ(ToString(*log->Get("a")), "1");
}

TEST(ReplicaApplier, ACopyReplacesTheLogOnlyOnceWhole) {
  // The source's generation starts after a put, so a copy of it in two
  // frames is whole only after the second. Until then the follower's log,
  // and the position it reports, are what they were.
  TempLogs logs;
  auto source = logs.Open("source");
  ASSERT_TRUE(source->Put("a", ToBytes("1")).ok());
  const uint64_t split = source->Head().length;
  ASSERT_TRUE(source->StartGeneration().ok());
  ASSERT_TRUE(source->Put("b", ToBytes("2")).ok());
  const LogHead head = source->Head();
  const uint64_t gen = head.generation.id;
  Bytes first = *source->ReadLog(gen, 0, split);
  Bytes rest = *source->ReadLog(gen, split, 1 << 20);
  ASSERT_EQ(first.size(), split);

  auto log = logs.Open("f");
  ASSERT_TRUE(log->StartGeneration().ok());
  ASSERT_TRUE(log->Put("old", ToBytes("x")).ok());
  const LogPosition before = log->Head().position();
  replica::RemoteFollower follower(std::make_shared<net::InProcTransport>(
      std::make_shared<replica::ReplicaApplier>(log)));
  EXPECT_EQ(*follower.ShipLog({gen, 0}, first), (LogPosition{gen, split}));
  EXPECT_EQ(log->Head().position(), before);
  EXPECT_EQ(*follower.ShipLog({}, {}), before);
  EXPECT_TRUE(log->Contains("old"));
  EXPECT_FALSE(log->Contains("a"));
  // The copy continues only from where it stands.
  EXPECT_EQ(follower.ShipLog({gen, split + 1}, rest).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(*follower.ShipLog({gen, split}, rest), head.position());
  EXPECT_EQ(log->Head().position(), head.position());
  EXPECT_FALSE(log->Contains("old"));
  EXPECT_EQ(ToString(*log->Get("b")), "2");
  ASSERT_TRUE(source->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "source"));
  EXPECT_FALSE(std::filesystem::exists(logs.Path("f") + ".copy"));
}

TEST(ReplicaApplier, APositionQueryReportsOnlySyncedBytes) {
  // A frame whose sync fails leaves records in the follower's log that
  // never reached its file (stdio drops a buffer it failed to write). The
  // shipper then asks where the log stands: the answer must not count
  // them, or they would count toward quorums.
  TempLogs logs;
  auto source = logs.Open("source");
  ASSERT_TRUE(source->StartGeneration().ok());
  ASSERT_TRUE(source->Put("a", ToBytes("1")).ok());
  const LogPosition synced = source->Head().position();
  ASSERT_TRUE(source->Put("b", ToBytes("2")).ok());
  Bytes first = *source->ReadLog(synced.generation, 0, synced.length);
  Bytes second = *source->ReadLog(synced.generation, synced.length, 1 << 20);

  auto log = logs.Open("f");
  auto applier = std::make_shared<replica::ReplicaApplier>(log);
  replica::RemoteFollower follower(
      std::make_shared<net::InProcTransport>(applier));
  ASSERT_EQ(*follower.ShipLog({synced.generation, 0}, first), synced);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = std::filesystem::file_size(logs.Path("f"));
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  auto shipped = follower.ShipLog(synced, second);
  auto asked = follower.ShipLog({}, {});
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(shipped.ok());
  EXPECT_FALSE(asked.ok()) << "acked " << asked->length << " bytes";
  EXPECT_FALSE(follower.ShipLog({}, {}).ok());  // until it reopens
  EXPECT_EQ(std::filesystem::file_size(logs.Path("f")), synced.length);
  EXPECT_EQ(logs.Open("f")->Head().position(), synced);
}

TEST(ReplicaApplier, GarbageAndTornFramesChangeNothing) {
  TempLogs logs;
  auto source = logs.Open("source");
  ASSERT_TRUE(source->StartGeneration().ok());
  std::set<uint64_t> boundaries = {source->Head().length};
  ASSERT_TRUE(source->Put("node", ToBytes("abc")).ok());
  boundaries.insert(source->Head().length);
  ASSERT_TRUE(source->Append("node", 3, ToBytes("def")).ok());
  const uint64_t gen = source->Head().generation.id;
  Bytes all = *source->ReadLog(gen, 0, 1 << 20);

  auto log = logs.Open("f");
  auto applier = std::make_shared<replica::ReplicaApplier>(log);
  auto ship = [&](uint64_t offset, BytesView records) {
    return applier
        ->Handle(net::MessageType::kReplicaLog,
                 net::ReplicaLogRequest{0, gen, offset, records}
                     .Encode())
        .status()
        .code();
  };
  ASSERT_EQ(ship(0, BytesView(all).first(all.size() - 4)),
            StatusCode::kDataLoss);  // stops mid-record
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(logs.Bytes("f"), "");
  ASSERT_EQ(ship(0, all), StatusCode::kOk);
  const std::string written = logs.Bytes("f");
  const LogPosition at = log->Head().position();

  std::vector<uint64_t> whole(boundaries.begin(), boundaries.end());
  whole.insert(whole.begin(), 0);
  whole.push_back(all.size());
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    // Seeded garbage behind a run of whole records (perhaps none), and a
    // frame cut inside a record: both refused, at the log's own position
    // and from the start alike, however much of them parsed.
    Bytes garbage(all.begin(), all.begin() + static_cast<ptrdiff_t>(
                                                 whole[rng() % whole.size()]));
    // Where a record's type byte belongs, a byte that is no type.
    garbage.push_back(static_cast<uint8_t>(4 + rng() % 252));
    for (size_t n = rng() % 64; n > 0; --n) {
      garbage.push_back(static_cast<uint8_t>(rng()));
    }
    uint64_t cut = 1 + rng() % (all.size() - 1);
    while (boundaries.contains(cut)) ++cut;  // a cut inside a record
    Bytes torn(all.begin(), all.begin() + static_cast<ptrdiff_t>(cut));
    for (uint64_t offset : {uint64_t{0}, at.length}) {
      EXPECT_EQ(ship(offset, garbage), StatusCode::kDataLoss);
      EXPECT_EQ(ship(offset, torn), StatusCode::kDataLoss);
    }
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_EQ(logs.Bytes("f"), written);
  }
  Bytes orphan;
  orphan.push_back(3);  // an append record
  orphan.push_back(4);
  for (char c : std::string("gone")) orphan.push_back(static_cast<uint8_t>(c));
  orphan.push_back(1);
  orphan.push_back('x');
  EXPECT_EQ(ship(at.length, orphan), StatusCode::kDataLoss);
  EXPECT_EQ(ship(0, orphan), StatusCode::kDataLoss);
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(logs.Bytes("f"), written);
  EXPECT_EQ(ToString(*log->Get("node")), "abcdef");
}

TEST(ReplicaApplier, ReadRefreshesAfterACopyFromTheStart) {
  // A follower copied from another primary's log in place of what it held:
  // its read engine must serve the new history.
  TempLogs logs;
  auto applier = std::make_shared<replica::ReplicaApplier>(logs.Open("f"));
  replica::RemoteFollower follower(
      std::make_shared<net::InProcTransport>(applier));
  auto seed = [&](const std::string& name, uint64_t chunks) {
    // A primary's log holding one stream of `chunks` chunks, copied to the
    // applier from its first byte.
    auto primary_log = logs.Open(name);
    ASSERT_TRUE(primary_log->StartGeneration().ok());
    server::ServerEngine primary(primary_log);
    ASSERT_TRUE(CreatePlainStream(primary, "copied").ok());
    ASSERT_TRUE(InsertPlainChunks(primary, 0, chunks).ok());
    const uint64_t gen = primary_log->Head().generation.id;
    Bytes all = *primary_log->ReadLog(gen, 0, 1 << 20);
    ASSERT_TRUE(follower.ShipLog({gen, 0}, all).ok());
  };
  auto replica_chunks = [&] {
    net::StreamInfoRequest req{42};
    auto resp = applier->Read(net::MessageType::kGetStreamInfo, req.Encode());
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? net::StreamInfoResponse::Decode(*resp)->num_chunks : 0;
  };

  seed("p1", 4);
  EXPECT_EQ(replica_chunks(), 4u);
  seed("p2", 6);
  EXPECT_EQ(replica_chunks(), 6u);
  EXPECT_EQ(applier->full_copies(), 2u);
}

TEST(ReplicaApplier, ReadFollowsACopyWithFewerChunks) {
  // A follower that was ahead of the primary it re-homes under is copied
  // back to a shorter history: its read engine follows the store down.
  TempLogs logs;
  auto applier = std::make_shared<replica::ReplicaApplier>(logs.Open("f"));
  replica::RemoteFollower follower(
      std::make_shared<net::InProcTransport>(applier));
  auto stats = [&](const std::string& name, uint64_t chunks) {
    // Copy a log holding `chunks` chunks of stream 42 to the applier, then
    // read the stream's whole range from it.
    auto primary_log = logs.Open(name);
    EXPECT_TRUE(primary_log->StartGeneration().ok());
    server::ServerEngine primary(primary_log);
    EXPECT_TRUE(CreatePlainStream(primary, "copied").ok());
    EXPECT_TRUE(InsertPlainChunks(primary, 0, chunks).ok());
    const uint64_t gen = primary_log->Head().generation.id;
    EXPECT_TRUE(
        follower.ShipLog({gen, 0}, *primary_log->ReadLog(gen, 0, 1 << 20))
            .ok());
    net::StatRangeRequest req{42, {0, static_cast<Timestamp>(chunks) * kDelta}};
    return applier->Read(net::MessageType::kGetStatRange, req.Encode());
  };

  ASSERT_TRUE(stats("p1", 21).ok());
  auto resp = stats("p2", 6);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto range = net::StatRangeResponse::Decode(*resp);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->last_chunk, 6u);
  auto fields = index::MakePlainCipher(2)->Decrypt(range->aggregate_blob, 0, 6);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<uint64_t>{21, 6}));
  EXPECT_EQ(applier->full_copies(), 2u);
}

TEST(ReplicaWire, RemoteFollowerConvergesThroughApplier) {
  // Follower node: an applier over its local log, reachable through a
  // transport — the multi-process deployment shape, in-proc here.
  TempLogs logs;
  auto follower_log = logs.Open("f");
  ASSERT_TRUE(follower_log->Put("stale", ToBytes("x")).ok());
  auto applier = std::make_shared<replica::ReplicaApplier>(follower_log);
  auto transport = std::make_shared<net::InProcTransport>(applier);

  auto rkv = OpenReplicated(logs.Open("p"));
  ASSERT_TRUE(rkv->Put("pre", ToBytes("1")).ok());
  rkv->AddFollower(std::make_shared<replica::RemoteFollower>(transport),
                   follower_log->Head().position());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->Delete("k7").ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());

  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f", "p"));
  EXPECT_FALSE(follower_log->Contains("stale"));
  EXPECT_EQ(applier->position(), rkv->log()->Head().position());

  // A frame shipped again (a retry after a lost ack) is at a position the
  // log has left: refused, nothing written.
  const uint64_t gen = rkv->log()->Head().generation.id;
  Bytes again = *rkv->log()->ReadLog(gen, 0, 1 << 20);
  net::ReplicaLogRequest replay{0, gen, 1, again};
  EXPECT_EQ(applier->Handle(net::MessageType::kReplicaLog, replay.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(applier->position(), rkv->log()->Head().position());

  // A follower endpoint is not a serving engine.
  EXPECT_FALSE(applier->Handle(net::MessageType::kGetStatRange, {}).ok());
}

/// Transport handler whose target can be swapped — the in-proc stand-in
/// for a follower daemon restarting on the same endpoint.
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

TEST(ReplicaWire, FollowerRestartOverAnEmptyLogIsCopiedFromTheStart) {
  TempLogs logs;
  auto swap = std::make_shared<SwappableHandler>(
      std::make_shared<replica::ReplicaApplier>(logs.Open("f1")));
  auto rkv = OpenReplicated(logs.Open("p"));
  rkv->AddFollower(std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(swap)));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 1u);

  // The follower process "restarts" over an empty log: the next frame is
  // for a position it is not at, the shipper asks, and copies it.
  auto f2 = logs.Open("f2");
  swap->Swap(std::make_shared<replica::ReplicaApplier>(f2));
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(rkv->Put("k" + std::to_string(i), ToBytes("v")).ok());
  }
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_EQ(rkv->full_copies(), 2u);
  ASSERT_TRUE(rkv->Sync().ok());
  EXPECT_TRUE(logs.Same("f2", "p"));
}

// --------------------------------------------------------------- ReplicaSet

struct ReplicatedCluster {
  TempLogs logs;
  std::vector<std::shared_ptr<ReplicaSet>> sets;
  std::shared_ptr<ShardRouter> router;
  std::shared_ptr<net::InProcTransport> transport;

  Status WaitCaughtUp() {
    for (auto& set : sets) TC_RETURN_IF_ERROR(set->WaitCaughtUp());
    return Status::Ok();
  }
};

std::unique_ptr<ReplicatedCluster> MakeReplicatedCluster(
    size_t shards, size_t replicas, AckMode ack,
    uint64_t max_read_lag_bytes = 0) {
  auto c = std::make_unique<ReplicatedCluster>();
  for (size_t i = 0; i < shards; ++i) {
    std::string shard = "s" + std::to_string(i);
    std::vector<std::shared_ptr<LogKvStore>> followers;
    for (size_t j = 0; j < replicas; ++j) {
      followers.push_back(c->logs.Open(shard + "r" + std::to_string(j)));
    }
    server::ServerOptions engine_options;
    engine_options.shard_id = static_cast<uint32_t>(i);
    ReplicaSetOptions options;
    options.kv.ack = ack;
    options.max_read_lag_bytes = max_read_lag_bytes;
    c->sets.push_back(MakeSet(c->logs.Open(shard), std::move(followers),
                              options, engine_options));
  }
  c->router = std::make_shared<ShardRouter>(c->sets);
  c->transport = std::make_shared<net::InProcTransport>(c->router);
  return c;
}

TEST(ReplicaSet, ReadsAreServedByReplicasAndMatchThePrimary) {
  auto c = MakeReplicatedCluster(2, 2, AckMode::kAsync);
  OwnerClient owner(c->transport);
  auto uuid = owner.CreateStream(HeacConfig("replicated"));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 12).ok());
  ASSERT_TRUE(c->WaitCaughtUp().ok());

  for (int round = 0; round < 6; ++round) {
    auto stats = owner.GetStatRange(*uuid, {0, 12 * kDelta});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 12));
    auto points = owner.GetRange(*uuid, {0, 3 * kDelta});
    ASSERT_TRUE(points.ok()) << points.status().ToString();
    EXPECT_EQ(points->size(), 15u);
  }
  size_t shard = c->router->ShardOf(*uuid);
  auto& set = c->sets[shard];
  EXPECT_GT(set->replica_reads(), 0u);
  // Caught-up replicas answer everything; the primary is never consulted.
  EXPECT_EQ(set->primary_reads(), 0u);

  // Streams created after the replicas attached appear on them too (the
  // refresh picks up directory changes, not just appends).
  auto fresh = owner.CreateStream(HeacConfig("late"));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(IngestChunks(owner, *fresh, 0, 4).ok());
  ASSERT_TRUE(c->WaitCaughtUp().ok());
  auto stats = owner.GetStatRange(*fresh, {0, 4 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 4));
  for (size_t i = 0; i < 2; ++i) {
    std::string name = "s" + std::to_string(i);
    EXPECT_TRUE(c->logs.IsPrefix(name + "r0", name));
    EXPECT_TRUE(c->logs.IsPrefix(name + "r1", name));
  }
}

TEST(ReplicaSet, LaggingReplicaIsSkippedUntilCaughtUp) {
  // A directory where the follower's copy file would go fails every copy,
  // as a full disk would: the follower never catches up, and every read
  // falls back to the primary rather than serve a stale replica.
  TempLogs logs;
  auto follower = logs.Open("r0");
  std::filesystem::create_directory(logs.Path("r0") + ".copy");
  auto set = MakeSet(logs.Open("p"), {follower});

  ASSERT_TRUE(CreatePlainStream(*set, "lagging").ok());
  ASSERT_TRUE(InsertPlainChunks(*set, 0, 4).ok());
  net::StatRangeRequest stat{42, {0, 4 * kDelta}};
  auto resp = set->HandleRead(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(set->replica_reads(), 0u);
  EXPECT_GT(set->primary_reads(), 0u);
  EXPECT_GT(set->MaxLagBytes(), 0u);

  // Heal the follower's disk: once caught up, it serves the same answer.
  std::filesystem::remove(logs.Path("r0") + ".copy");
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  auto replica = set->HandleRead(net::MessageType::kGetStatRange,
                                 stat.Encode());
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_GT(set->replica_reads(), 0u);
  EXPECT_EQ(*replica, *resp);
  EXPECT_TRUE(logs.IsPrefix("r0", "p"));
}

TEST(ReplicaSet, WitnessedReadsServeFromReplicas) {
  auto c = MakeReplicatedCluster(1, 1, AckMode::kAsync);
  auto config = PlainConfig("witnessed");
  config.integrity = true;
  net::CreateStreamRequest create{7, config};
  ASSERT_TRUE(
      c->transport->Call(net::MessageType::kCreateStream, create.Encode())
          .ok());
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t ch = 0; ch < 6; ++ch) {
    std::vector<uint64_t> fields{ch, 1};
    Bytes digest = *cipher->Encrypt(fields, ch);
    Bytes payload = ToBytes("sealed" + std::to_string(ch));
    net::InsertChunkBatchRequest req{7, {{ch, digest, payload}}};
    ASSERT_TRUE(
        c->transport->Call(net::MessageType::kInsertChunkBatch, req.Encode())
            .ok());
  }
  ASSERT_TRUE(c->WaitCaughtUp().ok());

  // Proof-less bulk witnessed read (at_size = 0) must come back identical
  // from the replica path and the primary engine directly.
  net::GetChunkWitnessedRequest req{7, 0, 6, 0};
  auto via_router =
      c->transport->Call(net::MessageType::kGetChunkWitnessed, req.Encode());
  ASSERT_TRUE(via_router.ok()) << via_router.status().ToString();
  auto via_primary =
      c->sets[0]->primary()->Handle(net::MessageType::kGetChunkWitnessed,
                                    req.Encode());
  ASSERT_TRUE(via_primary.ok());
  EXPECT_EQ(*via_router, *via_primary);
  EXPECT_GT(c->sets[0]->replica_reads(), 0u);
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
  OwnerClient owner(c->transport);
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
  ASSERT_TRUE(c->WaitCaughtUp().ok());

  // Drop every shard's primary. Writes must fail; replica reads survive.
  // (The failed write is probed at the wire so the owner's client-side
  // retry buffer stays empty for the post-promotion ingest below.)
  for (auto& set : c->sets) ASSERT_TRUE(set->DropPrimary().ok());
  const Bytes probe_digest = ToBytes("digest");
  net::InsertChunkBatchRequest probe{uuids[0], {{10, probe_digest, {}}}};
  EXPECT_EQ(c->transport
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
  for (auto& set : c->sets) {
    ASSERT_TRUE(set->Promote().ok());
    EXPECT_EQ(set->promotions(), 1u);
    EXPECT_EQ(set->num_replicas(), 1u);  // one follower became primary
    // The survivor held all of the promoted log: it resumed, no copy.
    EXPECT_EQ(set->full_copies(), 0u);
  }
  for (size_t s = 0; s < uuids.size(); ++s) {
    net::StreamInfoRequest info_req{uuids[s]};
    auto info_blob = c->transport->Call(net::MessageType::kGetStreamInfo,
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
  ConsumerClient consumer(c->transport, alice);
  auto n = consumer.FetchGrants();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 4);
  auto consumed = consumer.GetStatRange(uuids[1], {0, 10 * kDelta});
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed->stats.Sum().value(), sums[1]);

  // The promoted primaries accept new writes, replicated to the survivor,
  // whose log is a prefix of the promoted one's.
  ASSERT_TRUE(IngestChunks(owner, uuids[0], 10, 2).ok());
  ASSERT_TRUE(c->WaitCaughtUp().ok());
  auto extended = owner.GetStatRange(uuids[0], {0, 12 * kDelta});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->stats.Sum().value(), OracleSum(0, 12));
  for (int s = 0; s < 2; ++s) {
    std::string r0 = "s" + std::to_string(s) + "r0";
    std::string r1 = "s" + std::to_string(s) + "r1";
    EXPECT_TRUE(c->logs.IsPrefix(r0, r1) || c->logs.IsPrefix(r1, r0));
  }
}

TEST(Failover, PromotedFollowerServesFullHistoryAsync) {
  RunFailoverDrill(AckMode::kAsync);
}

TEST(Failover, PromotedFollowerServesFullHistoryQuorum) {
  RunFailoverDrill(AckMode::kQuorum);
}

TEST(Failover, AutoFailoverPromotesWhenPrimaryStoreDies) {
  // Heartbeat probes against a primary store that starts failing must,
  // once they have failed for the takeover window, run the drop+promote
  // sequence without any operator call.
  TempLogs logs;
  auto primary = logs.Open("p");
  ASSERT_TRUE(cluster::BindShardMeta(*primary, 0, 1).ok());
  ReplicaSetOptions options;
  options.failover.heartbeat_ms = 20;
  options.failover.takeover_ms = 40;
  auto set = MakeSet(primary, {logs.Open("r0"), logs.Open("r1")}, options);

  ASSERT_TRUE(CreatePlainStream(*set, "auto").ok());
  ASSERT_TRUE(InsertPlainChunks(*set, 0, 6).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->promotions(), 0u);
  EXPECT_EQ(set->ShardInfoSnapshot(0).auto_failover, 1u);

  // The primary's disk loses its log: the probe's read of the shard layout
  // fails. The monitor must notice and promote; Promote counts the
  // promotion last, once the survivor is attached.
  ASSERT_EQ(::truncate(logs.Path("p").c_str(), 0), 0);
  for (int i = 0; i < 200 && set->promotions() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(set->promotions(), 1u) << "auto-failover did not fire";
  EXPECT_EQ(set->num_replicas(), 1u);

  // The shard serves the full history again — reads and new writes.
  net::StatRangeRequest stat{42, {0, 6 * kDelta}};
  auto resp = set->HandleRead(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(InsertPlainChunks(*set, 6, 1).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_TRUE(logs.IsPrefix("r0", "r1") || logs.IsPrefix("r1", "r0"));
}

TEST(Failover, RemoteFollowersAreReHomedByPromotion) {
  TempLogs logs;
  auto local = logs.Open("l");
  auto set = MakeSet(logs.Open("p"), {local});

  // A socket follower, in-proc: applier behind a transport.
  auto remote_log = logs.Open("remote");
  auto applier = std::make_shared<replica::ReplicaApplier>(remote_log);
  auto remote = [&] {
    return std::make_shared<replica::RemoteFollower>(
        std::make_shared<net::InProcTransport>(applier));
  };
  ASSERT_TRUE(
      set->AddRemoteFollower(remote(), "127.0.0.1:7001", applier->position())
          .ok());
  // Duplicate registration (daemon restart) must not double-ship.
  EXPECT_EQ(
      set->AddRemoteFollower(remote(), "127.0.0.1:7001", applier->position())
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(set->num_remote_followers(), 1u);

  ASSERT_TRUE(CreatePlainStream(*set, "rehome").ok());
  ASSERT_TRUE(InsertPlainChunks(*set, 0, 4).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(applier->position().length, 0u);

  // Failover: the remote follower keeps following the promoted primary,
  // resuming from its own length.
  ASSERT_TRUE(set->DropPrimary().ok());
  ASSERT_TRUE(set->Promote().ok());
  EXPECT_EQ(set->num_remote_followers(), 1u);
  ASSERT_TRUE(InsertPlainChunks(*set, 4, 4).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->full_copies(), 0u);
  ASSERT_TRUE(local->Sync().ok());
  EXPECT_TRUE(logs.Same("remote", "l"));
}

TEST(Failover, QuiescentReRegistrationOverAWipedLogCopiesIt) {
  // A wiped follower registering again on a shard with no write traffic:
  // nothing ships to show the shipper its log is gone, so the position the
  // follower reports must.
  TempLogs logs;
  auto set = MakeSet(logs.Open("p"), {});
  auto f1 = logs.Open("f1");
  auto swap = std::make_shared<SwappableHandler>(
      std::make_shared<replica::ReplicaApplier>(f1));
  auto remote = std::make_shared<replica::RemoteFollower>(
      std::make_shared<net::InProcTransport>(swap));
  ASSERT_TRUE(set->AddRemoteFollower(remote, "127.0.0.1:7002", {}).ok());
  ASSERT_TRUE(CreatePlainStream(*set, "quiescent").ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(f1->Size(), 0u);
  EXPECT_EQ(set->full_copies(), 1u);

  // "Restart" the follower over an empty log; it registers again at (0, 0).
  // No writes follow — the reported position alone must bring the copy.
  auto f2 = logs.Open("f2");
  swap->Swap(std::make_shared<replica::ReplicaApplier>(f2));
  EXPECT_EQ(set->AddRemoteFollower(remote, "127.0.0.1:7002", {}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->full_copies(), 2u);
  EXPECT_TRUE(logs.Same("f2", "f1"));
  // An honest report (where the shipper left it) must not churn.
  EXPECT_EQ(set->AddRemoteFollower(remote, "127.0.0.1:7002",
                                   f2->Head().position())
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_EQ(set->full_copies(), 2u);
}

TEST(Failover, RankCandidatesOrdersByProgressThenLabel) {
  // The most progress first; ties toward the smallest label.
  const std::vector<replica::Candidate> candidates = {
      {"b", 10}, {"c", 30}, {"a", 10}, {"d", 30}, {"e", 0}};
  EXPECT_EQ(replica::RankCandidates(candidates),
            (std::vector<size_t>{1, 3, 2, 0, 4}));
  EXPECT_TRUE(replica::RankCandidates({}).empty());
}

TEST(Failover, PromoteElectsTheMostCaughtUpReplica) {
  // A directory where r0's copy file would go fails every copy, so r0
  // holds nothing while r1 acks every quorum write: the election must pick
  // r1, although r0 comes first.
  TempLogs logs;
  std::filesystem::create_directory(logs.Path("r0") + ".copy");
  ReplicaSetOptions options;
  options.kv.ack = AckMode::kQuorum;
  // Also Promote's wait for the survivors, which r0 cannot meet.
  options.kv.quorum_timeout_ms = 1000;
  auto set =
      MakeSet(logs.Open("p"), {logs.Open("r0"), logs.Open("r1")}, options);

  ASSERT_TRUE(CreatePlainStream(*set, "elected").ok());
  ASSERT_TRUE(InsertPlainChunks(*set, 0, 6).ok());
  ASSERT_TRUE(set->DropPrimary().ok());
  ASSERT_TRUE(set->Promote().ok());
  EXPECT_EQ(set->num_replicas(), 1u);

  // r1 serves every chunk the dead primary held.
  net::StreamInfoRequest info{42};
  auto blob = set->Handle(net::MessageType::kGetStreamInfo, info.Encode());
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(net::StreamInfoResponse::Decode(*blob)->num_chunks, 6u);
  net::StatRangeRequest stat{42, {0, 6 * kDelta}};
  auto resp = set->Handle(net::MessageType::kGetStatRange, stat.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  // Heal r0's disk: the promoted r1 copies its log to r0.
  std::filesystem::remove(logs.Path("r0") + ".copy");
  ASSERT_TRUE(InsertPlainChunks(*set, 6, 1).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  EXPECT_GT(logs.Bytes("r0").size(), 0u);
  EXPECT_TRUE(logs.IsPrefix("r0", "r1"));
}

TEST(Failover, DropAndPromoteGuardrails) {
  auto single = ReplicaSet::Single(std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>()));
  EXPECT_EQ(single->DropPrimary().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(single->Promote().code(), StatusCode::kFailedPrecondition);

  TempLogs logs;
  auto set = MakeSet(logs.Open("p"), {logs.Open("r")});
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
  TempLogs logs;
  auto rkv = OpenReplicated(logs.Open("p"));
  auto follower = logs.Open("f");
  rkv->AddFollower(InProcFollower(follower));
  ASSERT_TRUE(cluster::BindShardMeta(*rkv, 0, 2).ok());
  ASSERT_TRUE(rkv->WaitCaughtUp().ok());
  EXPECT_TRUE(cluster::BindShardMeta(*follower, 0, 2).ok());
  EXPECT_EQ(cluster::BindShardMeta(*follower, 0, 3).code(),
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

}  // namespace
}  // namespace tc
