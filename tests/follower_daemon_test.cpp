// Follower-daemon topology tests: a primary process plus follower daemons
// over loopback TCP. An empty daemon's log must be copied from the
// primary's first byte, shipping must keep daemons' logs byte prefixes of
// the primary's, a daemon restarting over its own log must be shipped only
// what it lacks (a wiped one is copied again), a version mismatch must be
// refused by name, and killing the primary must trigger the view-based
// takeover election: the most caught-up daemon promotes itself with
// streams, grants, and witness state intact, and the survivors re-home
// under it.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "crypto/rand.hpp"
#include "net/metrics_http.hpp"
#include "replica/coordinator.hpp"
#include "replica/follower_daemon.hpp"
#include "replica/replica_set.hpp"
#include "net/tcp.hpp"
#include "store/mem_kv.hpp"
#include "temp_logs.hpp"
#include "tests/support/helpers.hpp"

namespace tc {
namespace {

using client::ConsumerClient;
using client::OwnerClient;
using client::Principal;
using replica::FollowerDaemon;
using replica::FollowerDaemonOptions;
using replica::PrimaryCoordinator;
using replica::ReplicaSet;
using testing::HeacConfig;
using testing::HttpGet;
using testing::IngestChunks;
using testing::kDelta;
using testing::OracleSum;
using testing::TempLogs;

Result<std::shared_ptr<net::Transport>> Dial(uint16_t port) {
  auto client = net::TcpClient::Connect("127.0.0.1", port);
  TC_RETURN_IF_ERROR(client.status());
  return std::shared_ptr<net::Transport>(std::move(*client));
}

bool PollUntil(const std::function<bool()>& done, int64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return done();
}

std::shared_ptr<ReplicaSet> MakeSet(std::shared_ptr<store::LogKvStore> log,
                                    server::ServerOptions engine = {}) {
  auto set = ReplicaSet::Make(std::move(log), {}, engine,
                              replica::ReplicaSetOptions{});
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return set.ok() ? *set : nullptr;
}

/// Bytes shipped by every primary in this process so far.
uint64_t ShippedBytes() {
  return metrics::GetCounter("tc_replica_shipped_bytes_total").value();
}

FollowerDaemonOptions DaemonOptions(uint16_t primary_port) {
  FollowerDaemonOptions options;
  options.primary_host = "127.0.0.1";
  options.primary_port = primary_port;
  options.set_options.failover.heartbeat_ms = 150;
  options.set_options.failover.takeover_ms = 1500;  // ~10 primary heartbeats
  return options;
}

// The acceptance drill: primary + two follower daemons over loopback TCP,
// copies of their empty logs, primary killed, automatic promotion, reads
// (streams, grants, witnesses) intact, survivors re-homed.
TEST(FollowerDaemonE2E, AutoPromotionServesFullStateAfterPrimaryDeath) {
  // Primary: one replication-capable shard.
  TempLogs logs;
  auto set = MakeSet(logs.Open("p"));
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  replica::FailoverOptions failover;
  failover.heartbeat_ms = 150;
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets, failover);
  auto server = std::make_unique<net::TcpServer>(coordinator, 0);
  ASSERT_TRUE(server->Start().ok());

  // Pre-failure state: two streams (one witnessed), a grant, real payloads.
  auto primary_transport = Dial(server->port());
  ASSERT_TRUE(primary_transport.ok());
  OwnerClient owner(*primary_transport);
  Principal alice{"alice", crypto::GenerateBoxKeyPair()};
  auto plain = owner.CreateStream(HeacConfig("daemon-plain", false));
  ASSERT_TRUE(plain.ok());
  auto witnessed = owner.CreateStream(HeacConfig("daemon-witnessed", true));
  ASSERT_TRUE(witnessed.ok());
  ASSERT_TRUE(IngestChunks(owner, *plain, 0, 12).ok());
  ASSERT_TRUE(IngestChunks(owner, *witnessed, 0, 12).ok());
  ASSERT_TRUE(owner
                  .GrantAccess(*plain, alice.id, alice.keys.public_key,
                               {0, 12 * kDelta}, 1)
                  .ok());
  crypto::Key128 plain_seed = (*owner.KeysFor(*plain))->master_seed();
  crypto::Key128 witnessed_seed = (*owner.KeysFor(*witnessed))->master_seed();

  // Two follower daemons register over TCP; their empty logs are copied
  // from the primary's first byte.
  FollowerDaemon f1({logs.Open("f1")}, DaemonOptions(server->port()));
  FollowerDaemon f2({logs.Open("f2")}, DaemonOptions(server->port()));
  ASSERT_TRUE(f1.Start(0).ok());
  ASSERT_TRUE(f2.Start(0).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->num_remote_followers() == 2 && set->MaxLagBytes() == 0 &&
               set->full_copies() >= 2;
      },
      30'000))
      << "daemons did not register and catch up";
  EXPECT_EQ(set->full_copies(), 2u);
  EXPECT_EQ(f1.full_copies(0), 1u);
  EXPECT_EQ(f2.full_copies(0), 1u);

  // Live shipping after the copies.
  ASSERT_TRUE(IngestChunks(owner, *plain, 12, 2).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  int64_t plain_sum = OracleSum(0, 14);
  int64_t witnessed_sum = OracleSum(0, 12);

  // Follower daemons serve reads locally while following; writes are
  // refused. (Copies over the wire too: cluster-info on a daemon reports
  // the copy it received.)
  {
    auto follower_transport = Dial(f1.port());
    ASSERT_TRUE(follower_transport.ok());
    OwnerClient follower_reader(*follower_transport);
    ASSERT_TRUE(follower_reader.AttachStream(*plain, plain_seed).ok());
    auto stats = follower_reader.GetStatRange(*plain, {0, 14 * kDelta});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), plain_sum);
    const Bytes digest = ToBytes("digest");
    net::InsertChunkBatchRequest probe{*plain, {{99, digest, {}}}};
    EXPECT_EQ((*follower_transport)
                  ->Call(net::MessageType::kInsertChunkBatch, probe.Encode())
                  .status()
                  .code(),
              StatusCode::kUnavailable);
    auto info_blob =
        (*follower_transport)->Call(net::MessageType::kClusterInfo, {});
    ASSERT_TRUE(info_blob.ok());
    auto info = net::ClusterInfoResponse::Decode(*info_blob);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->shards.size(), 1u);
    EXPECT_EQ(info->shards[0].full_copies, 1u);
  }

  // Capture a witnessed read for byte-identical comparison after failover.
  net::GetChunkWitnessedRequest witness_req{*witnessed, 0, 12, 0};
  auto witness_before = (*primary_transport)
                            ->Call(net::MessageType::kGetChunkWitnessed,
                                   witness_req.Encode());
  ASSERT_TRUE(witness_before.ok());

  // Let a couple of heartbeats broadcast the settled group view, so both
  // daemons elect from identical (applied, endpoint) tuples.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // Kill the primary process: heartbeats, shippers, and the serving socket
  // all go silent at once.
  coordinator.reset();
  server.reset();
  router.reset();
  sets.clear();
  set.reset();

  // The takeover election: both daemons are equally caught up, so the
  // smaller endpoint (same host, lower port) must win.
  FollowerDaemon& winner = f1.port() < f2.port() ? f1 : f2;
  FollowerDaemon& loser = f1.port() < f2.port() ? f2 : f1;
  ASSERT_TRUE(PollUntil([&] { return winner.promoted(); }, 30'000))
      << "no daemon promoted after primary death";

  // The survivor re-homes under the promoted daemon instead of promoting.
  ASSERT_TRUE(PollUntil([&] { return winner.num_remote_followers() == 1; },
                        30'000));
  EXPECT_FALSE(loser.promoted());

  // Reads continue against the promoted daemon with full state: decrypted
  // sums, raw ranges, sealed grants, and the witness tree.
  auto promoted_transport = Dial(winner.port());
  ASSERT_TRUE(promoted_transport.ok());
  OwnerClient promoted_owner(*promoted_transport);
  ASSERT_TRUE(promoted_owner.AttachStream(*plain, plain_seed).ok());
  ASSERT_TRUE(promoted_owner.AttachStream(*witnessed, witnessed_seed).ok());
  auto stats = promoted_owner.GetStatRange(*plain, {0, 14 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), plain_sum);
  auto wstats = promoted_owner.GetStatRange(*witnessed, {0, 12 * kDelta});
  ASSERT_TRUE(wstats.ok());
  EXPECT_EQ(wstats->stats.Sum().value(), witnessed_sum);
  auto points = promoted_owner.GetRange(*plain, {0, 3 * kDelta});
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 15u);

  ConsumerClient consumer(*promoted_transport, alice);
  auto grants = consumer.FetchGrants();
  ASSERT_TRUE(grants.ok()) << grants.status().ToString();
  EXPECT_EQ(*grants, 1);
  auto consumed = consumer.GetStatRange(*plain, {0, 12 * kDelta});
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed->stats.Sum().value(), OracleSum(0, 12));

  auto witness_after = (*promoted_transport)
                           ->Call(net::MessageType::kGetChunkWitnessed,
                                  witness_req.Encode());
  ASSERT_TRUE(witness_after.ok());
  EXPECT_EQ(*witness_after, *witness_before);

  // The promoted daemon is a real primary: it accepts writes and ships
  // them to the re-homed survivor, whose local reads converge.
  ASSERT_TRUE(IngestChunks(promoted_owner, *plain, 14, 2).ok());
  int64_t extended_sum = OracleSum(0, 16);
  auto extended = promoted_owner.GetStatRange(*plain, {0, 16 * kDelta});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->stats.Sum().value(), extended_sum);
  const std::string winner_log = &winner == &f1 ? "f1" : "f2";
  const std::string loser_log = &loser == &f1 ? "f1" : "f2";
  ASSERT_TRUE(PollUntil(
      [&] {
        auto survivor_transport = Dial(loser.port());
        if (!survivor_transport.ok()) return false;
        OwnerClient survivor_reader(*survivor_transport);
        if (!survivor_reader.AttachStream(*plain, plain_seed).ok()) {
          return false;
        }
        auto s = survivor_reader.GetStatRange(*plain, {0, 16 * kDelta});
        return s.ok() && s->stats.Sum().value() == extended_sum;
      },
      30'000))
      << "survivor never converged on the post-failover writes";
  // The survivor held all of the winner's log and resumed from its length:
  // its log is a prefix of the winner's, as the winner's was of the dead
  // primary's.
  EXPECT_TRUE(logs.IsPrefix(loser_log, winner_log));
  EXPECT_EQ(loser.full_copies(0), 1u);

  // The election left an audit trail: the promoted daemon's event journal
  // (kEventsInfo over the same port clients use) must show the takeover
  // election, the self-promotion decision, and its completion in that
  // order. Seqs are assigned at Record() time, so ordering by seq is the
  // causal order within this process.
  auto events_blob = (*promoted_transport)
                         ->Call(net::MessageType::kEventsInfo,
                                net::EventsInfoRequest{0}.Encode());
  ASSERT_TRUE(events_blob.ok()) << events_blob.status().ToString();
  auto events = net::EventsInfoResponse::Decode(*events_blob);
  ASSERT_TRUE(events.ok());
  // Only the winner records self_promotion; anchor on it, because the
  // process-global journal also holds the loser's takeover_election
  // (both daemons see the silence) which may land after the winner's.
  uint64_t promotion_seq = 0;
  for (const auto& e : events->events) {
    if (e.kind == "self_promotion") promotion_seq = e.seq;
  }
  ASSERT_GT(promotion_seq, 0u) << "no self_promotion event journaled";
  bool election_before = false, complete_after = false;
  for (const auto& e : events->events) {
    if (e.kind == "takeover_election" && e.seq < promotion_seq) {
      election_before = true;
    }
    if (e.kind == "promotion_complete" && e.seq > promotion_seq) {
      complete_after = true;
    }
  }
  EXPECT_TRUE(election_before)
      << "no takeover_election journaled before the self_promotion";
  EXPECT_TRUE(complete_after)
      << "no promotion_complete journaled after the self_promotion";

  f1.Stop();
  f2.Stop();
}

/// Two loopback ports nobody listens on right now, the smaller endpoint
/// ("127.0.0.1:port", as elections compare them) first.
std::pair<uint16_t, uint16_t> FreePorts() {
  int fds[2];
  uint16_t ports[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    fds[i] = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fds[i] >= 0 &&
        ::bind(fds[i], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0 &&
        ::getsockname(fds[i], reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      ports[i] = ntohs(addr.sin_port);
    }
  }
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  if (std::to_string(ports[1]) < std::to_string(ports[0])) {
    std::swap(ports[0], ports[1]);
  }
  return {ports[0], ports[1]};
}

// A passive daemon (auto_promote off) is not orphaned by a failover: it
// walks the same ranking as the daemon that promotes, skips itself, and
// re-homes under the winner, which then ships it its new generation.
TEST(FollowerDaemonE2E, PassiveDaemonReHomesUnderTheWinner) {
  TempLogs logs;
  auto set = MakeSet(logs.Open("p"));
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  replica::FailoverOptions failover;
  failover.heartbeat_ms = 150;
  auto coordinator = std::make_shared<PrimaryCoordinator>(
      std::make_shared<cluster::ShardRouter>(sets), sets, failover);
  auto server = std::make_unique<net::TcpServer>(coordinator, 0);
  ASSERT_TRUE(server->Start().ok());
  auto transport = Dial(server->port());
  ASSERT_TRUE(transport.ok());
  OwnerClient owner(*transport);
  auto uuid = owner.CreateStream(HeacConfig("passive", false));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 8).ok());
  crypto::Key128 seed = (*owner.KeysFor(*uuid))->master_seed();

  // Both daemons end equally caught up, so the smaller endpoint ranks
  // first: give it to the daemon that promotes.
  auto [first, second] = FreePorts();
  ASSERT_NE(first, 0);
  ASSERT_NE(second, 0);
  FollowerDaemon active({logs.Open("active")}, DaemonOptions(server->port()));
  auto passive_options = DaemonOptions(server->port());
  passive_options.auto_promote = false;
  FollowerDaemon passive({logs.Open("passive")}, passive_options);
  ASSERT_TRUE(active.Start(first).ok());
  ASSERT_TRUE(passive.Start(second).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->num_remote_followers() == 2 && set->MaxLagBytes() == 0;
      },
      30'000))
      << "daemons did not register and catch up";
  // Let a couple of heartbeats broadcast the settled group view.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  coordinator.reset();
  server.reset();
  sets.clear();
  set.reset();

  ASSERT_TRUE(PollUntil([&] { return active.promoted(); }, 30'000))
      << "the active daemon did not promote";
  ASSERT_TRUE(PollUntil(
      [&] {
        return active.num_remote_followers() == 1 && passive.registered();
      },
      30'000))
      << "the passive daemon never re-homed under the winner";
  EXPECT_FALSE(passive.promoted());

  // A write on the winner ships to the passive daemon, whose log reaches
  // the winner's new generation.
  auto promoted_transport = Dial(active.port());
  ASSERT_TRUE(promoted_transport.ok());
  OwnerClient promoted_owner(*promoted_transport);
  ASSERT_TRUE(promoted_owner.AttachStream(*uuid, seed).ok());
  ASSERT_TRUE(IngestChunks(promoted_owner, *uuid, 8, 2).ok());
  ASSERT_TRUE(PollUntil(
      [&] { return passive.position(0) == active.position(0); }, 30'000))
      << "the passive daemon never caught up with the winner";
  EXPECT_TRUE(logs.IsPrefix("passive", "active"));

  active.Stop();
  passive.Stop();
}

/// A primary behind a coordinator on a loopback port, holding `chunks`
/// chunks of one stream, and the daemons' logs beside its own.
struct Primary {
  TempLogs logs;
  std::shared_ptr<store::LogKvStore> log = logs.Open("p");
  std::shared_ptr<ReplicaSet> set;
  std::shared_ptr<PrimaryCoordinator> coordinator;
  std::unique_ptr<net::TcpServer> server;
  std::shared_ptr<net::Transport> transport;
  std::unique_ptr<OwnerClient> owner;
  uint64_t uuid = 0;

  explicit Primary(uint64_t chunks) {
    set = MakeSet(log);
    std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
    coordinator = std::make_shared<PrimaryCoordinator>(
        std::make_shared<cluster::ShardRouter>(sets), sets,
        replica::FailoverOptions{});
    server = std::make_unique<net::TcpServer>(coordinator, 0);
    EXPECT_TRUE(server->Start().ok());
    transport = *Dial(server->port());
    owner = std::make_unique<OwnerClient>(transport);
    uuid = *owner->CreateStream(HeacConfig("restarts", false));
    EXPECT_TRUE(IngestChunks(*owner, uuid, 0, chunks).ok());
  }
  ~Primary() { server->Stop(); }

  /// A passive daemon (it never takes over) over log `name`, on `port`.
  std::unique_ptr<FollowerDaemon> StartDaemon(const std::string& name,
                                              uint16_t port = 0) {
    auto options = DaemonOptions(server->port());
    options.auto_promote = false;
    auto daemon = std::make_unique<FollowerDaemon>(
        std::vector<std::shared_ptr<store::LogKvStore>>{logs.Open(name)},
        options);
    EXPECT_TRUE(daemon->Start(port).ok());
    return daemon;
  }

  /// True once `daemon` holds the primary's whole log.
  bool CaughtUp(const FollowerDaemon& daemon) const {
    return set->num_remote_followers() == 1 && set->MaxLagBytes() == 0 &&
           daemon.position(0) == log->Head().position();
  }

  /// Waits for `daemon` to catch up, then checks what replication keeps:
  /// its log file is a prefix of the primary's, and a replica read on it
  /// answers what the primary answers.
  void ExpectConverged(const FollowerDaemon& daemon, const std::string& name,
                       uint64_t chunks) {
    ASSERT_TRUE(PollUntil([&] { return CaughtUp(daemon); }, 30'000))
        << "daemon never caught up";
    EXPECT_TRUE(logs.IsPrefix(name, "p"));
    auto daemon_transport = Dial(daemon.port());
    ASSERT_TRUE(daemon_transport.ok());
    OwnerClient reader(*daemon_transport);
    ASSERT_TRUE(
        reader.AttachStream(uuid, (*owner->KeysFor(uuid))->master_seed())
            .ok());
    const TimeRange all{0, static_cast<Timestamp>(chunks) * kDelta};
    auto stats = reader.GetStatRange(uuid, all);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, chunks));
    net::StatRangeRequest req{uuid, all};
    auto on_daemon =
        (*daemon_transport)->Call(net::MessageType::kGetStatRange, req.Encode());
    auto on_primary =
        transport->Call(net::MessageType::kGetStatRange, req.Encode());
    ASSERT_TRUE(on_daemon.ok() && on_primary.ok());
    EXPECT_EQ(*on_daemon, *on_primary);
  }
};

// A daemon restarting over its own durable log resumes: it is shipped only
// the bytes the primary wrote while it was down, and nothing is copied.
TEST(FollowerDaemonE2E, RestartOverItsOwnLogResumesWithoutACopy) {
  Primary primary(20);
  auto daemon = primary.StartDaemon("d");
  uint16_t port = daemon->port();
  primary.ExpectConverged(*daemon, "d", 20);
  EXPECT_EQ(primary.set->full_copies(), 1u);  // it started empty
  const uint64_t held = daemon->position(0).length;

  daemon->Stop();
  daemon.reset();
  ASSERT_TRUE(IngestChunks(*primary.owner, primary.uuid, 20, 10).ok());
  const uint64_t shipped_before = ShippedBytes();
  auto restarted = primary.StartDaemon("d", port);
  primary.ExpectConverged(*restarted, "d", 30);
  EXPECT_EQ(primary.set->full_copies(), 1u);
  EXPECT_EQ(restarted->full_copies(0), 0u);
  EXPECT_EQ(ShippedBytes() - shipped_before,
            primary.log->Head().length - held);
  restarted->Stop();
}

// A daemon restarting over an empty log (its disk was replaced) reports
// length 0 and is copied from the primary's first byte.
TEST(FollowerDaemonE2E, RestartOverAnEmptyLogIsCopiedFromTheStart) {
  Primary primary(20);
  auto daemon = primary.StartDaemon("d");
  uint16_t port = daemon->port();
  primary.ExpectConverged(*daemon, "d", 20);
  daemon->Stop();
  daemon.reset();

  auto restarted = primary.StartDaemon("wiped", port);
  primary.ExpectConverged(*restarted, "wiped", 20);
  EXPECT_EQ(primary.set->full_copies(), 2u);
  EXPECT_EQ(restarted->full_copies(0), 1u);
  EXPECT_EQ(primary.logs.Bytes("wiped"), primary.logs.Bytes("d"));
  restarted->Stop();
}

// A daemon killed partway through its first copy holds the frames that
// landed, a prefix of the primary's log: restarted over it, the copy
// resumes where it stopped.
TEST(FollowerDaemonE2E, DaemonKilledMidCopyCopiesAgainOnRestart) {
  // A daemon killed mid-copy leaves the copy's file beside its log, which
  // the copy had not replaced yet. On restart its log is what it was
  // (empty here) and the unfinished copy is dropped: it is copied again.
  Primary primary(30);
  const store::LogHead head = primary.log->Head();
  auto landed =
      primary.log->ReadLog(head.generation.id, 0, head.length / 2);
  ASSERT_TRUE(landed.ok());
  ASSERT_GT(landed->size(), 0u);
  ASSERT_LT(landed->size(), head.length);
  {
    std::ofstream copy(primary.logs.Path("d") + ".copy", std::ios::binary);
    copy.write(reinterpret_cast<const char*>(landed->data()),
               static_cast<std::streamsize>(landed->size()));
  }

  auto daemon = primary.StartDaemon("d");
  primary.ExpectConverged(*daemon, "d", 30);
  EXPECT_EQ(primary.set->full_copies(), 1u);
  EXPECT_EQ(daemon->full_copies(0), 1u);
  daemon->Stop();
}

TEST(FollowerDaemonE2E, HelloHandshakeValidation) {
  TempLogs logs;
  // A replication-less shard refuses followers with a pointed message.
  auto single = ReplicaSet::Single(std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>()));
  std::vector<std::shared_ptr<ReplicaSet>> sets = {single};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  PrimaryCoordinator coordinator(router, sets, {});

  net::ReplicaHelloRequest hello;
  hello.shard = 0;
  hello.host = "127.0.0.1";
  hello.port = 4434;
  EXPECT_EQ(coordinator.Handle(net::MessageType::kReplicaHello, hello.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // A follower speaking another protocol version is refused before the
  // rest of its hello is read, and told both versions.
  auto replicated = MakeSet(logs.Open("p"));
  std::vector<std::shared_ptr<ReplicaSet>> rsets = {replicated};
  auto rrouter = std::make_shared<cluster::ShardRouter>(rsets);
  PrimaryCoordinator rcoordinator(rrouter, rsets, {});
  hello.version = net::kReplicaProtocolVersion + 1;
  auto refused =
      rcoordinator.Handle(net::MessageType::kReplicaHello, hello.Encode());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("version 3"), std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("version 2"), std::string::npos)
      << refused.status().ToString();
  hello.version = net::kReplicaProtocolVersion;

  // Out-of-range shard ids are rejected outright.
  hello.shard = 7;
  EXPECT_EQ(rcoordinator
                .Handle(net::MessageType::kReplicaHello, hello.Encode())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Shard-count gate: an empty follower (fingerprint 0) started with the
  // wrong --shards would replicate and serve the wrong stream subset.
  hello.shard = 0;
  hello.num_shards = 2;
  EXPECT_EQ(rcoordinator
                .Handle(net::MessageType::kReplicaHello, hello.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  hello.num_shards = 1;

  // Fingerprint gate: a follower whose store is laid out for a different
  // cluster shape is refused; an empty store (fingerprint 0) is welcome.
  ASSERT_TRUE(
      cluster::BindShardMeta(*replicated->primary_kv(), 0, 1).ok());
  store::MemKvStore foreign;
  ASSERT_TRUE(cluster::BindShardMeta(foreign, 0, 4).ok());
  hello.shard = 0;
  hello.store_fingerprint = replica::StoreFingerprint(foreign);
  EXPECT_EQ(rcoordinator
                .Handle(net::MessageType::kReplicaHello, hello.Encode())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  hello.store_fingerprint = 0;
  auto accepted =
      rcoordinator.Handle(net::MessageType::kReplicaHello, hello.Encode());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  auto response = net::ReplicaHelloResponse::Decode(*accepted);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response->heartbeat_ms, 0u);
  EXPECT_EQ(replicated->num_remote_followers(), 1u);
}

// The follower-daemon process exposes the same Prometheus endpoint as a
// primary — scrape it after a real copy + shipping cycle and assert the
// replica apply-path counters actually moved.
TEST(FollowerDaemonE2E, MetricsScrapeExposesReplicaCounters) {
  TempLogs logs;
  auto set = MakeSet(logs.Open("p"));
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets,
                                           replica::FailoverOptions{});
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());

  // Real data exists before the daemon registers, so its empty log is
  // copied with real bytes.
  auto transport = Dial(server.port());
  ASSERT_TRUE(transport.ok());
  OwnerClient owner(*transport);
  auto uuid = owner.CreateStream(HeacConfig("scrape-me", false));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 4).ok());

  FollowerDaemon daemon({logs.Open("d")}, DaemonOptions(server.port()));
  ASSERT_TRUE(daemon.Start(0).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->num_remote_followers() == 1 && set->MaxLagBytes() == 0;
      },
      30'000));

  // In-process equivalent of tcserver's --metrics-port: same registry the
  // daemon's apply path writes into. The pre-collect hook mirrors the
  // primary-mode wiring that refreshes shard-derived gauges (lag).
  net::MetricsHttpServer metrics_http(0, [&] { set->ShardInfoSnapshot(0); });
  ASSERT_TRUE(metrics_http.Start().ok());
  std::string body = HttpGet(metrics_http.port(), "/metrics");
  ASSERT_FALSE(body.empty());

  // One row per family the replica path must have touched, plus the build
  // stamp every process exports.
  for (const char* row :
       {"tc_replica_full_copies_total", "tc_replica_shipped_bytes_total",
        "tc_replica_frame_bytes", "tc_replica_lag_bytes",
        "tc_net_rx_frames_total",
        "tc_build_info{version=\"8\",sanitizer=\""}) {
    EXPECT_NE(body.find(row), std::string::npos) << "missing row: " << row;
  }

  // The copy counter is a real count, not a registered-but-zero row: the
  // daemon's registration forced at least one copy. Anchor to line start
  // so the match is the sample, not its # HELP line.
  auto pos = body.find("\ntc_replica_full_copies_total ");
  ASSERT_NE(pos, std::string::npos);
  double copies = std::strtod(
      body.c_str() + pos + std::strlen("\ntc_replica_full_copies_total "),
      nullptr);
  EXPECT_GE(copies, 1.0);

  daemon.Stop();
}

// A follower that stops answering heartbeats is journaled once, when it
// goes dark: the coordinator backs its redials off and keeps failing them,
// but the journal records the transition, not every failed round.
TEST(FollowerDaemonE2E, UnreachableFollowerIsJournaledOnce) {
  TempLogs logs;
  auto set = MakeSet(logs.Open("p"));
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  replica::FailoverOptions failover;
  failover.heartbeat_ms = 50;
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets, failover);
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());

  // Count only this test's events: earlier tests share the journal.
  auto journaled = trace::EventJournal::Instance().Snapshot();
  uint64_t first_seq = journaled.empty() ? 0 : journaled.back().seq + 1;

  FollowerDaemon daemon({logs.Open("d")}, DaemonOptions(server.port()));
  ASSERT_TRUE(daemon.Start(0).ok());
  ASSERT_TRUE(PollUntil([&] { return set->num_remote_followers() == 1; },
                        30'000));
  const std::string endpoint = daemon.endpoint();
  daemon.Stop();

  auto unreachable = [&] {
    size_t n = 0;
    for (const auto& event :
         trace::EventJournal::Instance().Snapshot(first_seq)) {
      if (event.kind == "follower_unreachable" && event.detail == endpoint) {
        ++n;
      }
    }
    return n;
  };
  ASSERT_TRUE(PollUntil([&] { return unreachable() >= 1; }, 30'000));
  EXPECT_EQ(unreachable(), 1u);

  // Twenty more rounds: the backed-off redials (after 2, then 4 more
  // rounds) fail too, and none of them is journaled.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(20 * failover.heartbeat_ms));
  EXPECT_EQ(unreachable(), 1u);
}

// The tentpole acceptance drill: one client trace id must stitch the
// router's dispatch span, engine spans on two different shards, and the
// follower daemon's apply span into a single tree — the propagation chain
// crosses the TCP frame header, the router's scatter executor hop, and the
// async log-shipping hop.
TEST(FollowerDaemonE2E, TraceStitchesRouterShardsAndFollowerUnderOneId) {
  trace::SetSamplePercent(100);

  // Two replication-capable shards behind one router, one daemon
  // mirroring both.
  TempLogs logs;
  server::ServerOptions engine0;
  engine0.shard_id = 0;
  server::ServerOptions engine1;
  engine1.shard_id = 1;
  auto s0 = MakeSet(logs.Open("p0"), engine0);
  auto s1 = MakeSet(logs.Open("p1"), engine1);
  std::vector<std::shared_ptr<ReplicaSet>> sets = {s0, s1};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets,
                                           replica::FailoverOptions{});
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());
  FollowerDaemon daemon({logs.Open("d0"), logs.Open("d1")},
                        DaemonOptions(server.port()));
  ASSERT_TRUE(daemon.Start(0).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return s0->num_remote_followers() == 1 &&
               s1->num_remote_followers() == 1;
      },
      30'000));

  auto transport = Dial(server.port());
  ASSERT_TRUE(transport.ok());
  OwnerClient owner(*transport);

  // Everything the client does below carries this trace id in the frame
  // header; high bits far outside the (conn_serial << 32) | request_id
  // space derived traces live in. Both ids are drawn fresh, so a repeated
  // run does not collect the spans of an earlier one.
  const auto fresh_trace_id = [] {
    return 0xfeed000000000000ull | (crypto::RandomU64() >> 16);
  };
  const uint64_t ingest_trace = fresh_trace_id();
  metrics::SetCurrentTraceContext({ingest_trace, 0});

  // One stream pinned (by creation retry) to each shard.
  uint64_t on_shard[2] = {0, 0};
  for (int attempt = 0; attempt < 64 && (!on_shard[0] || !on_shard[1]);
       ++attempt) {
    auto uuid = owner.CreateStream(
        HeacConfig("pin-" + std::to_string(attempt), false));
    ASSERT_TRUE(uuid.ok());
    on_shard[router->ShardOf(*uuid)] = *uuid;
  }
  ASSERT_TRUE(on_shard[0] && on_shard[1])
      << "could not place streams on both shards";
  ASSERT_TRUE(IngestChunks(owner, on_shard[0], 0, 4).ok());
  ASSERT_TRUE(IngestChunks(owner, on_shard[1], 0, 4).ok());
  metrics::SetCurrentTraceContext({});
  ASSERT_TRUE(s0->WaitCaughtUp().ok());
  ASSERT_TRUE(s1->WaitCaughtUp().ok());

  // A genuinely scattered read under a second trace id: MultiStatRange
  // over streams on different shards fans out through the shard channels.
  const uint64_t query_trace = fresh_trace_id();
  metrics::SetCurrentTraceContext({query_trace, 0});
  net::MultiStatRangeRequest multi{{on_shard[0], on_shard[1]},
                                   {0, 4 * kDelta}};
  auto scattered =
      (*transport)->Call(net::MessageType::kMultiStatRange, multi.Encode());
  metrics::SetCurrentTraceContext({});
  ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();

  auto fetch = [&](uint64_t trace_id) {
    net::TraceInfoRequest req{trace_id, 0};
    auto blob =
        (*transport)->Call(net::MessageType::kTraceInfo, req.Encode());
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    auto info = net::TraceInfoResponse::Decode(*blob);
    EXPECT_TRUE(info.ok());
    return info->spans;
  };

  // The scatter trace: exactly one root (the router dispatch the client's
  // frame header parented at 0), with direct children on both shards.
  auto query_spans = fetch(query_trace);
  ASSERT_FALSE(query_spans.empty());
  std::set<uint64_t> ids;
  for (const auto& s : query_spans) {
    EXPECT_EQ(s.trace_id, query_trace);
    ids.insert(s.span_id);
  }
  const net::TraceInfoResponse::Span* root = nullptr;
  size_t roots = 0;
  for (const auto& s : query_spans) {
    if (s.parent_span_id == 0 || !ids.count(s.parent_span_id)) {
      ++roots;
      root = &s;
    }
  }
  ASSERT_EQ(roots, 1u) << "scatter trace did not stitch into one tree";
  EXPECT_EQ(root->op, "router_dispatch");
  std::set<uint32_t> child_shards;
  for (const auto& s : query_spans) {
    if (s.parent_span_id == root->span_id) child_shards.insert(s.shard);
  }
  EXPECT_TRUE(child_shards.count(0) && child_shards.count(1))
      << "router dispatch did not parent spans on both shards";

  // The ingest trace: the daemon's replica_apply spans adopted the shipped
  // context — same trace id as the client's inserts, parented under a
  // primary-side span that is itself in the trace.
  auto ingest_spans = fetch(ingest_trace);
  std::set<uint64_t> ingest_ids;
  for (const auto& s : ingest_spans) ingest_ids.insert(s.span_id);
  std::set<uint32_t> apply_shards;
  size_t applies_with_live_parent = 0;
  for (const auto& s : ingest_spans) {
    if (s.op != "replica_apply") continue;
    apply_shards.insert(s.shard);
    if (s.parent_span_id != 0 && ingest_ids.count(s.parent_span_id)) {
      ++applies_with_live_parent;
    }
  }
  EXPECT_TRUE(apply_shards.count(0) && apply_shards.count(1))
      << "log shipping did not carry the trace to both follower shards";
  EXPECT_GT(applies_with_live_parent, 0u)
      << "no follower apply stitched under a primary-side span";

  daemon.Stop();
}

}  // namespace
}  // namespace tc
