// Follower-daemon topology tests: a primary process plus follower daemons
// over loopback TCP. Registration must stream snapshot catch-up in bounded
// chunks (never one full-store frame), op shipping must keep daemons
// converged, killing a daemon mid-snapshot must heal by re-seeding, and
// killing the primary must trigger the view-based takeover election: the
// most-caught-up daemon promotes itself with streams, grants, and witness
// state intact, and the survivors re-home under it.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "cluster/shard_router.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/metrics_http.hpp"
#include "replica/coordinator.hpp"
#include "replica/follower_daemon.hpp"
#include "replica/replica_set.hpp"
#include "net/tcp.hpp"
#include "store/forwarding_kv.hpp"
#include "store/mem_kv.hpp"

namespace tc {
namespace {

using client::ConsumerClient;
using client::OwnerClient;
using client::Principal;
using replica::FollowerDaemon;
using replica::FollowerDaemonOptions;
using replica::PrimaryCoordinator;
using replica::ReplicaSet;

constexpr DurationMs kDelta = 10 * kSecond;

net::StreamConfig HeacConfig(const std::string& name, bool integrity) {
  net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema.with_sum = true;
  c.schema.with_count = true;
  c.cipher = net::CipherKind::kHeac;
  c.fanout = 4;
  c.integrity = integrity;
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

std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

FollowerDaemonOptions DaemonOptions(uint16_t primary_port) {
  FollowerDaemonOptions options;
  options.primary_host = "127.0.0.1";
  options.primary_port = primary_port;
  options.tick_ms = 25;
  options.takeover_timeout_ms = 1500;  // ~10 primary heartbeats
  options.coordinator.heartbeat_ms = 150;
  return options;
}

// The acceptance drill: primary + two follower daemons over loopback TCP,
// chunked snapshot catch-up, primary killed, automatic promotion, reads
// (streams, grants, witnesses) intact, survivors re-homed.
TEST(FollowerDaemonE2E, AutoPromotionServesFullStateAfterPrimaryDeath) {
  // Primary: one replication-capable shard, snapshot chunks forced small so
  // catch-up must stream many frames.
  replica::ReplicaSetOptions set_options;
  set_options.kv.snapshot_chunk_bytes = 512;
  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {}, {},
                              set_options);
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  replica::CoordinatorOptions coordinator_options;
  coordinator_options.heartbeat_ms = 150;
  auto coordinator = std::make_shared<PrimaryCoordinator>(router, sets,
                                                          coordinator_options);
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

  // Two follower daemons register over TCP and get streamed the snapshot.
  FollowerDaemon f1({std::make_shared<store::MemKvStore>()},
                    DaemonOptions(server->port()));
  FollowerDaemon f2({std::make_shared<store::MemKvStore>()},
                    DaemonOptions(server->port()));
  ASSERT_TRUE(f1.Start(0).ok());
  ASSERT_TRUE(f2.Start(0).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->num_remote_followers() == 2 && set->MaxLagOps() == 0 &&
               set->snapshots_shipped() >= 2;
      },
      30'000))
      << "daemons did not register and catch up";

  // Catch-up was chunked: strictly more chunk frames than snapshots, and
  // the daemons saw multiple chunks each — never one full-store frame.
  EXPECT_GT(set->snapshot_chunks_shipped(), set->snapshots_shipped());
  EXPECT_GT(f1.snapshot_chunks_received(0), 1u);
  EXPECT_GT(f2.snapshot_chunks_received(0), 1u);

  // Live op shipping after the snapshot.
  ASSERT_TRUE(IngestChunks(owner, *plain, 12, 2).ok());
  ASSERT_TRUE(set->WaitCaughtUp().ok());
  int64_t plain_sum = OracleSum(0, 14);
  int64_t witnessed_sum = OracleSum(0, 12);

  // Follower daemons serve reads locally while following; writes are
  // refused. (Chunk counters over the wire too: cluster-info on a daemon
  // reports the streamed chunks.)
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
    EXPECT_GT(info->shards[0].snapshot_chunks, 1u);
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

/// A store that fails every write after its first `allowed` ones until the
/// test releases it: a snapshot stream into it stops, still open, at entry
/// `allowed`, however fast the shipper runs.
class WriteGateKvStore final : public store::ForwardingKvStore {
 public:
  WriteGateKvStore(std::shared_ptr<store::KvStore> inner, uint64_t allowed)
      : ForwardingKvStore(std::move(inner)), allowed_(allowed) {}

  Status Put(const std::string& key, BytesView value) override {
    TC_RETURN_IF_ERROR(Gate());
    return ForwardingKvStore::Put(key, value);
  }
  Status Delete(const std::string& key) override {
    TC_RETURN_IF_ERROR(Gate());
    return ForwardingKvStore::Delete(key);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    TC_RETURN_IF_ERROR(Gate());
    return ForwardingKvStore::Append(key, expected_size, suffix);
  }

  void Release() { released_.store(true); }

 private:
  Status Gate() {
    if (released_.load() || writes_.fetch_add(1) < allowed_) {
      return Status::Ok();
    }
    return Unavailable("write gate closed");
  }

  const uint64_t allowed_;
  std::atomic<uint64_t> writes_{0};
  std::atomic<bool> released_{false};
};

// The satellite drill: kill a follower daemon mid-snapshot, restart it on
// the same endpoint over the surviving store, and verify catch-up heals.
TEST(FollowerDaemonE2E, DaemonKilledMidSnapshotHealsOnRestart) {
  replica::ReplicaSetOptions set_options;
  set_options.kv.snapshot_chunk_entries = 1;  // one entry per chunk frame
  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {}, {},
                              set_options);
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator = std::make_shared<PrimaryCoordinator>(router, sets,
                                                          replica::CoordinatorOptions{});
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());

  auto transport = Dial(server.port());
  ASSERT_TRUE(transport.ok());
  OwnerClient owner(*transport);
  auto uuid = owner.CreateStream(HeacConfig("mid-snapshot", false));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 30).ok());

  // The daemon's store takes the first three snapshot entries, then fails
  // every write: the one-entry chunk stream stays open, retried by the
  // shipper, until the test releases the store.
  auto follower_store = std::make_shared<WriteGateKvStore>(
      std::make_shared<store::MemKvStore>(), 3);
  auto options = DaemonOptions(server.port());
  options.auto_promote = false;  // a passive replica: never takes over
  auto daemon = std::make_unique<FollowerDaemon>(
      std::vector<std::shared_ptr<store::KvStore>>{follower_store}, options);
  ASSERT_TRUE(daemon->Start(0).ok());
  uint16_t daemon_port = daemon->port();
  ASSERT_TRUE(PollUntil(
      [&] { return daemon->snapshot_chunks_received(0) >= 3; }, 30'000))
      << "snapshot stream never started";
  ASSERT_TRUE(daemon->snapshot_in_progress(0));

  // Kill it mid-stream. The shipper's in-flight chunk fails; it backs off
  // and retries against the same endpoint.
  daemon->Stop();
  daemon.reset();
  follower_store->Release();

  // Restart on the same endpoint over the surviving store. The fresh
  // applier has no open session, so the re-seed streams from entry 0 and
  // must converge (the persisted applied seq is still pre-snapshot).
  auto restarted = std::make_unique<FollowerDaemon>(
      std::vector<std::shared_ptr<store::KvStore>>{follower_store}, options);
  ASSERT_TRUE(restarted->Start(daemon_port).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->MaxLagOps() == 0 && set->num_remote_followers() == 1 &&
               restarted->applied_seq(0) == set->head_seq() &&
               set->head_seq() > 0;
      },
      30'000))
      << "restarted daemon never caught up";

  // Converged for real: the daemon serves the same decrypted aggregate.
  auto daemon_transport = Dial(restarted->port());
  ASSERT_TRUE(daemon_transport.ok());
  OwnerClient reader(*daemon_transport);
  crypto::Key128 seed = (*owner.KeysFor(*uuid))->master_seed();
  ASSERT_TRUE(reader.AttachStream(*uuid, seed).ok());
  auto stats = reader.GetStatRange(*uuid, {0, 30 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), OracleSum(0, 30));

  restarted->Stop();
  server.Stop();
}

TEST(FollowerDaemonE2E, HelloHandshakeValidation) {
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

  // Out-of-range shard ids are rejected outright.
  auto replicated = ReplicaSet::Make(std::make_shared<store::MemKvStore>(),
                                     {}, {}, {});
  std::vector<std::shared_ptr<ReplicaSet>> rsets = {replicated};
  auto rrouter = std::make_shared<cluster::ShardRouter>(rsets);
  PrimaryCoordinator rcoordinator(rrouter, rsets, {});
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

// Satellite: the follower-daemon process exposes the same Prometheus
// endpoint as a primary — scrape it after a real snapshot + op-ship cycle
// and assert the replica apply-path counters actually moved.
TEST(FollowerDaemonE2E, MetricsScrapeExposesReplicaCounters) {
  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {}, {},
                              replica::ReplicaSetOptions{});
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets,
                                           replica::CoordinatorOptions{});
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());

  // Real data exists before the daemon registers, so registration must
  // ship an actual snapshot (not just start op shipping from seq 0).
  auto transport = Dial(server.port());
  ASSERT_TRUE(transport.ok());
  OwnerClient owner(*transport);
  auto uuid = owner.CreateStream(HeacConfig("scrape-me", false));
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(IngestChunks(owner, *uuid, 0, 4).ok());

  FollowerDaemon daemon({std::make_shared<store::MemKvStore>()},
                        DaemonOptions(server.port()));
  ASSERT_TRUE(daemon.Start(0).ok());
  ASSERT_TRUE(PollUntil(
      [&] {
        return set->num_remote_followers() == 1 && set->MaxLagOps() == 0;
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
       {"tc_replica_snapshots_total", "tc_replica_ship_batch_ops",
        "tc_replica_lag_ops", "tc_net_rx_frames_total",
        "tc_build_info{version=\"8\",sanitizer=\""}) {
    EXPECT_NE(body.find(row), std::string::npos) << "missing row: " << row;
  }

  // The snapshot counter is a real count, not a registered-but-zero row:
  // the daemon's registration forced at least one snapshot ship. Anchor
  // to line start so the match is the sample, not its # HELP line.
  auto pos = body.find("\ntc_replica_snapshots_total ");
  ASSERT_NE(pos, std::string::npos);
  double shipped = std::strtod(
      body.c_str() + pos + std::strlen("\ntc_replica_snapshots_total "),
      nullptr);
  EXPECT_GE(shipped, 1.0);

  daemon.Stop();
}

// A follower that stops answering heartbeats is journaled once, when it
// goes dark: the coordinator backs its redials off and keeps failing them,
// but the journal records the transition, not every failed round.
TEST(FollowerDaemonE2E, UnreachableFollowerIsJournaledOnce) {
  auto set = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {}, {},
                              replica::ReplicaSetOptions{});
  std::vector<std::shared_ptr<ReplicaSet>> sets = {set};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  replica::CoordinatorOptions coordinator_options;
  coordinator_options.heartbeat_ms = 50;
  auto coordinator = std::make_shared<PrimaryCoordinator>(
      router, sets, coordinator_options);
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());

  // Count only this test's events: earlier tests share the journal.
  auto journaled = trace::EventJournal::Instance().Snapshot();
  uint64_t first_seq = journaled.empty() ? 0 : journaled.back().seq + 1;

  FollowerDaemon daemon({std::make_shared<store::MemKvStore>()},
                        DaemonOptions(server.port()));
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
      std::chrono::milliseconds(20 * coordinator_options.heartbeat_ms));
  EXPECT_EQ(unreachable(), 1u);
}

// The tentpole acceptance drill: one client trace id must stitch the
// router's dispatch span, engine spans on two different shards, and the
// follower daemon's apply span into a single tree — the propagation chain
// crosses the TCP frame header, the router's scatter executor hop, and the
// async op-shipping hop.
TEST(FollowerDaemonE2E, TraceStitchesRouterShardsAndFollowerUnderOneId) {
  trace::SetSamplePercent(100);

  // Two replication-capable shards behind one router, one daemon
  // mirroring both.
  server::ServerOptions engine0;
  engine0.shard_id = 0;
  server::ServerOptions engine1;
  engine1.shard_id = 1;
  auto s0 = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {},
                             engine0, replica::ReplicaSetOptions{});
  auto s1 = ReplicaSet::Make(std::make_shared<store::MemKvStore>(), {},
                             engine1, replica::ReplicaSetOptions{});
  std::vector<std::shared_ptr<ReplicaSet>> sets = {s0, s1};
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator =
      std::make_shared<PrimaryCoordinator>(router, sets,
                                           replica::CoordinatorOptions{});
  net::TcpServer server(coordinator, 0);
  ASSERT_TRUE(server.Start().ok());
  FollowerDaemon daemon({std::make_shared<store::MemKvStore>(),
                         std::make_shared<store::MemKvStore>()},
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
  // space derived traces live in.
  constexpr uint64_t kIngestTrace = 0xfeed0001dead0001ull;
  metrics::SetCurrentTraceContext({kIngestTrace, 0});

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
  constexpr uint64_t kQueryTrace = 0xfeed0002dead0002ull;
  metrics::SetCurrentTraceContext({kQueryTrace, 0});
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
  auto query_spans = fetch(kQueryTrace);
  ASSERT_FALSE(query_spans.empty());
  std::set<uint64_t> ids;
  for (const auto& s : query_spans) {
    EXPECT_EQ(s.trace_id, kQueryTrace);
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
  auto ingest_spans = fetch(kIngestTrace);
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
      << "op shipping did not carry the trace to both follower shards";
  EXPECT_GT(applies_with_live_parent, 0u)
      << "no follower apply stitched under a primary-side span";

  daemon.Stop();
}

}  // namespace
}  // namespace tc
