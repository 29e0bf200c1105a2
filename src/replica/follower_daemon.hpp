// A follower daemon: the process `tcserver --follower-of host:port` runs.
//
// It serves a ReplicaApplier per shard behind the ordinary TcpServer, and
// a background thread drives a small state machine:
//
//   register  — send kReplicaHello to the primary (protocol version, shard
//               id, where its log stands, store fingerprint, and this
//               daemon's dial-back endpoint); retried until the primary
//               answers. The primary then dials back and ships its log from
//               wherever this one matches it: a restart over a durable log
//               resumes, an empty or diverged log is copied from offset 0
//               (into a file beside it, dropped if the daemon restarts
//               before the copy is whole).
//   follow    — write shipped log bytes; serve read-only queries from a
//               local engine refreshed on demand (replica reads without a
//               second process hop); answer heartbeats and remember the
//               group view they carry.
//   take over — when the primary's beacons and shipments have been silent
//               for failover.takeover_ms, rank the last group view with
//               RankCandidates: the most caught-up follower, with the most
//               progress along the primary's log (ties break toward the
//               smallest "host:port"), promotes itself — a full
//               ServerEngine recovery over the replicated log (streams,
//               grants, witness trees) wrapped in a fresh ReplicaSet +
//               PrimaryCoordinator, so the survivors re-home under it and
//               ingest resumes. The others walk the same ranking and
//               re-send kReplicaHello to the first candidate that accepts
//               it; a passive daemon (auto_promote off) skips itself.
//
// Election is view-based, not consensus: every elector ranks the same
// broadcast view (its own entry included), so an ordinary crash yields one
// deterministic winner — but a tail shipped after the final beacon may
// lose the election and be copied away on re-homing (the async contract),
// and with the primary partitioned (rather than dead) both sides could
// serve. These are the documented trade-offs of this reproduction — the
// paper's deployment delegates the same problem to Cassandra's
// coordinator.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/periodic.hpp"
#include "common/thread_annotations.hpp"
#include "net/tcp.hpp"
#include "replica/coordinator.hpp"
#include "replica/replica_set.hpp"
#include "replica/replica_wire.hpp"
#include "server/server_engine.hpp"

namespace tc::replica {

struct FollowerDaemonOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Endpoint the primary dials back (and peers re-home to): must be
  /// reachable from the other nodes.
  std::string advertise_host = "127.0.0.1";
  /// Allow self-promotion. Off = the daemon only ever follows: after a
  /// failover it re-homes under the winner, for drills that want a passive
  /// replica.
  bool auto_promote = true;
  server::ServerOptions engine_options;
  /// Serving stack after promotion (ack mode, read lag). Its failover
  /// knobs apply in both lives: the silence window is takeover_ms, and a
  /// promoted daemon beacons every heartbeat_ms.
  ReplicaSetOptions set_options;
};

class FollowerDaemon {
 public:
  /// One log per shard, laid out exactly like the primary's (same
  /// --shards; shipping copies the layout key and the hello fingerprint
  /// enforces agreement).
  FollowerDaemon(std::vector<std::shared_ptr<store::LogKvStore>> shard_logs,
                 FollowerDaemonOptions options);
  ~FollowerDaemon();

  /// Bind the replication endpoint (0 = ephemeral) and start the state
  /// machine.
  Status Start(uint16_t port);
  void Stop();

  uint16_t port() const { return server_ ? server_->port() : 0; }
  std::string endpoint() const {
    return options_.advertise_host + ":" + std::to_string(port());
  }

  bool registered() const { return registered_.load(); }
  bool promoted() const { return promoted_.load(); }
  /// Where shard `shard`'s log stands.
  store::LogPosition position(uint32_t shard) const;
  /// Frames that copied shard `shard`'s log from offset 0.
  uint64_t full_copies(uint32_t shard) const;
  /// Post-promotion: how many surviving daemons re-homed under this one.
  size_t num_remote_followers() const;
  size_t NumStreams() const;

  Result<Bytes> Handle(net::MessageType type, BytesView body);

 private:
  Result<Bytes> HandleFollowing(net::MessageType type, BytesView body)
      EXCLUDES(view_mu_);
  /// Serve a replica read from its shard's applier.
  Result<Bytes> ServeRead(net::MessageType type, BytesView body);
  /// One kClusterInfo row per shard, from its read engine's snapshot
  /// (which publishes the shard's gauges) and its full copies.
  Result<Bytes> FollowerClusterInfo() const;
  void Touch();
  int64_t MillisSinceContact() const;

  /// The state machine's step, every twentieth of the silence window
  /// (10 to 100 ms).
  void Tick() EXCLUDES(view_mu_);
  /// Send kReplicaHello for every shard to `host:port`. All-or-nothing: on
  /// success it is this daemon's primary.
  Status RegisterTo(const std::string& host, uint16_t port)
      EXCLUDES(view_mu_);
  /// The silence-window election described above.
  void HandleSilence() EXCLUDES(view_mu_, mode_mu_);
  void PromoteSelf() EXCLUDES(mode_mu_);

  /// One per shard: its log, replication endpoint and read engine.
  std::vector<std::unique_ptr<ReplicaApplier>> shards_;
  FollowerDaemonOptions options_;

  std::unique_ptr<net::TcpServer> server_;

  // Mode gate: following (serving_ null) vs promoted (serving_ set).
  // Request handling holds it shared for the whole frame; promotion takes
  // it exclusive to seal replication, then again to install the stack.
  mutable SharedMutex mode_mu_;
  // promotion started: replication frames refused
  bool sealed_ GUARDED_BY(mode_mu_) = false;
  std::shared_ptr<net::RequestHandler> serving_ GUARDED_BY(mode_mu_);
  std::vector<std::shared_ptr<ReplicaSet>> promoted_sets_
      GUARDED_BY(mode_mu_);
  std::shared_ptr<PrimaryCoordinator> promoted_coordinator_
      GUARDED_BY(mode_mu_);

  std::atomic<bool> registered_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<int64_t> last_contact_ms_{0};  // steady-clock ms; 0 = never
  /// Effective silence window: the configured takeover_ms, widened to
  /// ≥ 4 heartbeat intervals once the hello response reveals the primary's
  /// actual beacon cadence.
  std::atomic<int64_t> takeover_ms_;

  mutable Mutex view_mu_;
  /// Latest group view.
  std::vector<net::ReplicaHeartbeatRequest::Peer> view_ GUARDED_BY(view_mu_);
  /// Current registration target; the tick thread retargets it.
  std::string primary_host_ GUARDED_BY(view_mu_);
  uint16_t primary_port_ GUARDED_BY(view_mu_) = 0;
  std::set<std::string> suspected_dead_ GUARDED_BY(view_mu_);
  /// Consecutive "alive but not a primary" probe results per candidate;
  /// three strikes demotes it to suspected_dead_ so an election can never
  /// livelock on a peer that refuses to promote.
  std::map<std::string, uint32_t> not_ready_counts_ GUARDED_BY(view_mu_);

  // Runs Tick from Start to Stop.
  std::unique_ptr<PeriodicThread> ticker_;
};

}  // namespace tc::replica
