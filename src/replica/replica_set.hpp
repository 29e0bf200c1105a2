// One shard's replica group: a primary ServerEngine over a
// ReplicatedKvStore, plus a ReplicaApplier per follower log that writes
// what ships and serves reads.
//
// Write-path messages go to the primary; its log ships to the followers
// underneath. Read-only messages can be served by a follower: the
// applier's read engine (stream registry, index append positions, witness
// trees, node caches) is refreshed on demand when the applier has written
// records the engine has not seen yet. A replica serves a read only while
// its lag, in bytes of the primary's log, is within the configured bound;
// any replica-side failure (e.g. a mid-mutation prefix the refresh landed
// on) falls back to the next replica and finally the primary, so replica
// reads are an optimization, never a correctness risk.
//
// Every follower is shipped to through a RemoteFollower. A local replica's
// transport is an InProcTransport to an applier in this process (serving
// reads as above); a remote one reaches a follower daemon behind a socket,
// which serves its own reads in its own process. Remote registrations
// survive failover: Promote() re-homes them under the new primary
// alongside the surviving local replicas.
//
// Failover: DropPrimary() severs the primary (the process-kill stand-in);
// Promote() elects the most caught-up local follower (RankCandidates: the
// most progress along the dead primary's log), starts a new generation in
// its log, rebuilds a full engine over it (streams, grants, witness trees
// all recover from the replicated state), and ships the rest of the
// followers from it: each resumes from its own length if its log is a
// prefix of the promoted one, and is copied from the start otherwise.
// Whenever the set has local replicas, a monitor probes the primary store
// every failover.heartbeat_ms and runs the drop+promote sequence itself
// once every probe for failover.takeover_ms has failed. In quorum mode
// every acknowledged write survives this by construction; in async mode
// the shipping pipeline must be drained (WaitCaughtUp) before the drop, or
// the unshipped tail is lost with the primary — exactly the
// async-replication contract.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/periodic.hpp"
#include "common/thread_annotations.hpp"
#include "replica/replica_wire.hpp"
#include "replica/replicated_kv.hpp"
#include "server/server_engine.hpp"

namespace tc::replica {

/// The two failover knobs every party reads. A primary's coordinator
/// beacons to its follower daemons every heartbeat_ms, and a daemon elects
/// once it has heard nothing for takeover_ms. A ReplicaSet with local
/// replicas probes its primary store every heartbeat_ms and promotes once
/// the probes have failed for takeover_ms.
struct FailoverOptions {
  int64_t heartbeat_ms = 500;
  int64_t takeover_ms = 3000;
};

/// A failover candidate: a local replica, labeled by its log's path, or a
/// follower daemon, labeled by its "host:port"; and its progress along the
/// dead primary's log.
struct Candidate {
  std::string label;
  uint64_t progress = 0;
};

/// The order an election tries `candidates` in, as indices into it: the
/// most progress first, ties toward the smallest label. Electors ranking
/// the same list pick the same winner.
std::vector<size_t> RankCandidates(const std::vector<Candidate>& candidates);

struct ReplicaSetOptions {
  /// Replication knobs; `kv.ack` selects async vs quorum ingest.
  ReplicatedKvOptions kv;
  /// A replica may serve reads while it lags the primary's log by at most
  /// this many bytes. 0 = only fully caught-up replicas.
  uint64_t max_read_lag_bytes = 0;
  FailoverOptions failover;
};

class ReplicaSet final : public net::RequestHandler {
 public:
  /// Replication-less shard: wraps an existing engine; reads and writes
  /// both hit it, and failover APIs report FailedPrecondition.
  static std::shared_ptr<ReplicaSet> Single(
      std::shared_ptr<server::ServerEngine> engine);

  /// Replicated shard: the primary engine is built over `primary_log`
  /// opened by a ReplicatedKvStore shipping to one in-process
  /// ReplicaApplier per follower log, which also serves its reads. An
  /// empty follower list is valid — the shard is then replication-capable but
  /// follower-less until remote daemons register.
  static Result<std::shared_ptr<ReplicaSet>> Make(
      std::shared_ptr<store::LogKvStore> primary_log,
      std::vector<std::shared_ptr<store::LogKvStore>> follower_logs,
      server::ServerOptions engine_options, ReplicaSetOptions options);

  ~ReplicaSet() override;

  /// Write path (and anything stateful): the primary engine.
  Result<Bytes> Handle(net::MessageType type, BytesView body) override
      EXCLUDES(state_mu_);

  /// Read path: round-robin over in-bound replicas with primary fallback.
  Result<Bytes> HandleRead(net::MessageType type, BytesView body)
      EXCLUDES(state_mu_);

  /// Register a socket-backed follower (a daemon's RemoteFollower) under
  /// `label` (its "host:port" endpoint), whose log stands at `at`. Labels
  /// are unique: a known label returns AlreadyExists — its shipper redials
  /// on its own — after comparing `at` with where the shipper last saw the
  /// follower, and positioning it again if they differ (a daemon that
  /// restarted over a wiped store). Fails on a replication-less shard.
  Status AddRemoteFollower(std::shared_ptr<Follower> follower,
                           std::string label, store::LogPosition at);

  // ----------------------------------------------------------- failover
  /// Sever the primary (engine + replication pipeline) without killing the
  /// process — the testable stand-in for primary loss. Unshipped async ops
  /// are lost, as they would be with the real machine.
  Status DropPrimary() EXCLUDES(state_mu_);
  /// Elect the first local follower by RankCandidates as the new primary.
  /// Blocks reads for the duration; on return the shard serves the
  /// promoted history and remote followers are re-homed under it.
  Status Promote() EXCLUDES(state_mu_);

  // ------------------------------------------------------ introspection
  std::shared_ptr<server::ServerEngine> primary() const;
  /// The primary's backing store (null for Single() or while dropped) —
  /// the hello handshake fingerprints it.
  std::shared_ptr<store::KvStore> primary_kv() const;
  size_t num_replicas() const;
  size_t num_remote_followers() const;
  /// (label, progress along the primary's log) of every remote follower —
  /// the heartbeat group view the coordinator broadcasts.
  std::vector<std::pair<std::string, uint64_t>> RemoteFollowerBytes() const;
  AckMode ack_mode() const { return options_.kv.ack; }
  /// Length of the primary's log (0 for Single() or while dropped).
  uint64_t log_end() const;
  uint64_t MaxLagBytes() const;
  /// This set's kClusterInfo row, reported as shard `shard`. Also publishes
  /// the replication health values as shard-labeled gauges
  /// (tc_replica_lag_bytes, tc_replica_promotions, ...) so the wire
  /// response and the Prometheus exposition share a single source.
  net::ClusterInfoResponse::ShardInfo ShardInfoSnapshot(uint32_t shard) const;
  /// Times a follower's log was copied from its start.
  uint64_t full_copies() const;
  /// Compaction pressure of the primary's backing store (zeros while the
  /// primary is dropped or the store is not log-structured).
  store::KvStore::CompactionStats StoreCompaction() const;
  size_t NumStreams() const;
  uint64_t TotalIndexBytes() const;
  size_t promotions() const;
  uint64_t replica_reads() const { return replica_reads_.load(); }
  uint64_t primary_reads() const { return primary_reads_.load(); }
  uint64_t read_fallbacks() const { return read_fallbacks_.load(); }

  /// Drain the shipping pipeline (no-op without replicas).
  Status WaitCaughtUp(int64_t timeout_ms = 30'000);

 private:
  ReplicaSet() = default;

  struct Replica {
    /// Owns the follower store and its read engine.
    std::shared_ptr<ReplicaApplier> applier;
    /// This replica's follower index inside the current rkv_. Re-assigned
    /// whenever the shipping pipeline is rebuilt (promotion) — never assume
    /// it equals the replica's position in replicas_.
    size_t rkv_index = 0;
    /// Bytes of the dropped primary's log it held at DropPrimary (serves
    /// the headless window and elects); meaningless while rkv_ is live.
    uint64_t final_bytes = 0;
  };

  struct RemoteEntry {
    std::shared_ptr<Follower> follower;
    std::string label;
    size_t rkv_index = 0;
  };

  /// Reset the read rotation for the current membership (the round-robin
  /// cursor restarts at slot 0). Must run under state_mu_ exclusive —
  /// every membership change (construction, drop, promotion) goes through
  /// here together with the replicas_/rkv_index updates, so no reader
  /// ever rotates over a departed or promoted node.
  void ResetRotationLocked() REQUIRES(state_mu_);
  /// Make `log` the primary's: open it as the replicated writer (a new
  /// generation), ship it to every local replica holding another log and
  /// to every remote follower, and recover the primary engine over it.
  Status LeadLocked(std::shared_ptr<store::LogKvStore> log)
      REQUIRES(state_mu_);
  /// The monitor's body: one probe of the primary store, and the
  /// drop+promote sequence once the probes have failed for takeover_ms.
  void ProbePrimary() EXCLUDES(state_mu_);

  // Guards the topology (primary_/rkv_/replicas_/remotes_). Request
  // handling holds it shared; DropPrimary/Promote hold it exclusive, so
  // no read or write runs mid-failover.
  mutable SharedMutex state_mu_;
  std::shared_ptr<server::ServerEngine> primary_ GUARDED_BY(state_mu_);
  std::shared_ptr<ReplicatedKvStore> rkv_ GUARDED_BY(state_mu_);  // null for Single()
  std::vector<Replica> replicas_ GUARDED_BY(state_mu_);
  std::vector<RemoteEntry> remotes_ GUARDED_BY(state_mu_);
  bool dropped_ GUARDED_BY(state_mu_) = false;
  // most final_bytes at drop: all acked writes
  uint64_t final_head_ GUARDED_BY(state_mu_) = 0;
  size_t promotions_ GUARDED_BY(state_mu_) = 0;

  server::ServerOptions engine_options_;
  ReplicaSetOptions options_;

  std::atomic<uint64_t> rr_{0};
  std::atomic<uint64_t> replica_reads_{0};
  std::atomic<uint64_t> primary_reads_{0};
  std::atomic<uint64_t> read_fallbacks_{0};

  // When the primary store's current run of failed probes began; the
  // monitor thread's alone.
  std::optional<std::chrono::steady_clock::time_point> failing_since_;
  // Runs ProbePrimary; null without local replicas.
  std::unique_ptr<PeriodicThread> monitor_;
};

}  // namespace tc::replica
