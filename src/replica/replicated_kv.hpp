// Per-shard KV replication: the primary's log, shipped as bytes.
//
// The paper's deployment inherits fault tolerance and read scaling from
// Cassandra's replication underneath stateless TimeCrypt nodes (§4.6); our
// self-built KV layer has neither, so this module adds them at the same
// seam. Everything a TimeCrypt server stores is ciphertext and encrypted
// digests — the server is untrusted end-to-end — so replicating its state
// to more untrusted nodes is pure systems work with no security surface.
//
// Model: a ReplicatedKvStore writes to one primary LogKvStore and ships
// that log's bytes, as PostgreSQL's streaming replication ships WAL, to N
// followers, each holding a LogKvStore of its own. A follower writes what
// it is shipped at its log end, so its log is always a byte prefix of its
// primary's: following, catching up from any length, and recovering from
// a restart are one path. Positions are (generation, length) pairs (see
// store::LogGeneration). Opening a log as a replicated writer starts a new
// generation, and so does Compact. A follower resumes from its length when
// its log is in the primary's generation and no longer than the primary's
// log, or in the generation that one replaced and no longer than the
// offset where it began (Raft's log-matching rule). Any other follower is
// copied from offset 0 by the same frames, into a file beside its log that
// replaces the log only once it holds the record that started the
// primary's generation (a compacted log's last): until then the follower
// keeps its log, and what it acked still counts. The shipper holds one
// frame of at most kLogFrameBytes at a time, so neither side ever holds a
// copy of the store in memory.
//
// Quorums, lag and elections compare followers by progress
// (store::LogHead::progress): bytes of the primary's log, where a log
// still in the generation a Compact replaced ranks below every log that
// holds the compacted one.
//
// Ack modes:
//   kAsync  — a write returns once the primary's log holds it; followers
//             drain in the background (lowest latency, newest writes at
//             risk if the primary dies before shipping).
//   kQuorum — a write blocks until a majority of the replica group
//             (primary + N followers) holds it, i.e. until (N+1)/2
//             followers acked a length that covers the end of its record.
//             Semi-sync: a write that times out waiting is reported
//             Unavailable even though the primary holds it.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "store/forwarding_kv.hpp"
#include "store/log_kv.hpp"

namespace tc::replica {

enum class AckMode : uint8_t { kAsync = 0, kQuorum = 1 };

std::string_view AckModeName(AckMode mode);

/// The most log bytes one kReplicaLog frame carries; a record larger than
/// this ships alone.
inline constexpr size_t kLogFrameBytes = size_t{1} << 20;

/// The key cluster::BindShardMeta persists a store's shard layout under
/// (shard id and shard count).
inline constexpr char kShardMetaKey[] = "meta/cluster/shard";

/// Fingerprint of a store's persisted shard layout (kShardMetaKey):
/// 0 for a store that has never been bound. The hello handshake compares
/// fingerprints so a follower formatted for a different cluster shape is
/// rejected instead of silently copied into the wrong shard.
uint64_t StoreFingerprint(const store::KvStore& kv);

/// Where shipped log bytes land: a RemoteFollower, whose transport reaches
/// a ReplicaApplier in this process or in a follower daemon (tests put
/// fakes in between). Calls arrive from one shipper thread at a time.
class Follower {
 public:
  virtual ~Follower() = default;

  /// Write `records` (whole records of the primary's log) at the
  /// follower's log position `at`, as store::LogKvStore::AppendLog does,
  /// and return the follower's position once they are durable. Empty
  /// `records` only ask for the position.
  virtual Result<store::LogPosition> ShipLog(store::LogPosition at,
                                             BytesView records) = 0;
};

struct ReplicatedKvOptions {
  AckMode ack = AckMode::kAsync;
  /// Quorum mode: how long a writer waits for follower acks before giving
  /// up with Unavailable.
  int64_t quorum_timeout_ms = 10'000;
};

/// KvStore decorator: writes go to the primary's log, which ships to the
/// followers. Reads (Get/Contains/Scan/Size/ValueBytes/Sync/Compaction)
/// pass straight to the primary — replica reads are routed above this layer
/// (ReplicaSet), where engine state can be refreshed to match the follower
/// store.
class ReplicatedKvStore final : public store::ForwardingKvStore {
 public:
  /// Become the writer of `log`: starts a new generation in it.
  static Result<std::shared_ptr<ReplicatedKvStore>> Open(
      std::shared_ptr<store::LogKvStore> log,
      ReplicatedKvOptions options = {});
  ~ReplicatedKvStore() override;

  /// Register a follower and start shipping to it. Its log may hold
  /// anything: nothing, a prefix of this one, or a diverged ex-peer's.
  /// `at` is its position if known (else the shipper asks). Returns its
  /// index for the per-follower accessors.
  size_t AddFollower(std::shared_ptr<Follower> follower,
                     std::optional<store::LogPosition> at = std::nullopt);
  /// Follower i says its log stands at `at` (a daemon registering again
  /// after a restart, which dropped any copy it was writing). The shipper
  /// takes its word: on a shard with no writes nothing else would show a
  /// wiped store.
  void ReportPosition(size_t i, store::LogPosition at);

  // KvStore writes; every other call is ForwardingKvStore's.
  Status Put(const std::string& key, BytesView value) override;
  Status Delete(const std::string& key) override;
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;

  /// The primary's log.
  const std::shared_ptr<store::LogKvStore>& log() const { return log_; }
  /// Follower i's progress (see the file comment): 0 until it acks, and
  /// for a log outside the primary's history.
  uint64_t follower_bytes(size_t i) const;
  /// Widest lag across followers, in bytes of progress behind the
  /// primary's (0 with no followers).
  uint64_t MaxLagBytes() const;
  /// Times a follower's log was copied from offset 0.
  uint64_t full_copies() const { return full_copies_.load(); }
  /// Follower i's most recent shipping failure; OK while healthy (and again
  /// once a retry succeeds). The "why is this follower lagging" signal.
  Status follower_error(size_t i) const;

  /// Block until every follower holds the whole log as of the call (or
  /// `timeout_ms` passes → Unavailable). Promotion and tests use this to
  /// drain the async pipeline.
  Status WaitCaughtUp(int64_t timeout_ms = 30'000);

 private:
  // The fields are guarded by the outer mu_ — an attribute cannot say so
  // across the nesting boundary, so every function touching them carries
  // REQUIRES(mu_) instead (the annotation convention for nested state).
  struct FollowerState {
    std::shared_ptr<Follower> follower;  // set before the thread starts
    std::thread thread;
    /// Where the follower last said its log stands (nullopt until it
    /// says). Its acked bytes count toward quorums and elections even
    /// while `stale` or copying: they were synced.
    std::optional<store::LogPosition> at;
    /// Where the copy of the primary's log beside the follower's stands,
    /// while one is being written.
    std::optional<store::LogPosition> copy;
    /// A shipment failed and may or may not have landed, or the follower
    /// restarted: ask where its log stands before shipping again.
    bool stale = false;
    Status last_error;
    uint64_t consecutive_failures = 0;  // drives backoff
  };

  ReplicatedKvStore(std::shared_ptr<store::LogKvStore> log,
                    ReplicatedKvOptions options);

  /// Wake the shippers for a write that returned `written`, and in quorum
  /// mode wait until a majority holds the log as of its return.
  Status Shipped(Status written) EXCLUDES(mu_);
  void ShipperLoop(FollowerState* state) EXCLUDES(mu_);
  /// What one frame did: the follower's position after it, and whether
  /// that is a copy's (the follower's log has not changed).
  struct Shipment {
    store::LogPosition at;
    bool copying = false;
  };
  /// One frame to the follower at `at` (with a copy at `copy`), or a
  /// position query when `at` is nullopt, with mu_ released.
  Result<Shipment> ShipOnce(FollowerState* state,
                            std::optional<store::LogPosition> at,
                            std::optional<store::LogPosition> copy)
      EXCLUDES(mu_);
  /// Record a shipping failure and sleep out its backoff (under mu_, which
  /// the wait releases). Logs the first failure, then every 64th — a dead
  /// follower must not flood the log at retry frequency.
  void BackoffAfterFailure(FollowerState* state, Status error) REQUIRES(mu_);
  /// Bytes of `head`'s log a follower at `at` holds, or nullopt when its
  /// log is not a prefix of it and must be copied from the start.
  static std::optional<uint64_t> HeldBytes(
      const std::optional<store::LogPosition>& at,
      const store::LogHead& head);
  /// The progress of a log at `at`, measured against `head`: the bytes of
  /// `head`'s log it holds plus what `head`'s generation replaced, or for
  /// a log in the parent generation, the bytes of it `head`'s history
  /// shares. 0 for any other log.
  static uint64_t Progress(const std::optional<store::LogPosition>& at,
                           const store::LogHead& head);
  /// Followers holding the primary's log as of `target`. A follower
  /// holds it if its progress reaches `target`'s, or, when `target` is
  /// older than the primary's last two generations, the primary's head.
  size_t CountHolding(const store::LogHead& target) const REQUIRES(mu_);
  /// Wait until `needed` followers hold `target` or `deadline` passes.
  bool WaitHolding(store::LogHead target, size_t needed,
                   std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu_);

  const std::shared_ptr<store::LogKvStore> log_;
  const ReplicatedKvOptions options_;

  mutable Mutex mu_;
  CondVar work_cv_;  // shipper wakeup: new bytes or stop
  CondVar ack_cv_;   // writer wakeup: follower progress
  std::atomic<uint64_t> full_copies_{0};
  // Trace context of the most recent writer, re-stamped by shippers so
  // follower spans join the originating ingest's trace.
  std::atomic<uint64_t> ship_trace_id_{0};
  std::atomic<uint64_t> ship_parent_span_{0};
  bool stop_ GUARDED_BY(mu_) = false;
  // Shipper threads self-register here; vector only grows (AddFollower),
  // entries are stable (unique_ptr).
  std::vector<std::unique_ptr<FollowerState>> followers_ GUARDED_BY(mu_);
};

}  // namespace tc::replica
