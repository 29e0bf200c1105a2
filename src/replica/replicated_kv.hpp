// Per-shard KV replication: log shipping with streaming snapshot catch-up.
//
// The paper's deployment inherits fault tolerance and read scaling from
// Cassandra's replication underneath stateless TimeCrypt nodes (§4.6); our
// self-built KV layer has neither, so this module adds them at the same
// seam. Everything a TimeCrypt server stores is ciphertext and encrypted
// digests — the server is untrusted end-to-end — so replicating its state
// to more untrusted nodes is pure systems work with no security surface.
//
// Model: a ReplicatedKvStore wraps one primary KvStore and ships every
// Put/Append/Delete, stamped with a monotonically increasing sequence
// number, to N followers (an append ships only its suffix and the length
// it expects to extend). Followers apply strictly in order, so a
// follower's store is always a consistent prefix of the primary's mutation
// history. A bounded
// in-memory op log retains the recent window for streaming; a follower that
// is empty, stale, or has fallen behind the window is caught up with a
// snapshot before streaming resumes. Snapshots stream in bounded chunks
// (Begin → Chunk* → End): the shipper walks the primary's key list and
// fetches values one batch at a time, the receiver writes each chunk
// straight into its store — neither side ever holds a full copy of the
// store in memory, which is what makes catch-up of a large LogKvStore
// feasible.
//
// Ack modes:
//   kAsync  — Put/Delete return once the primary applied; followers drain
//             in the background (lowest latency, newest writes at risk if
//             the primary dies before shipping).
//   kQuorum — Put/Delete block until a majority of the replica group
//             (primary + N followers) holds the mutation, i.e. until
//             ceil((N+1)/2) - 1 followers acked. Semi-sync: a write that
//             times out waiting is reported Unavailable even though the
//             primary applied it (the classic semi-sync degradation).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "store/forwarding_kv.hpp"

namespace tc::replica {

enum class AckMode : uint8_t { kAsync = 0, kQuorum = 1 };

std::string_view AckModeName(AckMode mode);

/// Follower-local bookkeeping keys (e.g. the applier's persisted applied
/// seq) live under this prefix: snapshot shipping skips them and snapshot
/// reconciliation never deletes them, so they survive re-seeding without
/// ever being confused with replicated state.
inline constexpr std::string_view kReplicaMetaPrefix = "meta/replica/";

/// The key cluster::BindShardMeta persists a store's shard layout under
/// (shard id and shard count). It is replicated state, unlike the keys
/// under kReplicaMetaPrefix.
inline constexpr char kShardMetaKey[] = "meta/cluster/shard";

/// Fingerprint of a store's persisted shard layout (kShardMetaKey):
/// 0 for a store that has never been bound. The hello handshake compares
/// fingerprints so a follower formatted for a different cluster shape is
/// rejected instead of silently reconciled into the wrong shard.
uint64_t StoreFingerprint(const store::KvStore& kv);

/// One sequence-numbered mutation in the shipping log.
struct LoggedOp {
  uint64_t seq = 0;
  uint8_t kind = 0;  // one of the net::kReplicaOp* kinds
  std::string key;
  Bytes value;  // empty for deletes; the suffix for appends
  uint64_t expected_size = 0;  // appends only: value length before
};

/// One snapshot-stream entry.
using SnapshotEntry = std::pair<std::string, Bytes>;

/// Where shipped mutations land: a RemoteFollower, whose transport reaches
/// a ReplicaApplier in this process or in a follower daemon (tests put
/// fakes in between). Calls arrive from one shipper thread at a time,
/// strictly in order.
class Follower {
 public:
  virtual ~Follower() = default;

  /// Apply a contiguous, ordered run of ops. Re-delivery after a failure
  /// must be tolerated (puts overwrite; deleting a missing key is OK; a
  /// re-delivered append is recognised and skipped). A
  /// kFailedPrecondition return means the follower cannot accept this run
  /// at all (a sequence gap or an append that does not fit: it restarted
  /// or diverged) and needs a fresh snapshot, not a retry.
  virtual Status ApplyOps(std::span<const LoggedOp> ops) = 0;

  /// Open a snapshot stream as of `seq`. `origin` identifies the shipping
  /// pipeline (random per ReplicatedKvStore): a stream is only resumable
  /// by the pipeline that started it — after failover the new primary's
  /// numbering restarts, and a coincidentally equal seq must not graft its
  /// stream onto a half-received one from the dead primary. Returns the
  /// resume point: how many stream entries the follower already holds for
  /// this exact (origin, seq), 0 otherwise.
  virtual Result<uint64_t> BeginSnapshot(uint64_t origin, uint64_t seq) = 0;

  /// One bounded batch of the stream; `first_index` positions it.
  virtual Status ApplySnapshotChunk(
      uint64_t seq, uint64_t first_index,
      std::span<const SnapshotEntry> entries) = 0;

  /// Close the stream: the follower deletes local keys the stream never
  /// named (reconverging diverged stores) and jumps its applied seq to
  /// `seq`. `total_entries` cross-checks that nothing was lost in transit.
  virtual Status EndSnapshot(uint64_t seq, uint64_t total_entries) = 0;
};

struct ReplicatedKvOptions {
  AckMode ack = AckMode::kAsync;
  /// Retained op-log window. A follower lagging past it is snapshot-fed.
  size_t max_log_ops = 8192;
  /// Snapshot chunk bounds: a chunk closes at whichever limit hits first.
  /// These cap both sides' catch-up memory (and the wire frame size).
  size_t snapshot_chunk_bytes = 1 << 20;
  size_t snapshot_chunk_entries = 1024;
  /// Quorum mode: how long a writer waits for follower acks before giving
  /// up with Unavailable.
  int64_t quorum_timeout_ms = 10'000;
};

/// KvStore decorator: applies to the primary, ships to followers. Reads
/// (Get/Contains/Scan/Size/ValueBytes/Sync/Compaction) pass straight to the
/// primary — replica reads are routed above this layer (ReplicaSet), where
/// engine state can be refreshed to match the follower store.
class ReplicatedKvStore final : public store::ForwardingKvStore {
 public:
  explicit ReplicatedKvStore(std::shared_ptr<store::KvStore> primary,
                             ReplicatedKvOptions options = {});
  ~ReplicatedKvStore() override;

  /// Register a follower and start shipping to it. The follower is first
  /// caught up with a snapshot stream (it may hold anything: nothing, a
  /// stale copy from a previous run, or a diverged ex-peer after failover).
  /// Returns its index for follower_seq().
  size_t AddFollower(std::shared_ptr<Follower> follower);

  // KvStore writes; every other call is ForwardingKvStore's.
  Status Put(const std::string& key, BytesView value) override;
  Status Delete(const std::string& key) override;
  /// Ships only the suffix and the prior length, not the grown value.
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;

  // Replication introspection. Sequence numbers start at 1; follower_seq is
  // the highest op a follower has durably applied (snapshots jump it).
  uint64_t head_seq() const { return head_seq_.load(std::memory_order_acquire); }
  uint64_t follower_seq(size_t i) const;
  /// Widest lag across followers, in ops (0 with no followers).
  uint64_t MaxLagOps() const;
  /// Snapshots completed so far (tests assert the catch-up path ran).
  uint64_t snapshots_shipped() const { return snapshots_.load(); }
  /// Bounded chunks shipped across all snapshots — the witness that
  /// catch-up streamed instead of materializing one full-store frame.
  uint64_t snapshot_chunks_shipped() const { return snapshot_chunks_.load(); }
  /// Follower i's most recent shipping failure; OK while healthy (and again
  /// once a retry succeeds). The "why is this follower lagging" signal.
  Status follower_error(size_t i) const;
  /// Force follower i back through snapshot catch-up. Used when external
  /// evidence says our applied-seq bookkeeping overstates the follower
  /// (a daemon re-registered claiming less history than we recorded) — on
  /// a write-quiescent shard the gap detector would otherwise never fire.
  void MarkNeedsSnapshot(size_t i);
  AckMode ack_mode() const { return options_.ack; }

  /// Block until every follower has applied every op issued before the
  /// call (or `timeout_ms` passes → Unavailable). Promotion and tests use
  /// this to drain the async pipeline.
  Status WaitCaughtUp(int64_t timeout_ms = 30'000);

  const std::shared_ptr<store::KvStore>& primary() const { return inner(); }

 private:
  // The non-atomic fields are guarded by the outer mu_ — an attribute
  // cannot say so across the nesting boundary, so every function touching
  // them carries REQUIRES(mu_) instead (the annotation convention for
  // nested state).
  struct FollowerState {
    std::shared_ptr<Follower> follower;  // set before the thread starts
    std::thread thread;
    std::atomic<uint64_t> applied_seq{0};
    bool needs_snapshot = true;         // guarded by mu_
    Status last_error;                  // guarded by mu_
    uint64_t consecutive_failures = 0;  // guarded by mu_; drives backoff
  };

  Status Replicate(uint8_t kind, const std::string& key, BytesView value,
                   uint64_t expected_size = 0) EXCLUDES(mu_);
  void ShipperLoop(FollowerState* state) EXCLUDES(mu_);
  /// One full snapshot stream attempt to `state` as of `snap_seq`. Runs
  /// with mu_ released; returns the stream's entry total on success.
  Status StreamSnapshot(FollowerState* state, uint64_t snap_seq)
      EXCLUDES(mu_);
  /// Record a shipping failure and sleep out its backoff (under mu_, which
  /// the wait releases). Logs the first failure, then every 64th — a dead
  /// follower must not flood the log at retry frequency.
  void BackoffAfterFailure(FollowerState* state, const char* what,
                           Status error) REQUIRES(mu_);
  /// Followers with applied_seq >= seq (quorum accounting).
  size_t AckCountLocked(uint64_t seq) const REQUIRES(mu_);
  size_t QuorumFollowerAcksLocked() const REQUIRES(mu_);
  /// True when every follower is past snapshot catch-up and at `target`.
  bool AllCaughtUpLocked(uint64_t target) const REQUIRES(mu_);

  ReplicatedKvOptions options_;

  mutable Mutex mu_;
  CondVar work_cv_;  // shipper wakeup: new ops or stop
  CondVar ack_cv_;   // writer wakeup: follower progress
  // Window [log_first_seq_, head_seq_].
  std::deque<LoggedOp> log_ GUARDED_BY(mu_);
  const uint64_t origin_;  // this pipeline's snapshot identity
  uint64_t log_first_seq_ GUARDED_BY(mu_) = 1;
  std::atomic<uint64_t> head_seq_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> snapshot_chunks_{0};
  // Trace context of the most recent writer, re-stamped by shippers so
  // follower spans join the originating ingest's trace.
  std::atomic<uint64_t> ship_trace_id_{0};
  std::atomic<uint64_t> ship_parent_span_{0};
  bool stop_ GUARDED_BY(mu_) = false;
  // Shipper threads self-register here; vector only grows (AddFollower),
  // entries are stable (unique_ptr) so atomics can be read without mu_.
  std::vector<std::unique_ptr<FollowerState>> followers_ GUARDED_BY(mu_);
};

}  // namespace tc::replica
