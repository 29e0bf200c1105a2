// The follower side of log shipping. A RemoteFollower encodes shipped ops
// into kReplicaOps frames and snapshot streams into
// kReplicaSnapshotBegin/Chunk/End frames; a ReplicaApplier is the one
// follower-side type: it owns the follower store, applies those frames to
// it, and serves replica reads from an engine over it. In-process replicas
// reach their applier through an InProcTransport, follower daemons
// (`tcserver --follower-of`) through TCP — either way the
// ReplicatedKvStore only ever sees the Follower interface.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/thread_annotations.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"
#include "replica/replicated_kv.hpp"
#include "server/server_engine.hpp"

namespace tc::replica {

/// Follower adapter over a client transport. Constructed either over a
/// fixed transport (in-proc tests) or over a (host, port) endpoint, in
/// which case it dials lazily and redials after transport failures — the
/// primary's shipper retries with backoff, so a follower daemon restart
/// heals without operator action.
class RemoteFollower final : public Follower {
 public:
  explicit RemoteFollower(std::shared_ptr<net::Transport> transport,
                          uint32_t shard = 0)
      : transport_(std::move(transport)), shard_(shard) {}
  RemoteFollower(std::string host, uint16_t port, uint32_t shard)
      : shard_(shard), host_(std::move(host)), port_(port) {}

  Status ApplyOps(std::span<const LoggedOp> ops) override;
  Result<uint64_t> BeginSnapshot(uint64_t origin, uint64_t seq) override;
  Status ApplySnapshotChunk(uint64_t seq, uint64_t first_index,
                            std::span<const SnapshotEntry> entries) override;
  Status EndSnapshot(uint64_t seq, uint64_t total_entries) override;

  uint32_t shard() const { return shard_; }

 private:
  /// One request over the (possibly redialed) transport. Blocking: dials
  /// and awaits the response with mu_ released (unlock-before-I/O).
  Result<Bytes> Call(net::MessageType type, BytesView body)
      EXCLUDES(mu_);

  Mutex mu_;
  /// The shared_ptr itself is guarded; the transport it points at is
  /// thread-safe and Call() holds its own reference across the I/O so a
  /// concurrent redial can never destroy it mid-request.
  std::shared_ptr<net::Transport> transport_ GUARDED_BY(mu_);
  uint32_t shard_ = 0;
  std::string host_;  // empty = fixed transport, never redial
  uint16_t port_ = 0;
};

/// A follower store and everything that reads or writes it: applies
/// replication frames in arrival order (checking for sequence gaps),
/// answers kPing for liveness probes, rejects every other message on the
/// replication path, and serves replica reads from a ServerEngine over the
/// store. The applied sequence number is persisted in the store (under
/// kReplicaMetaPrefix) so a restart over a durable store resumes from where
/// it left off instead of claiming an empty history.
class ReplicaApplier final : public net::RequestHandler {
 public:
  explicit ReplicaApplier(std::shared_ptr<store::KvStore> kv,
                          server::ServerOptions engine_options = {});

  /// The one decoder of kReplicaOps and kReplicaSnapshot{Begin,Chunk,End}.
  /// Each returns the encoded ack.
  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

  /// Serve a read-only message from the engine over the follower store,
  /// refreshed first whenever the store changed since the engine last saw
  /// it.
  Result<Bytes> Read(net::MessageType type, BytesView body)
      EXCLUDES(refresh_mu_);

  const std::shared_ptr<store::KvStore>& kv() const { return kv_; }
  /// The read engine as of its last refresh (cluster-info counts).
  const server::ServerEngine& engine() const { return engine_; }

  /// Highest sequence number applied (0 before any frame).
  uint64_t applied_seq() const;
  /// Snapshot chunks applied so far (catch-up drills assert streaming).
  uint64_t snapshot_chunks_received() const;
  /// True while a snapshot stream is open (kill-mid-snapshot drills).
  bool snapshot_in_progress() const;

 private:
  /// The open snapshot stream: applied chunk by chunk, so only the key set
  /// is retained for End's reconciliation.
  struct SnapshotStream {
    bool active = false;
    uint64_t origin = 0;
    uint64_t seq = 0;
    uint64_t received = 0;
    std::unordered_set<std::string> keys;  // named by the stream so far
  };

  Result<Bytes> ApplyOps(const net::ReplicaOpsRequest& req) EXCLUDES(mu_);
  Result<Bytes> SnapshotBegin(const net::ReplicaSnapshotBeginRequest& req)
      EXCLUDES(mu_);
  Result<Bytes> SnapshotChunk(const net::ReplicaSnapshotChunkRequest& req)
      EXCLUDES(mu_);
  Result<Bytes> SnapshotEnd(const net::ReplicaSnapshotEndRequest& req)
      EXCLUDES(mu_);
  Status PersistAppliedLocked() REQUIRES(mu_);

  std::shared_ptr<store::KvStore> kv_;
  server::ServerEngine engine_;
  mutable Mutex mu_;
  uint64_t applied_seq_ GUARDED_BY(mu_) = 0;
  uint64_t snapshot_chunks_ GUARDED_BY(mu_) = 0;
  SnapshotStream stream_ GUARDED_BY(mu_);
  /// Bumped (under mu_) by every applied op and every completed snapshot.
  /// The engine refreshes whenever this differs from the value it last
  /// saw; a counter rather than the applied seq, because a re-seed sets the
  /// seq to the new primary's numbering, which can equal the old value.
  std::atomic<uint64_t> version_{0};
  /// The version the engine last refreshed to; refreshes serialize on
  /// refresh_mu_, reads that find it current never take the mutex.
  std::atomic<uint64_t> engine_version_{0};
  Mutex refresh_mu_;
};

}  // namespace tc::replica
