// The follower side of log shipping. A RemoteFollower encodes shipped log
// bytes into kReplicaLog frames; a ReplicaApplier is the one follower-side
// type: it owns the follower's LogKvStore, writes each frame's records at
// its log end, or into a copy beside it (LogKvStore::AppendLog, which
// indexes them with Replay's parser), and serves replica reads from an
// engine over the same store, which only reads it. In-process replicas reach their applier through an
// InProcTransport, follower daemons (`tcserver --follower-of`) through
// TCP — either way the ReplicatedKvStore only ever sees the Follower
// interface.
#pragma once

#include <atomic>
#include <memory>
#include <string>

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

  Result<store::LogPosition> ShipLog(store::LogPosition at,
                                     BytesView records) override;

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

/// A follower store and everything that reads or writes it: writes
/// kReplicaLog frames, answers kPing for liveness probes, rejects every
/// other message on the replication path, and serves replica reads from a
/// ServerEngine over the store. Where the follower stands is its log's
/// position, so a restart over a durable log resumes where it left off.
class ReplicaApplier final : public net::RequestHandler {
 public:
  explicit ReplicaApplier(std::shared_ptr<store::LogKvStore> log,
                          server::ServerOptions engine_options = {});

  /// The one decoder of kReplicaLog; returns the encoded ReplicaLogAck
  /// once the records are synced.
  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

  /// Serve a read-only message from the engine over the follower store,
  /// refreshed first whenever the store changed since the engine last saw
  /// it.
  Result<Bytes> Read(net::MessageType type, BytesView body)
      EXCLUDES(refresh_mu_);

  const std::shared_ptr<store::LogKvStore>& log() const { return log_; }
  /// The read engine as of its last refresh (cluster-info counts).
  const server::ServerEngine& engine() const { return engine_; }
  store::LogPosition position() const { return log_->Head().position(); }
  /// Frames that copied the log from offset 0.
  uint64_t full_copies() const { return full_copies_.load(); }

 private:
  std::shared_ptr<store::LogKvStore> log_;
  server::ServerEngine engine_;
  std::atomic<uint64_t> full_copies_{0};
  /// Bumped by every frame that changed the log. The engine refreshes
  /// whenever this differs from the value it last saw.
  std::atomic<uint64_t> version_{0};
  /// The version the engine last refreshed to; refreshes serialize on
  /// refresh_mu_, reads that find it current never take the mutex.
  std::atomic<uint64_t> engine_version_{0};
  Mutex refresh_mu_;
};

}  // namespace tc::replica
