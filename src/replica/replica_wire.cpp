#include "replica/replica_wire.hpp"

#include "common/metrics.hpp"
#include "net/tcp.hpp"

namespace tc::replica {

Result<Bytes> RemoteFollower::Call(net::MessageType type, BytesView body) {
  AssertBlockingAllowed();
  // The lock covers only the reference grab and install — never the dial
  // or the request: both run on a local shared_ptr, so a slow follower
  // stalls one shipment, not every caller behind the lock.
  std::shared_ptr<net::Transport> transport;
  {
    MutexLock lock(mu_);
    transport = transport_;
  }
  if (!transport) {
    if (host_.empty()) return Unavailable("replica transport closed");
    // Bounded dial + bounded I/O: a blackholed follower must fail the
    // shipment (backoff + retry handles it), never park the shipper in the
    // kernel's minutes-long retry schedule — DropPrimary joins this thread
    // under the shard's exclusive lock, so an unbounded wait here would
    // freeze every read and write on the shard. Both bounds are fixed at
    // the dial, so a socket that refuses the op timeout fails the dial
    // instead of shipping unbounded. The op timeout is generous: it must
    // cover a follower syncing a full frame.
    auto client = net::TcpClient::Connect(host_, port_,
                                          /*connect_timeout_ms=*/5000,
                                          /*op_timeout_ms=*/30'000);
    if (!client.ok()) return client.status();
    MutexLock lock(mu_);
    // Two racing dials: the first to install wins, the other's closes.
    if (!transport_) {
      transport_ = std::shared_ptr<net::Transport>(std::move(*client));
    }
    transport = transport_;
  }
  auto result = transport->Call(type, body);
  if (!result.ok() && !host_.empty() &&
      (result.status().code() == StatusCode::kUnavailable ||
       result.status().code() == StatusCode::kDataLoss)) {
    // Transport-level failure (peer died, stream corrupt): drop the
    // connection so the next attempt redials. Handler-level errors keep
    // the connection — it answered, it is alive.
    MutexLock relock(mu_);
    if (transport_ == transport) transport_.reset();
  }
  return result;
}

Result<store::LogPosition> RemoteFollower::ShipLog(store::LogPosition at,
                                                   BytesView records) {
  AssertBlockingAllowed();
  net::ReplicaLogRequest req{shard_, at.generation, at.length, records};
  TC_ASSIGN_OR_RETURN(Bytes resp,
                      Call(net::MessageType::kReplicaLog, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto ack, net::ReplicaLogAck::Decode(resp));
  return store::LogPosition{ack.generation, ack.length};
}

ReplicaApplier::ReplicaApplier(std::shared_ptr<store::LogKvStore> log,
                               server::ServerOptions engine_options)
    : log_(log), engine_(std::move(log), engine_options) {}

Result<Bytes> ReplicaApplier::Handle(net::MessageType type, BytesView body) {
  switch (type) {
    case net::MessageType::kReplicaLog: {
      TC_ASSIGN_OR_RETURN(auto req, net::ReplicaLogRequest::Decode(body));
      // The shipped frame carries the originating client's trace context,
      // so this span stitches the follower's write under the same trace as
      // the primary-side ingest that produced the bytes.
      metrics::TraceSpan span("replica_apply", nullptr, req.shard,
                              static_cast<uint8_t>(type));
      TC_ASSIGN_OR_RETURN(
          store::LogPosition at,
          log_->AppendLog({req.generation, req.offset}, req.records));
      if (!req.records.empty() && req.offset == 0) full_copies_.fetch_add(1);
      // A frame of an unfinished copy leaves the log the engine reads as
      // it was.
      if (!req.records.empty() && at == log_->Head().position()) {
        version_.fetch_add(1, std::memory_order_release);
      }
      // Ack only what is durable: a SIGKILL before this flush would drop
      // the records, so the ack is encoded after Sync returns. A position
      // query syncs too: a frame whose Sync failed left bytes in the log
      // that must not be reported until they are in the file.
      TC_RETURN_IF_ERROR(log_->Sync());
      return net::ReplicaLogAck{at.generation, at.length}.Encode();
    }
    case net::MessageType::kPing:
      return Bytes{};
    default:
      return InvalidArgument("follower endpoint only accepts replication");
  }
}

Result<Bytes> ReplicaApplier::Read(net::MessageType type, BytesView body) {
  uint64_t version = version_.load(std::memory_order_acquire);
  if (version != engine_version_.load(std::memory_order_acquire)) {
    MutexLock lock(refresh_mu_);
    if (version != engine_version_.load(std::memory_order_relaxed)) {
      // `version` was read before the refresh started, so recording it
      // afterwards can only under-state freshness — the safe direction.
      TC_RETURN_IF_ERROR(engine_.Refresh());
      engine_version_.store(version, std::memory_order_release);
    }
  }
  return engine_.Handle(type, body);
}

}  // namespace tc::replica
