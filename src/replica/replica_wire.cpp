#include "replica/replica_wire.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "net/tcp.hpp"

namespace tc::replica {

namespace {
/// Where the applier persists its applied seq (follower-local bookkeeping,
/// exempt from snapshot shipping and reconciliation).
const std::string kAppliedSeqKey =
    std::string(kReplicaMetaPrefix) + "applied";

/// The record under kAppliedSeqKey.
struct AppliedSeq {
  uint64_t seq = 0;

  static void Visit(auto& m, auto& v) { v(m.seq); }
};

/// Apply one shipped mutation to a follower's store. Every kind is
/// idempotent, because re-delivery is expected (a retried batch, or ops that
/// raced a snapshot stream): deleting a missing key succeeds, and an append
/// whose suffix already sits at `expected_size` is a no-op. Any other append
/// whose key is missing or whose value length differs from `expected_size`
/// fails with kFailedPrecondition: the follower diverged and must be
/// re-seeded, never appended to blindly.
Status ApplyShippedOp(store::KvStore& kv,
                      const net::ReplicaOpsRequest::Op& op) {
  switch (op.kind) {
    case net::kReplicaOpPut:
      return kv.Put(op.key, op.value);
    case net::kReplicaOpAppend: {
      Status s = kv.Append(op.key, op.expected_size, op.value).status();
      if (s.code() == StatusCode::kNotFound) {
        return FailedPrecondition("replica append to absent key " + op.key);
      }
      if (s.code() == StatusCode::kFailedPrecondition) {
        // Already applied: a snapshot read the value after this append
        // landed on the primary, or a retried batch re-delivers it. The
        // suffix then sits at exactly `expected_size`.
        auto current = kv.Get(op.key);
        if (current.ok() && current->size() >= op.expected_size &&
            current->size() - op.expected_size >= op.value.size() &&
            std::equal(op.value.begin(), op.value.end(),
                       current->begin() +
                           static_cast<ptrdiff_t>(op.expected_size))) {
          return Status::Ok();
        }
      }
      return s;
    }
    default: {
      // Re-delivery after a mid-batch failure (or a delete folded into an
      // earlier snapshot) makes missing keys expected, not errors.
      Status s = kv.Delete(op.key);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
      return Status::Ok();
    }
  }
}
}  // namespace

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
    // cover a follower fsyncing a large snapshot chunk.
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

Status RemoteFollower::ApplyOps(std::span<const LoggedOp> ops) {
  AssertBlockingAllowed();
  if (ops.empty()) return Status::Ok();
  net::ReplicaOpsRequest req;
  req.shard = shard_;
  req.first_seq = ops.front().seq;
  req.ops.reserve(ops.size());
  for (const auto& op : ops) {
    req.ops.push_back({op.kind, op.key, op.value, op.expected_size});
  }
  TC_ASSIGN_OR_RETURN(Bytes resp, Call(net::MessageType::kReplicaOps,
                                       req.Encode()));
  TC_ASSIGN_OR_RETURN(auto ack, net::ReplicaAckResponse::Decode(resp));
  if (ack.applied_seq < ops.back().seq) {
    return Internal("follower acked seq " + std::to_string(ack.applied_seq) +
                    " short of shipped " + std::to_string(ops.back().seq));
  }
  return Status::Ok();
}

Result<uint64_t> RemoteFollower::BeginSnapshot(uint64_t origin, uint64_t seq) {
  AssertBlockingAllowed();
  net::ReplicaSnapshotBeginRequest req{shard_, origin, seq};
  TC_ASSIGN_OR_RETURN(Bytes resp, Call(net::MessageType::kReplicaSnapshotBegin,
                                       req.Encode()));
  TC_ASSIGN_OR_RETURN(auto ack, net::ReplicaSnapshotAckResponse::Decode(resp));
  return ack.entries;
}

Status RemoteFollower::ApplySnapshotChunk(
    uint64_t seq, uint64_t first_index,
    std::span<const SnapshotEntry> entries) {
  AssertBlockingAllowed();
  net::ReplicaSnapshotChunkRequest req;
  req.shard = shard_;
  req.seq = seq;
  req.first_index = first_index;
  req.entries.assign(entries.begin(), entries.end());
  TC_ASSIGN_OR_RETURN(Bytes resp, Call(net::MessageType::kReplicaSnapshotChunk,
                                       req.Encode()));
  TC_ASSIGN_OR_RETURN(auto ack, net::ReplicaSnapshotAckResponse::Decode(resp));
  uint64_t expected = first_index + entries.size();
  if (ack.entries != expected) {
    return Internal("follower holds " + std::to_string(ack.entries) +
                    " snapshot entries, expected " + std::to_string(expected));
  }
  return Status::Ok();
}

Status RemoteFollower::EndSnapshot(uint64_t seq, uint64_t total_entries) {
  AssertBlockingAllowed();
  net::ReplicaSnapshotEndRequest req{shard_, seq, total_entries};
  TC_ASSIGN_OR_RETURN(Bytes resp, Call(net::MessageType::kReplicaSnapshotEnd,
                                       req.Encode()));
  TC_ASSIGN_OR_RETURN(auto ack, net::ReplicaAckResponse::Decode(resp));
  // Like ApplyOps, trust nothing: a follower that acked the end but did not
  // actually land on the snapshot's seq applied a stale stream and must not
  // be treated as caught up.
  if (ack.applied_seq < seq) {
    return Internal("follower acked snapshot at seq " +
                    std::to_string(ack.applied_seq) + " short of " +
                    std::to_string(seq));
  }
  return Status::Ok();
}

ReplicaApplier::ReplicaApplier(std::shared_ptr<store::KvStore> kv,
                               server::ServerOptions engine_options)
    : kv_(kv), engine_(std::move(kv), engine_options) {
  // The applier has not escaped the constructor yet; the lock is
  // uncontended but keeps applied_seq_ under its capability.
  MutexLock lock(mu_);
  // A durable follower restarting over its previous store resumes from its
  // persisted position instead of claiming an empty history.
  if (auto persisted = kv_->Get(kAppliedSeqKey); persisted.ok()) {
    if (auto marker = net::codec::Decode<AppliedSeq>(*persisted);
        marker.ok()) {
      applied_seq_ = marker->seq;
    }
  }
}

Status ReplicaApplier::PersistAppliedLocked() {
  // Append the marker under mu_ so it lands after the batch it describes;
  // the fsync that makes both durable happens in the caller AFTER mu_ is
  // released (B1: no blocking while a tc::Mutex is held), and
  // the ack is only encoded after that flush returns.
  return kv_->Put(kAppliedSeqKey, net::codec::Encode(AppliedSeq{applied_seq_}));
}

Result<Bytes> ReplicaApplier::ApplyOps(const net::ReplicaOpsRequest& req) {
  uint64_t acked = 0;
  {
    MutexLock lock(mu_);
    if (req.first_seq > applied_seq_ + 1) {
      // A gap means this store is missing history (daemon restart over a
      // volatile store, a diverged ex-peer, or a shipment lost after it was
      // acked). Applying a suffix would silently corrupt it; the shipper
      // re-seeds on this error.
      return FailedPrecondition(
          "sequence gap: follower applied " + std::to_string(applied_seq_) +
          ", shipment starts at " + std::to_string(req.first_seq));
    }
    for (size_t i = 0; i < req.ops.size(); ++i) {
      uint64_t seq = req.first_seq + i;
      if (seq <= applied_seq_) continue;  // re-delivered prefix
      TC_RETURN_IF_ERROR(ApplyShippedOp(*kv_, req.ops[i]));
      applied_seq_ = seq;
      version_.fetch_add(1, std::memory_order_release);
    }
    TC_RETURN_IF_ERROR(PersistAppliedLocked());
    acked = applied_seq_;
  }
  // Flush the batch and its applied marker with mu_ released — fsync must
  // never run under the lock. On a buffered durable store (LogKvStore) a
  // SIGKILL before this flush would drop the shipped batch, so the ack is
  // only encoded after Sync returns; the marker was appended after the
  // batch, so replay can never see it ahead of the data, and a stale-low
  // marker just re-ships an idempotent suffix. The group-committing Sync
  // covers the appends even if another shipment interleaves here.
  TC_RETURN_IF_ERROR(kv_->Sync());
  return net::ReplicaAckResponse{acked}.Encode();
}

Result<Bytes> ReplicaApplier::SnapshotBegin(
    const net::ReplicaSnapshotBeginRequest& req) {
  MutexLock lock(mu_);
  // The same pipeline retrying the same stream resumes it; anything else
  // (another seq, or another pipeline whose restarted numbering collides)
  // starts a fresh one.
  if (!stream_.active || stream_.origin != req.origin ||
      stream_.seq != req.seq) {
    stream_ = {};
    stream_.active = true;
    stream_.origin = req.origin;
    stream_.seq = req.seq;
  }
  return net::ReplicaSnapshotAckResponse{stream_.received}.Encode();
}

Result<Bytes> ReplicaApplier::SnapshotChunk(
    const net::ReplicaSnapshotChunkRequest& req) {
  MutexLock lock(mu_);
  if (!stream_.active || stream_.seq != req.seq) {
    return FailedPrecondition("no snapshot stream open for seq " +
                              std::to_string(req.seq));
  }
  if (req.first_index > stream_.received) {
    return FailedPrecondition(
        "snapshot chunk gap: stream at " + std::to_string(stream_.received) +
        ", chunk starts at " + std::to_string(req.first_index));
  }
  for (size_t i = 0; i < req.entries.size(); ++i) {
    if (req.first_index + i < stream_.received) continue;  // overlap
    const auto& [key, value] = req.entries[i];
    stream_.keys.insert(key);
    // Skip byte-identical values: re-seeding a durable follower (restart
    // with a reused log file) must not rewrite its entire log as dead bytes.
    auto existing = kv_->Get(key);
    if (!existing.ok() || *existing != value) {
      TC_RETURN_IF_ERROR(kv_->Put(key, value));
    }
    stream_.received = req.first_index + i + 1;
  }
  ++snapshot_chunks_;
  return net::ReplicaSnapshotAckResponse{stream_.received}.Encode();
}

Result<Bytes> ReplicaApplier::SnapshotEnd(
    const net::ReplicaSnapshotEndRequest& req) {
  uint64_t acked = 0;
  {
    MutexLock lock(mu_);
    if (!stream_.active || stream_.seq != req.seq ||
        stream_.received != req.total_entries) {
      Status error = FailedPrecondition(
          "snapshot end mismatch: stream " + std::to_string(stream_.seq) +
          "/" + std::to_string(stream_.received) + " entries vs end " +
          std::to_string(req.seq) + "/" + std::to_string(req.total_entries));
      // Close it so the shipper's restart begins a clean stream.
      stream_ = {};
      return error;
    }
    // Reconcile: delete the keys the stream never named, so a diverged
    // store reconverges. Collect first, mutate after: Scan callbacks must
    // not call back into the store. Keys under the replica-meta prefix are
    // follower-local bookkeeping, never part of the shipped state.
    const auto& named = stream_.keys;
    std::vector<std::string> stale;
    TC_RETURN_IF_ERROR(kv_->Scan([&](const std::string& key, BytesView) {
      if (!named.contains(key) && !key.starts_with(kReplicaMetaPrefix)) {
        stale.push_back(key);
      }
    }));
    for (const auto& key : stale) {
      Status s = kv_->Delete(key);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
    stream_ = {};
    // A snapshot is the authoritative full state as of its seq — SET, not
    // max: after failover the new primary restarts sequence numbering, and a
    // re-homed survivor must adopt the new numbering or it would skip every
    // subsequent shipment as "already applied".
    applied_seq_ = req.seq;
    version_.fetch_add(1, std::memory_order_release);
    TC_RETURN_IF_ERROR(PersistAppliedLocked());
    acked = applied_seq_;
  }
  // Same flush-outside-the-lock, ack-after-flush discipline as ApplyOps.
  TC_RETURN_IF_ERROR(kv_->Sync());
  return net::ReplicaAckResponse{acked}.Encode();
}

Result<Bytes> ReplicaApplier::Handle(net::MessageType type, BytesView body) {
  switch (type) {
    case net::MessageType::kReplicaOps: {
      TC_ASSIGN_OR_RETURN(auto req, net::ReplicaOpsRequest::Decode(body));
      // The shipped frame carries the originating client's trace context, so
      // this span stitches the follower's apply under the same trace as the
      // primary-side ingest that produced the batch.
      metrics::TraceSpan span("replica_apply", nullptr, req.shard,
                              static_cast<uint8_t>(type));
      return ApplyOps(req);
    }
    case net::MessageType::kReplicaSnapshotBegin: {
      TC_ASSIGN_OR_RETURN(auto req,
                          net::ReplicaSnapshotBeginRequest::Decode(body));
      return SnapshotBegin(req);
    }
    case net::MessageType::kReplicaSnapshotChunk: {
      TC_ASSIGN_OR_RETURN(auto req,
                          net::ReplicaSnapshotChunkRequest::Decode(body));
      return SnapshotChunk(req);
    }
    case net::MessageType::kReplicaSnapshotEnd: {
      TC_ASSIGN_OR_RETURN(auto req,
                          net::ReplicaSnapshotEndRequest::Decode(body));
      return SnapshotEnd(req);
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

uint64_t ReplicaApplier::applied_seq() const {
  MutexLock lock(mu_);
  return applied_seq_;
}

uint64_t ReplicaApplier::snapshot_chunks_received() const {
  MutexLock lock(mu_);
  return snapshot_chunks_;
}

bool ReplicaApplier::snapshot_in_progress() const {
  MutexLock lock(mu_);
  return stream_.active;
}

}  // namespace tc::replica
