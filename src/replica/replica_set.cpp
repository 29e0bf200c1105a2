#include "replica/replica_set.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace tc::replica {

namespace {
/// A follower in this process: the shipper reaches its applier through the
/// same frames a follower daemon receives.
std::shared_ptr<Follower> InProcFollower(
    std::shared_ptr<ReplicaApplier> applier) {
  return std::make_shared<RemoteFollower>(
      std::make_shared<net::InProcTransport>(std::move(applier)));
}
}  // namespace

std::shared_ptr<ReplicaSet> ReplicaSet::Single(
    std::shared_ptr<server::ServerEngine> engine) {
  auto set = std::shared_ptr<ReplicaSet>(new ReplicaSet());
  // The set has not escaped yet; the lock is uncontended but keeps the
  // topology writes under the same capability as every other access.
  WriterMutexLock lock(set->state_mu_);
  set->primary_ = std::move(engine);
  return set;
}

Result<std::shared_ptr<ReplicaSet>> ReplicaSet::Make(
    std::shared_ptr<store::LogKvStore> primary_log,
    std::vector<std::shared_ptr<store::LogKvStore>> follower_logs,
    server::ServerOptions engine_options, ReplicaSetOptions options) {
  TC_ASSIGN_OR_RETURN(
      auto rkv, ReplicatedKvStore::Open(std::move(primary_log), options.kv));
  auto set = std::shared_ptr<ReplicaSet>(new ReplicaSet());
  set->engine_options_ = engine_options;
  set->options_ = options;
  {
    // The set has not escaped yet; the lock is uncontended but keeps the
    // topology writes under the same capability as every other access.
    WriterMutexLock lock(set->state_mu_);
    set->rkv_ = std::move(rkv);
    for (auto& log : follower_logs) {
      // The read engine recovers whatever the follower log holds right
      // now; shipping lands asynchronously and the first read past it
      // triggers a Refresh.
      auto applier =
          std::make_shared<ReplicaApplier>(std::move(log), engine_options);
      size_t rkv_index =
          set->rkv_->AddFollower(InProcFollower(applier), applier->position());
      set->replicas_.push_back({std::move(applier), rkv_index});
    }
    set->ResetRotationLocked();
    // The primary engine recovers through the replicated store (reads pass
    // straight to the primary log).
    set->primary_ =
        std::make_shared<server::ServerEngine>(set->rkv_, engine_options);
  }
  if (options.failover.auto_failover) {
    set->monitor_ = std::thread([raw = set.get()] { raw->MonitorLoop(); });
  }
  return set;
}

ReplicaSet::~ReplicaSet() {
  {
    MutexLock lock(monitor_mu_);
    monitor_stop_ = true;
    monitor_cv_.NotifyAll();
  }
  if (monitor_.joinable()) monitor_.join();
}

void ReplicaSet::ResetRotationLocked() {
  // Restart the cursor with the membership: a stale cursor over a changed
  // list would skew the rotation toward whatever slot the old modulus
  // happened to land on.
  rr_.store(0, std::memory_order_relaxed);
}

Result<Bytes> ReplicaSet::Handle(net::MessageType type, BytesView body) {
  ReaderMutexLock lock(state_mu_);
  if (!primary_) {
    return Unavailable("shard primary is down (awaiting promotion)");
  }
  return primary_->Handle(type, body);
}

Result<Bytes> ReplicaSet::HandleRead(net::MessageType type, BytesView body) {
  ReaderMutexLock lock(state_mu_);
  if (!replicas_.empty() && (rkv_ || dropped_)) {
    // Primary down, promotion pending: follower logs are frozen where they
    // were when it died. The lag bound still applies, measured against the
    // most caught-up survivor — in quorum mode that survivor holds every
    // acknowledged write, so an uneven follower must not serve reads
    // missing acked data.
    uint64_t head = rkv_ ? rkv_->log()->Head().progress() : final_head_;
    size_t n = replicas_.size();
    size_t start = static_cast<size_t>(rr_.fetch_add(1) % n);
    for (size_t k = 0; k < n; ++k) {
      const Replica& replica = replicas_[(start + k) % n];
      uint64_t held = rkv_ ? rkv_->follower_bytes(replica.rkv_index)
                           : replica.final_bytes;
      if (head - std::min(head, held) > options_.max_read_lag_bytes) {
        continue;
      }
      auto result = replica.applier->Read(type, body);
      if (result.ok()) {
        replica_reads_.fetch_add(1, std::memory_order_relaxed);
        return result;
      }
      // A replica-side failure is never the answer: the refresh may have
      // landed on a mid-mutation prefix (e.g. a leaf shipped before its
      // parent node). The primary — or a further-along replica — has it.
      read_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!primary_) {
    return Unavailable("shard primary is down and no replica is serveable");
  }
  primary_reads_.fetch_add(1, std::memory_order_relaxed);
  return primary_->Handle(type, body);
}

Status ReplicaSet::AddRemoteFollower(std::shared_ptr<Follower> follower,
                                     std::string label,
                                     store::LogPosition at) {
  WriterMutexLock lock(state_mu_);
  if (!rkv_) {
    if (dropped_) return Unavailable("shard primary is down");
    return FailedPrecondition("shard has no replication pipeline");
  }
  for (const auto& remote : remotes_) {
    if (remote.label == label) {
      // Same endpoint registering again (daemon restart): its shipper is
      // already attached and redials on its own; a second pipeline would
      // double-ship. Where its log stands now is news only if it moved.
      rkv_->ReportPosition(remote.rkv_index, at);
      return AlreadyExists("follower " + label + " already registered");
    }
  }
  size_t idx = rkv_->AddFollower(follower, at);
  remotes_.push_back({std::move(follower), std::move(label), idx});
  return Status::Ok();
}

Status ReplicaSet::DropPrimary() {
  WriterMutexLock lock(state_mu_);
  if (!rkv_) return FailedPrecondition("shard has no replication");
  if (dropped_) return FailedPrecondition("primary already dropped");
  final_head_ = 0;
  for (auto& replica : replicas_) {
    replica.final_bytes = rkv_->follower_bytes(replica.rkv_index);
    final_head_ = std::max(final_head_, replica.final_bytes);
  }
  // Severing both references tears down the shipping pipeline with the
  // engine; ops not yet shipped (async mode) are lost, exactly as they
  // would be with the real machine.
  rkv_.reset();
  primary_.reset();
  dropped_ = true;
  ResetRotationLocked();
  return Status::Ok();
}

Status ReplicaSet::Promote() {
  WriterMutexLock lock(state_mu_);
  if (!dropped_) {
    return FailedPrecondition("primary is alive; DropPrimary first");
  }
  if (replicas_.empty()) {
    return FailedPrecondition("no follower left to promote");
  }
  // Most caught-up local follower wins: the one with the most progress
  // along the dead primary's log. In quorum mode it provably holds every
  // acknowledged write: a majority held it, a follower's log is a prefix
  // of its primary's history, and a copy replaces a follower's log only
  // once whole, so the furthest covers them all. (Remote followers
  // promote in their own process — see FollowerDaemon — and re-home below
  // either way.)
  size_t best = 0;
  for (size_t i = 1; i < replicas_.size(); ++i) {
    if (replicas_[i].final_bytes > replicas_[best].final_bytes) best = i;
  }
  TC_ASSIGN_OR_RETURN(
      auto rkv,
      ReplicatedKvStore::Open(replicas_[best].applier->log(), options_.kv));
  replicas_.erase(replicas_.begin() + best);
  for (auto& replica : replicas_) {
    // A survivor whose log is a prefix of the promoted one resumes from
    // its length; one that holds more (an async tail the promoted follower
    // never got) is copied from the start.
    replica.rkv_index = rkv->AddFollower(InProcFollower(replica.applier),
                                         replica.applier->position());
  }
  // Remote daemons keep following across the failover: attach their
  // shippers to the new pipeline, which asks where their logs stand.
  for (auto& remote : remotes_) {
    remote.rkv_index = rkv->AddFollower(remote.follower);
  }
  // Full recovery over the promoted store: streams, grants, witness trees
  // — the complete history the old primary had shipped.
  auto engine = std::make_shared<server::ServerEngine>(rkv, engine_options_);
  // Settle the survivors before reads resume (we hold state_mu_ exclusive,
  // so nothing serves mid-promotion): wait out their catch-up. Each applier
  // refreshes its read engine on the first read after it.
  // Blocking under the lock is the point: the exclusive state_mu_ hold IS
  // the promotion barrier, and serving resumes only after the survivors
  // settle.
  {
    ScopedAllowBlocking allow;
    if (Status s = rkv->WaitCaughtUp(options_.kv.quorum_timeout_ms); !s.ok()) {
      TC_LOG_WARN << "promotion: survivors still catching up: "
                  << s.ToString();
    }
  }
  primary_ = std::move(engine);
  rkv_ = std::move(rkv);
  dropped_ = false;
  ++promotions_;
  ResetRotationLocked();
  return Status::Ok();
}

void ReplicaSet::MonitorLoop() {
  uint32_t misses = 0;
  auto interval =
      std::chrono::milliseconds(options_.failover.heartbeat_interval_ms);
  for (;;) {
    {
      // One probe cadence per iteration; stop cuts the sleep short.
      MutexLock lock(monitor_mu_);
      auto deadline = std::chrono::steady_clock::now() + interval;
      while (!monitor_stop_) {
        if (monitor_cv_.WaitUntil(monitor_mu_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (monitor_stop_) return;
    }
    std::shared_ptr<store::KvStore> primary_kv;
    {
      ReaderMutexLock lock(state_mu_);
      // A manually dropped shard is someone else's drill; only probe a
      // live pipeline.
      if (!rkv_ || dropped_) continue;
      primary_kv = rkv_->log();
    }
    // The probe is a store read: NotFound is a healthy store answering
    // honestly; only transport/IO-level failures count as misses.
    auto probe = primary_kv->Get(kShardMetaKey);
    if (probe.ok() || probe.status().code() == StatusCode::kNotFound) {
      misses = 0;
      continue;
    }
    if (++misses < options_.failover.miss_threshold) continue;
    misses = 0;
    TC_LOG_WARN << "auto-failover: primary store failed "
                << options_.failover.miss_threshold
                << " consecutive probes (" << probe.status().ToString()
                << "); dropping and promoting";
    if (Status s = DropPrimary(); !s.ok()) {
      TC_LOG_WARN << "auto-failover: drop failed: " << s.ToString();
      continue;
    }
    if (Status s = Promote(); s.ok()) {
      auto_failovers_.fetch_add(1, std::memory_order_relaxed);
      TC_LOG_INFO << "auto-failover: promoted a follower; shard serving again";
    } else {
      TC_LOG_ERROR << "auto-failover: promotion failed, shard is headless: "
                   << s.ToString();
    }
  }
}

std::shared_ptr<server::ServerEngine> ReplicaSet::primary() const {
  ReaderMutexLock lock(state_mu_);
  return primary_;
}

std::shared_ptr<store::KvStore> ReplicaSet::primary_kv() const {
  ReaderMutexLock lock(state_mu_);
  return rkv_ ? rkv_->log() : nullptr;
}

size_t ReplicaSet::num_replicas() const {
  ReaderMutexLock lock(state_mu_);
  return replicas_.size();
}

size_t ReplicaSet::num_remote_followers() const {
  ReaderMutexLock lock(state_mu_);
  return remotes_.size();
}

std::vector<std::pair<std::string, uint64_t>> ReplicaSet::RemoteFollowerBytes()
    const {
  ReaderMutexLock lock(state_mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(remotes_.size());
  for (const auto& remote : remotes_) {
    out.emplace_back(remote.label,
                     rkv_ ? rkv_->follower_bytes(remote.rkv_index) : 0);
  }
  return out;
}

uint64_t ReplicaSet::log_end() const {
  ReaderMutexLock lock(state_mu_);
  return rkv_ ? rkv_->log()->Head().length : 0;
}

uint64_t ReplicaSet::MaxLagBytes() const {
  ReaderMutexLock lock(state_mu_);
  return rkv_ ? rkv_->MaxLagBytes() : 0;
}

uint64_t ReplicaSet::full_copies() const {
  ReaderMutexLock lock(state_mu_);
  return rkv_ ? rkv_->full_copies() : 0;
}

net::ClusterInfoResponse::ShardInfo ReplicaSet::ShardInfoSnapshot(
    uint32_t shard) const {
  net::ClusterInfoResponse::ShardInfo info;
  info.shard = shard;
  info.num_streams = NumStreams();
  info.index_bytes = TotalIndexBytes();
  info.replicas = static_cast<uint32_t>(num_replicas());
  info.ack_mode = ack_mode() == AckMode::kQuorum
                      ? net::ClusterInfoResponse::kAckQuorum
                      : net::ClusterInfoResponse::kAckAsync;
  info.max_lag_bytes = MaxLagBytes();
  info.remote_followers = static_cast<uint32_t>(num_remote_followers());
  info.auto_failover = auto_failover() ? 1 : 0;
  info.promotions = static_cast<uint32_t>(promotions());
  info.full_copies = full_copies();
  auto compaction = StoreCompaction();
  info.store_dead_bytes = compaction.dead_bytes;
  info.store_compactions = static_cast<uint32_t>(compaction.compactions);
  // Same values, shard-labeled, for the Prometheus exposition — one
  // source for both surfaces.
  char labels[32];
  std::snprintf(labels, sizeof(labels), "shard=\"%u\"", shard);
  metrics::GetGauge("tc_cluster_streams", labels)
      .Set(static_cast<int64_t>(info.num_streams));
  metrics::GetGauge("tc_cluster_index_bytes", labels)
      .Set(static_cast<int64_t>(info.index_bytes));
  metrics::GetGauge("tc_store_dead_bytes", labels)
      .Set(static_cast<int64_t>(info.store_dead_bytes));
  metrics::GetGauge("tc_store_compactions", labels)
      .Set(static_cast<int64_t>(info.store_compactions));
  metrics::GetGauge("tc_replica_lag_bytes", labels)
      .Set(static_cast<int64_t>(info.max_lag_bytes));
  metrics::GetGauge("tc_replica_promotions", labels)
      .Set(static_cast<int64_t>(info.promotions));
  return info;
}

store::KvStore::CompactionStats ReplicaSet::StoreCompaction() const {
  ReaderMutexLock lock(state_mu_);
  return primary_ ? primary_->StoreCompaction()
                  : store::KvStore::CompactionStats{};
}

size_t ReplicaSet::NumStreams() const {
  ReaderMutexLock lock(state_mu_);
  return primary_ ? primary_->NumStreams() : 0;
}

uint64_t ReplicaSet::TotalIndexBytes() const {
  ReaderMutexLock lock(state_mu_);
  return primary_ ? primary_->TotalIndexBytes() : 0;
}

size_t ReplicaSet::promotions() const {
  ReaderMutexLock lock(state_mu_);
  return promotions_;
}

Status ReplicaSet::WaitCaughtUp(int64_t timeout_ms) {
  AssertBlockingAllowed();
  // Snapshot the pipeline under the lock, drain it outside: holding
  // state_mu_ (even shared) across the catch-up wait would block Promote's
  // exclusive acquisition — and with it failover — for up to timeout_ms.
  // ReplicatedKvStore::WaitCaughtUp is safe on a detached snapshot; if a
  // promotion swaps rkv_ mid-wait we drain the old pipeline, which is
  // exactly the set of ops issued before this call.
  std::shared_ptr<ReplicatedKvStore> rkv;
  {
    ReaderMutexLock lock(state_mu_);
    rkv = rkv_;
  }
  if (!rkv) return Status::Ok();
  return rkv->WaitCaughtUp(timeout_ms);
}

}  // namespace tc::replica
