#include "replica/replica_set.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace tc::replica {

std::vector<size_t> RankCandidates(const std::vector<Candidate>& candidates) {
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Candidate& x = candidates[a];
    const Candidate& y = candidates[b];
    if (x.progress != y.progress) return x.progress > y.progress;
    return x.label < y.label;
  });
  return order;
}

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
  auto set = std::shared_ptr<ReplicaSet>(new ReplicaSet());
  set->engine_options_ = engine_options;
  set->options_ = options;
  {
    // The set has not escaped yet; the lock is uncontended but keeps the
    // topology writes under the same capability as every other access.
    WriterMutexLock lock(set->state_mu_);
    for (auto& log : follower_logs) {
      // The read engine recovers whatever the follower log holds right
      // now; shipping lands asynchronously and the first read past it
      // triggers a Refresh.
      set->replicas_.push_back(
          {std::make_shared<ReplicaApplier>(std::move(log), engine_options)});
    }
    TC_RETURN_IF_ERROR(set->LeadLocked(std::move(primary_log)));
  }
  if (!follower_logs.empty()) {
    set->monitor_ = std::make_unique<PeriodicThread>(
        std::chrono::milliseconds(options.failover.heartbeat_ms),
        [raw = set.get()] { raw->ProbePrimary(); });
  }
  return set;
}

ReplicaSet::~ReplicaSet() { monitor_.reset(); }

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

Status ReplicaSet::LeadLocked(std::shared_ptr<store::LogKvStore> log) {
  const store::LogKvStore* leader = log.get();
  TC_ASSIGN_OR_RETURN(auto rkv,
                      ReplicatedKvStore::Open(std::move(log), options_.kv));
  for (auto& replica : replicas_) {
    if (replica.applier->log().get() == leader) continue;  // promoted
    // The shipper reaches the applier through the frames a follower daemon
    // receives. A follower whose log is a prefix of the leader's resumes
    // from its length; one that holds more (an async tail a promoted
    // follower never got) is copied from the start.
    replica.rkv_index = rkv->AddFollower(
        std::make_shared<RemoteFollower>(
            std::make_shared<net::InProcTransport>(replica.applier)),
        replica.applier->position());
  }
  // Remote daemons keep following across a failover: attach their
  // shippers to the new pipeline, which asks where their logs stand.
  for (auto& remote : remotes_) {
    remote.rkv_index = rkv->AddFollower(remote.follower);
  }
  // Full recovery through the replicated store (reads pass straight to the
  // log): streams, grants, witness trees — the complete history it holds.
  primary_ = std::make_shared<server::ServerEngine>(rkv, engine_options_);
  rkv_ = std::move(rkv);
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
  std::vector<Candidate> candidates;
  for (const auto& replica : replicas_) {
    candidates.push_back({replica.applier->log()->path(), replica.final_bytes});
  }
  const size_t best = RankCandidates(candidates).front();
  TC_RETURN_IF_ERROR(LeadLocked(replicas_[best].applier->log()));
  replicas_.erase(replicas_.begin() + best);
  // Settle the survivors before reads resume (we hold state_mu_ exclusive,
  // so nothing serves mid-promotion): wait out their catch-up. Each applier
  // refreshes its read engine on the first read after it.
  // Blocking under the lock is the point: the exclusive state_mu_ hold IS
  // the promotion barrier, and serving resumes only after the survivors
  // settle.
  {
    ScopedAllowBlocking allow;
    if (Status s = rkv_->WaitCaughtUp(options_.kv.quorum_timeout_ms);
        !s.ok()) {
      TC_LOG_WARN << "promotion: survivors still catching up: "
                  << s.ToString();
    }
  }
  dropped_ = false;
  ++promotions_;
  return Status::Ok();
}

void ReplicaSet::ProbePrimary() {
  std::shared_ptr<store::KvStore> primary_kv;
  {
    ReaderMutexLock lock(state_mu_);
    // A dropped primary is someone else's drill, and a set without a local
    // replica left has nothing to promote: only probe a live pipeline that
    // one could take over.
    if (!rkv_ || replicas_.empty()) {
      failing_since_.reset();
      return;
    }
    primary_kv = rkv_->log();
  }
  // The probe is a store read: NotFound is a healthy store answering
  // honestly; only transport/IO-level failures count.
  auto probe = primary_kv->Get(kShardMetaKey);
  if (probe.ok() || probe.status().code() == StatusCode::kNotFound) {
    failing_since_.reset();
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!failing_since_) failing_since_ = now;
  const std::chrono::milliseconds takeover(options_.failover.takeover_ms);
  if (now - *failing_since_ < takeover) return;
  failing_since_.reset();
  TC_LOG_WARN << "failover: primary store failed every probe for "
              << takeover.count() << " ms (" << probe.status().ToString()
              << "); dropping and promoting";
  if (Status s = DropPrimary(); !s.ok()) {
    TC_LOG_WARN << "failover: drop failed: " << s.ToString();
    return;
  }
  if (Status s = Promote(); s.ok()) {
    TC_LOG_INFO << "failover: promoted a follower; shard serving again";
  } else {
    TC_LOG_ERROR << "failover: promotion failed, shard is headless: "
                 << s.ToString();
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
  // The monitor promotes a local replica; without one it has none to.
  info.auto_failover = info.replicas > 0 ? 1 : 0;
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
