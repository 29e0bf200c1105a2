#include "replica/replicated_kv.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "crypto/rand.hpp"
#include "net/messages.hpp"

namespace tc::replica {

namespace {
/// Max ops per ApplyOps shipment (one wire frame for remote followers).
constexpr size_t kShipBatchOps = 256;

/// Shipping-path metrics, shared by every ReplicatedKvStore in the process
/// (the per-instance atomics keep serving the wire accessors; these feed
/// the Prometheus exposition).
struct ShipMetrics {
  metrics::LatencyHistogram& batch_ops;  // ops per ApplyOps shipment
  metrics::LatencyHistogram& ack_us;     // ApplyOps round-trip latency
  metrics::Counter& snapshots;
  metrics::Counter& snapshot_chunks;
};

ShipMetrics& Ship() {
  static ShipMetrics m{
      metrics::GetHistogram("tc_replica_ship_batch_ops"),
      metrics::GetHistogram("tc_replica_ack_seconds"),
      metrics::GetCounter("tc_replica_snapshots_total"),
      metrics::GetCounter("tc_replica_snapshot_chunks_total")};
  return m;
}
}  // namespace

std::string_view AckModeName(AckMode mode) {
  switch (mode) {
    case AckMode::kAsync: return "async";
    case AckMode::kQuorum: return "quorum";
  }
  return "?";
}

uint64_t StoreFingerprint(const store::KvStore& kv) {
  // Only the bytes matter here, not the decoded (shard, count) pair.
  auto meta = kv.Get(kShardMetaKey);
  if (!meta.ok()) return 0;
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (uint8_t b : *meta) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;  // 0 is reserved for "no layout bound"
}

ReplicatedKvStore::ReplicatedKvStore(std::shared_ptr<store::KvStore> primary,
                                     ReplicatedKvOptions options)
    : ForwardingKvStore(std::move(primary)),
      options_(options),
      origin_(crypto::RandomU64() | 1) {
  if (options_.max_log_ops == 0) options_.max_log_ops = 1;
  if (options_.snapshot_chunk_entries == 0) options_.snapshot_chunk_entries = 1;
  if (options_.snapshot_chunk_bytes == 0) options_.snapshot_chunk_bytes = 1;
}

ReplicatedKvStore::~ReplicatedKvStore() {
  // Joining must happen with mu_ released (shippers take it to exit), so
  // move the handles out under the lock first.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    stop_ = true;
    work_cv_.NotifyAll();
    ack_cv_.NotifyAll();
    to_join.reserve(followers_.size());
    for (auto& state : followers_) to_join.push_back(std::move(state->thread));
  }
  for (auto& t : to_join) {
    if (t.joinable()) t.join();
  }
}

size_t ReplicatedKvStore::AddFollower(std::shared_ptr<Follower> follower) {
  MutexLock lock(mu_);
  auto state = std::make_unique<FollowerState>();
  state->follower = std::move(follower);
  FollowerState* raw = state.get();
  followers_.push_back(std::move(state));
  raw->thread = std::thread([this, raw] { ShipperLoop(raw); });
  work_cv_.NotifyAll();
  return followers_.size() - 1;
}

Status ReplicatedKvStore::Put(const std::string& key, BytesView value) {
  return Replicate(net::kReplicaOpPut, key, value);
}

Status ReplicatedKvStore::Delete(const std::string& key) {
  return Replicate(net::kReplicaOpDelete, key, {});
}

Result<size_t> ReplicatedKvStore::Append(const std::string& key,
                                         size_t expected_size,
                                         BytesView suffix) {
  TC_RETURN_IF_ERROR(
      Replicate(net::kReplicaOpAppend, key, suffix, expected_size));
  return expected_size + suffix.size();
}

Status ReplicatedKvStore::Replicate(uint8_t kind, const std::string& key,
                                    BytesView value, uint64_t expected_size) {
  uint64_t seq;
  {
    // The primary mutation and its log position must be assigned under one
    // lock: if two writers raced the same key with apply order and log
    // order disagreeing, followers would converge to the wrong value.
    MutexLock lock(mu_);
    // A mutation the primary rejects (a delete of a missing key, an append
    // that fails its length check) is not replicated.
    switch (kind) {
      case net::kReplicaOpPut:
        TC_RETURN_IF_ERROR(primary()->Put(key, value));
        break;
      case net::kReplicaOpAppend:
        TC_RETURN_IF_ERROR(
            primary()->Append(key, expected_size, value).status());
        break;
      default:
        TC_RETURN_IF_ERROR(primary()->Delete(key));
    }
    seq = head_seq_.load(std::memory_order_relaxed) + 1;
    log_.push_back(
        {seq, kind, key, Bytes(value.begin(), value.end()), expected_size});
    head_seq_.store(seq, std::memory_order_release);
    // Remember the writing request's trace context: the shipper thread
    // re-stamps it when it ships this tail, so follower-side spans join the
    // trace of the ingest that produced the ops (approximate for a batch
    // mixing traces — the last writer wins — but exact for the common
    // one-request burst).
    metrics::TraceContext ctx = metrics::OutgoingTraceContext();
    ship_trace_id_.store(ctx.trace_id, std::memory_order_relaxed);
    ship_parent_span_.store(ctx.parent_span_id, std::memory_order_relaxed);
    while (log_.size() > options_.max_log_ops) {
      log_.pop_front();
      ++log_first_seq_;
    }
    work_cv_.NotifyAll();
  }
  if (options_.ack == AckMode::kAsync) return Status::Ok();

  MutexLock lock(mu_);
  size_t needed = QuorumFollowerAcksLocked();
  if (needed == 0) return Status::Ok();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.quorum_timeout_ms);
  while (!stop_ && AckCountLocked(seq) < needed) {
    if (ack_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
  if (AckCountLocked(seq) < needed) {
    // The primary holds the write; the caller must treat it as failed
    // (standard semi-sync degradation under follower loss).
    return Unavailable("quorum ack not reached for seq " +
                       std::to_string(seq));
  }
  return Status::Ok();
}

uint64_t ReplicatedKvStore::follower_seq(size_t i) const {
  MutexLock lock(mu_);
  if (i >= followers_.size()) return 0;
  return followers_[i]->applied_seq.load(std::memory_order_acquire);
}

Status ReplicatedKvStore::follower_error(size_t i) const {
  MutexLock lock(mu_);
  if (i >= followers_.size()) return Status::Ok();
  return followers_[i]->last_error;
}

void ReplicatedKvStore::MarkNeedsSnapshot(size_t i) {
  MutexLock lock(mu_);
  if (i >= followers_.size()) return;
  followers_[i]->needs_snapshot = true;
  followers_[i]->applied_seq.store(0, std::memory_order_release);
  work_cv_.NotifyAll();
}

uint64_t ReplicatedKvStore::MaxLagOps() const {
  MutexLock lock(mu_);
  uint64_t head = head_seq_.load(std::memory_order_acquire);
  uint64_t lag = 0;
  for (const auto& state : followers_) {
    uint64_t applied = state->applied_seq.load(std::memory_order_acquire);
    lag = std::max(lag, head - std::min(head, applied));
  }
  return lag;
}

bool ReplicatedKvStore::AllCaughtUpLocked(uint64_t target) const {
  return std::all_of(followers_.begin(), followers_.end(),
                     [&](const auto& s) {
                       return !s->needs_snapshot &&
                              s->applied_seq.load() >= target;
                     });
}

Status ReplicatedKvStore::WaitCaughtUp(int64_t timeout_ms) {
  AssertBlockingAllowed();
  MutexLock lock(mu_);
  uint64_t target = head_seq_.load(std::memory_order_acquire);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!stop_ && !AllCaughtUpLocked(target)) {
    if (ack_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
  if (!stop_ && !AllCaughtUpLocked(target)) {
    return Unavailable("followers did not catch up in time");
  }
  return Status::Ok();
}

size_t ReplicatedKvStore::AckCountLocked(uint64_t seq) const {
  size_t n = 0;
  for (const auto& state : followers_) {
    if (state->applied_seq.load(std::memory_order_acquire) >= seq) ++n;
  }
  return n;
}

size_t ReplicatedKvStore::QuorumFollowerAcksLocked() const {
  // Majority of the replica group (primary + N followers), minus the
  // primary's own copy: ceil((N+1+1)/2) - 1 == (N+1)/2 follower acks.
  return (followers_.size() + 1) / 2;
}

void ReplicatedKvStore::BackoffAfterFailure(FollowerState* state,
                                            const char* what, Status error) {
  state->last_error = error;
  ++state->consecutive_failures;
  if (state->consecutive_failures == 1 ||
      state->consecutive_failures % 64 == 0) {
    TC_LOG_WARN << "replica " << what << " failed ("
                << state->consecutive_failures
                << " consecutive): " << error.ToString();
  }
  // Exponential backoff, 10ms doubling to a 5s cap: a dead follower costs
  // one retry (and on the snapshot path one key scan) every few seconds,
  // not a hundred per second.
  uint64_t shift = std::min<uint64_t>(state->consecutive_failures - 1, 9);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      std::min<int64_t>(10 << shift, 5000));
  // Sleep out the backoff under mu_ (the wait releases it), bailing early
  // only on stop.
  while (!stop_) {
    if (work_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
}

Status ReplicatedKvStore::StreamSnapshot(FollowerState* state,
                                         uint64_t snap_seq) {
  // Key list first, values fetched per chunk: peak shipper memory is the
  // key list plus one bounded chunk, never the whole store. The sorted
  // order is deterministic for a fixed key set, which is what lets an
  // interrupted stream resume: the same snap_seq implies no mutations since
  // it was pinned, hence the same keys in the same order.
  std::vector<std::string> keys;
  TC_RETURN_IF_ERROR(primary()->Scan([&](const std::string& key, BytesView) {
    if (!std::string_view(key).starts_with(kReplicaMetaPrefix)) {
      keys.push_back(key);
    }
  }));
  std::sort(keys.begin(), keys.end());

  TC_ASSIGN_OR_RETURN(uint64_t resume,
                      state->follower->BeginSnapshot(origin_, snap_seq));
  trace::RecordEvent("snapshot_stream_begin", trace::kNoShard,
                     "snap_seq=" + std::to_string(snap_seq) +
                         " resume=" + std::to_string(resume) +
                         " keys=" + std::to_string(keys.size()));

  std::vector<SnapshotEntry> chunk;
  size_t chunk_bytes = 0;
  uint64_t chunk_first = resume;
  auto flush = [&]() -> Status {
    if (chunk.empty()) return Status::Ok();
    TC_RETURN_IF_ERROR(
        state->follower->ApplySnapshotChunk(snap_seq, chunk_first, chunk));
    snapshot_chunks_.fetch_add(1, std::memory_order_relaxed);
    Ship().snapshot_chunks.Inc();
    chunk_first += chunk.size();
    chunk.clear();
    chunk_bytes = 0;
    return Status::Ok();
  };

  uint64_t stream_index = 0;  // position among entries that resolved
  for (const auto& key : keys) {
    auto value = primary()->Get(key);
    if (!value.ok()) {
      // Deleted while we walked the list: the op log replays the delete
      // after the snapshot lands, and End reconciles diverged holders.
      if (value.status().code() == StatusCode::kNotFound) continue;
      return value.status();
    }
    if (stream_index++ < resume) continue;  // follower already holds it
    chunk_bytes += key.size() + value->size();
    chunk.emplace_back(key, std::move(*value));
    if (chunk.size() >= options_.snapshot_chunk_entries ||
        chunk_bytes >= options_.snapshot_chunk_bytes) {
      TC_RETURN_IF_ERROR(flush());
    }
  }
  TC_RETURN_IF_ERROR(flush());
  TC_RETURN_IF_ERROR(state->follower->EndSnapshot(snap_seq, stream_index));
  trace::RecordEvent("snapshot_stream_end", trace::kNoShard,
                     "snap_seq=" + std::to_string(snap_seq) + " entries=" +
                         std::to_string(stream_index));
  return Status::Ok();
}

void ReplicatedKvStore::ShipperLoop(FollowerState* state) {
  // Hand-over-hand locking: the loop holds mu_ except across the blocking
  // follower calls (StreamSnapshot/ApplyOps), so it uses explicit
  // lock()/unlock() on the annotated mutex — the one pattern the scoped
  // lockers cannot express. Every back edge re-enters the loop with mu_
  // held; every return releases it.
  mu_.lock();
  for (;;) {
    while (!stop_ && !state->needs_snapshot &&
           state->applied_seq.load(std::memory_order_relaxed) >=
               head_seq_.load(std::memory_order_relaxed)) {
      work_cv_.Wait(mu_);
    }
    if (stop_) {
      mu_.unlock();
      return;
    }

    uint64_t applied = state->applied_seq.load(std::memory_order_relaxed);
    if (state->needs_snapshot || applied + 1 < log_first_seq_) {
      // Behind the retained window (or fresh): snapshot catch-up. Pinning
      // snap_seq under mu_ guarantees every op <= snap_seq is visible to
      // the key scan; ops that race in during the stream are harmlessly
      // re-applied afterwards (in-order replay converges: puts overwrite,
      // and an append the snapshot already holds is recognised and
      // skipped).
      uint64_t snap_seq = head_seq_.load(std::memory_order_relaxed);
      mu_.unlock();
      Status s = StreamSnapshot(state, snap_seq);
      mu_.lock();
      if (!s.ok()) {
        BackoffAfterFailure(state, "snapshot", s);
        continue;
      }
      state->last_error = Status::Ok();
      state->consecutive_failures = 0;
      state->needs_snapshot = false;
      if (state->applied_seq.load(std::memory_order_relaxed) < snap_seq) {
        state->applied_seq.store(snap_seq, std::memory_order_release);
      }
      snapshots_.fetch_add(1, std::memory_order_relaxed);
      Ship().snapshots.Inc();
      ack_cv_.NotifyAll();
      continue;
    }

    // Stream the next batch from the retained window.
    size_t offset = static_cast<size_t>(applied + 1 - log_first_seq_);
    size_t count = std::min(kShipBatchOps, log_.size() - offset);
    std::vector<LoggedOp> batch(log_.begin() + offset,
                                log_.begin() + offset + count);
    mu_.unlock();
    // Ship under the originating request's trace context so the follower's
    // replica_ops span lands in the same trace as the ingest.
    metrics::SetCurrentTraceContext(
        {ship_trace_id_.load(std::memory_order_relaxed),
         ship_parent_span_.load(std::memory_order_relaxed)});
    auto ship_start = std::chrono::steady_clock::now();
    Status s = state->follower->ApplyOps(batch);
    metrics::SetCurrentTraceContext({});
    Ship().batch_ops.Record(batch.size());
    Ship().ack_us.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - ship_start)
            .count()));
    mu_.lock();
    if (!s.ok()) {
      if (s.code() == StatusCode::kFailedPrecondition) {
        // The follower cannot take this run at all — it restarted or lost
        // state since we last saw it (a sequence gap, not a transient
        // fault). Re-seed it instead of retrying the same frame forever.
        TC_LOG_WARN << "replica op shipment rejected, re-seeding follower: "
                    << s.ToString();
        trace::RecordEvent("follower_reseed", trace::kNoShard,
                           s.ToString());
        state->last_error = s;
        state->needs_snapshot = true;
        // Our view of its progress is wrong too; restart from the stream.
        state->applied_seq.store(0, std::memory_order_release);
        continue;
      }
      BackoffAfterFailure(state, "op shipment", s);
      continue;
    }
    state->last_error = Status::Ok();
    state->consecutive_failures = 0;
    uint64_t last = batch.back().seq;
    if (state->applied_seq.load(std::memory_order_relaxed) < last) {
      state->applied_seq.store(last, std::memory_order_release);
    }
    ack_cv_.NotifyAll();
  }
}

}  // namespace tc::replica
