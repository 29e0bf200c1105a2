#include "replica/replicated_kv.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace tc::replica {

namespace {
/// Shipping-path metrics, shared by every ReplicatedKvStore in the process
/// (the per-instance counters keep serving the wire accessors; these feed
/// the Prometheus exposition).
struct ShipMetrics {
  metrics::LatencyHistogram& frame_bytes;  // log bytes per kReplicaLog
  metrics::LatencyHistogram& ack_us;       // kReplicaLog round trip
  metrics::Counter& shipped_bytes;
  metrics::Counter& full_copies;
};

ShipMetrics& Ship() {
  static ShipMetrics m{metrics::GetHistogram("tc_replica_frame_bytes"),
                       metrics::GetHistogram("tc_replica_ack_seconds"),
                       metrics::GetCounter("tc_replica_shipped_bytes_total"),
                       metrics::GetCounter("tc_replica_full_copies_total")};
  return m;
}

std::string Describe(const store::LogPosition& at) {
  return "generation " + std::to_string(at.generation) + " length " +
         std::to_string(at.length);
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

Result<std::shared_ptr<ReplicatedKvStore>> ReplicatedKvStore::Open(
    std::shared_ptr<store::LogKvStore> log, ReplicatedKvOptions options) {
  // Whatever this log held, its history may fork from here on: followers
  // holding bytes past this point (a tail this writer lost) must not be
  // resumed as if they matched.
  TC_RETURN_IF_ERROR(log->StartGeneration());
  return std::shared_ptr<ReplicatedKvStore>(
      new ReplicatedKvStore(std::move(log), options));
}

ReplicatedKvStore::ReplicatedKvStore(std::shared_ptr<store::LogKvStore> log,
                                     ReplicatedKvOptions options)
    : ForwardingKvStore(log), log_(std::move(log)), options_(options) {}

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

size_t ReplicatedKvStore::AddFollower(std::shared_ptr<Follower> follower,
                                      std::optional<store::LogPosition> at) {
  MutexLock lock(mu_);
  auto state = std::make_unique<FollowerState>();
  state->follower = std::move(follower);
  state->at = at;
  FollowerState* raw = state.get();
  followers_.push_back(std::move(state));
  raw->thread = std::thread([this, raw] { ShipperLoop(raw); });
  return followers_.size() - 1;
}

void ReplicatedKvStore::ReportPosition(size_t i, store::LogPosition at) {
  MutexLock lock(mu_);
  if (i >= followers_.size()) return;
  FollowerState& state = *followers_[i];
  if (state.at != at) {
    TC_LOG_WARN << "follower " << i << " reports its log at "
                << Describe(at) << ", not where it was shipped to";
  }
  state.at = at;
  state.copy.reset();
  state.stale = false;
  work_cv_.NotifyAll();
}

Status ReplicatedKvStore::Put(const std::string& key, BytesView value) {
  return Shipped(log_->Put(key, value));
}

Status ReplicatedKvStore::Delete(const std::string& key) {
  return Shipped(log_->Delete(key));
}

Result<size_t> ReplicatedKvStore::Append(const std::string& key,
                                         size_t expected_size,
                                         BytesView suffix) {
  auto grown = log_->Append(key, expected_size, suffix);
  TC_RETURN_IF_ERROR(Shipped(grown.status()));
  return grown;
}

Status ReplicatedKvStore::Shipped(Status written) {
  // A write the primary refused (a delete of a missing key, an append that
  // fails its length check) wrote nothing to ship.
  TC_RETURN_IF_ERROR(written);
  // Remember the writing request's trace context: the shipper re-stamps it
  // when it ships these bytes, so follower-side spans join the trace of
  // the ingest that wrote them (the last writer wins for a frame mixing
  // traces, exact for the common one-request burst).
  metrics::TraceContext ctx = metrics::OutgoingTraceContext();
  ship_trace_id_.store(ctx.trace_id, std::memory_order_relaxed);
  ship_parent_span_.store(ctx.parent_span_id, std::memory_order_relaxed);
  MutexLock lock(mu_);
  work_cv_.NotifyAll();
  if (options_.ack == AckMode::kAsync) return Status::Ok();
  // The log as it stands now covers this write's record; a majority of
  // the replica group (primary + N followers) holds it once (N+1)/2
  // followers do.
  const store::LogHead target = log_->Head();
  size_t needed = (followers_.size() + 1) / 2;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.quorum_timeout_ms);
  if (!WaitHolding(target, needed, deadline)) {
    // The primary holds the write; the caller must treat it as failed
    // (standard semi-sync degradation under follower loss).
    return Unavailable("quorum ack not reached for log offset " +
                       std::to_string(target.length));
  }
  return Status::Ok();
}

std::optional<uint64_t> ReplicatedKvStore::HeldBytes(
    const std::optional<store::LogPosition>& at, const store::LogHead& head) {
  if (!at) return std::nullopt;
  const store::LogGeneration& g = head.generation;
  // Raft's log-matching rule: a log in this generation, or in the one it
  // forked from up to where this one began, is a prefix of this log.
  bool prefix = at->generation == g.id ||
                (g.parent != 0 && g.replaced == 0 &&
                 at->generation == g.parent && at->length <= g.begin);
  if (!prefix || at->length > head.length) return std::nullopt;
  return at->length;
}

uint64_t ReplicatedKvStore::Progress(
    const std::optional<store::LogPosition>& at, const store::LogHead& head) {
  const store::LogGeneration& g = head.generation;
  if (auto held = HeldBytes(at, head)) return g.replaced + *held;
  if (!at || g.parent == 0 || at->generation != g.parent) return 0;
  // The parent's log is history up to where this generation took over:
  // all of it when a Compact rewrote it, its prefix when this one forked.
  return std::min(at->length, g.replaced != 0 ? g.replaced : g.begin);
}

size_t ReplicatedKvStore::CountHolding(const store::LogHead& target) const {
  const store::LogHead head = log_->Head();
  const uint64_t id = target.generation.id;
  const uint64_t needed =
      id == head.generation.id || id == head.generation.parent
          ? Progress(target.position(), head)
          : head.progress();
  return static_cast<size_t>(std::count_if(
      followers_.begin(), followers_.end(), [&](const auto& state) {
        return Progress(state->at, head) >= needed;
      }));
}

bool ReplicatedKvStore::WaitHolding(
    store::LogHead target, size_t needed,
    std::chrono::steady_clock::time_point deadline) {
  while (!stop_ && CountHolding(target) < needed) {
    if (ack_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
  return CountHolding(target) >= needed;
}

uint64_t ReplicatedKvStore::follower_bytes(size_t i) const {
  const store::LogHead head = log_->Head();
  MutexLock lock(mu_);
  if (i >= followers_.size()) return 0;
  return Progress(followers_[i]->at, head);
}

Status ReplicatedKvStore::follower_error(size_t i) const {
  MutexLock lock(mu_);
  if (i >= followers_.size()) return Status::Ok();
  return followers_[i]->last_error;
}

uint64_t ReplicatedKvStore::MaxLagBytes() const {
  const store::LogHead head = log_->Head();
  MutexLock lock(mu_);
  uint64_t lag = 0;
  for (const auto& state : followers_) {
    lag = std::max(lag, head.progress() - Progress(state->at, head));
  }
  return lag;
}

Status ReplicatedKvStore::WaitCaughtUp(int64_t timeout_ms) {
  AssertBlockingAllowed();
  const store::LogHead target = log_->Head();
  MutexLock lock(mu_);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  if (!WaitHolding(target, followers_.size(), deadline) && !stop_) {
    return Unavailable("followers did not catch up in time");
  }
  return Status::Ok();
}

void ReplicatedKvStore::BackoffAfterFailure(FollowerState* state,
                                            Status error) {
  state->last_error = error;
  ++state->consecutive_failures;
  if (state->consecutive_failures == 1 ||
      state->consecutive_failures % 64 == 0) {
    TC_LOG_WARN << "replica log shipment failed ("
                << state->consecutive_failures
                << " consecutive): " << error.ToString();
  }
  // Exponential backoff, 10ms doubling to a 5s cap: a dead follower costs
  // one retry every few seconds, not a hundred per second.
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

Result<ReplicatedKvStore::Shipment> ReplicatedKvStore::ShipOnce(
    FollowerState* state, std::optional<store::LogPosition> at,
    std::optional<store::LogPosition> copy) {
  if (!at) {
    TC_ASSIGN_OR_RETURN(store::LogPosition now,
                        state->follower->ShipLog({}, {}));
    return Shipment{now};
  }
  const store::LogHead head = log_->Head();
  std::optional<uint64_t> from = HeldBytes(at, head);
  // A log that is not a prefix of this one gets a copy of this one, from
  // offset 0 or from where a copy of this generation stands.
  store::LogPosition write_at{head.generation.id, 0};
  if (from) {
    write_at = *at;
  } else if (copy && copy->generation == head.generation.id) {
    write_at = *copy;
  }
  TC_ASSIGN_OR_RETURN(
      Bytes records,
      log_->ReadLog(head.generation.id, write_at.length, kLogFrameBytes));
  // Ship under the originating request's trace context so the follower's
  // replica_apply span lands in the same trace as the ingest.
  metrics::SetCurrentTraceContext(
      {ship_trace_id_.load(std::memory_order_relaxed),
       ship_parent_span_.load(std::memory_order_relaxed)});
  auto ship_start = std::chrono::steady_clock::now();
  auto landed = state->follower->ShipLog(write_at, records);
  metrics::SetCurrentTraceContext({});
  Ship().ack_us.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ship_start)
          .count()));
  TC_RETURN_IF_ERROR(landed.status());
  // Trust nothing: a follower that acks another length did not take the
  // frame as shipped, and its log cannot be counted as this one's prefix.
  if (landed->length != write_at.length + records.size()) {
    return Internal("follower acked " + Describe(*landed) + " after " +
                    std::to_string(records.size()) + " bytes shipped at " +
                    Describe(write_at));
  }
  Ship().frame_bytes.Record(records.size());
  Ship().shipped_bytes.Inc(records.size());
  if (!from && write_at.length == 0) {
    full_copies_.fetch_add(1, std::memory_order_relaxed);
    Ship().full_copies.Inc();
    trace::RecordEvent("log_copy", trace::kNoShard,
                       "follower was at " + Describe(*at));
  }
  // The copy replaced the follower's log once it took the record that
  // started this generation, at head.generation.begin.
  return Shipment{*landed, !from && landed->length <= head.generation.begin};
}

void ReplicatedKvStore::ShipperLoop(FollowerState* state) {
  // Hand-over-hand locking: the loop holds mu_ except across the blocking
  // follower call (ShipOnce), so it uses explicit lock()/unlock() on the
  // annotated mutex — the one pattern the scoped lockers cannot express.
  // Every back edge re-enters the loop with mu_ held; every return
  // releases it.
  mu_.lock();
  for (;;) {
    auto caught_up = [&]() REQUIRES(mu_) {
      const store::LogHead head = log_->Head();
      return HeldBytes(state->at, head) == head.length;
    };
    while (!stop_ && !state->stale && caught_up()) work_cv_.Wait(mu_);
    if (stop_) {
      mu_.unlock();
      return;
    }
    std::optional<store::LogPosition> at =
        state->stale ? std::nullopt : state->at;
    std::optional<store::LogPosition> copy = state->copy;
    mu_.unlock();
    auto shipped = ShipOnce(state, at, copy);
    mu_.lock();
    if (!shipped.ok()) {
      // The frame may or may not have landed, and the follower may have
      // restarted over another log: ask where it stands before shipping,
      // and start any copy over.
      state->stale = true;
      state->copy.reset();
      BackoffAfterFailure(state, shipped.status());
      continue;
    }
    if (shipped->copying) {
      state->copy = shipped->at;
    } else {
      state->at = shipped->at;
      state->copy.reset();
    }
    state->stale = false;
    state->last_error = Status::Ok();
    state->consecutive_failures = 0;
    ack_cv_.NotifyAll();
  }
}

}  // namespace tc::replica
