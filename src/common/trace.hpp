// Cluster-wide distributed tracing and the structured event journal.
//
// Two per-process sinks, both bounded:
//
//  - SpanRing: a lock-free ring of completed TraceSpans (trace id, span id,
//    parent, op, message type, shard, wall start, duration). Writers are
//    the TraceSpan destructor on request threads; the reader is the
//    kTraceInfo handler snapshotting for `tccli trace`. Slots are per-field
//    release/acquire atomics behind a per-slot version counter, so
//    concurrent record/snapshot is race-free by construction (a torn slot
//    is detected via the version and skipped, never blocked on).
//    Overwrites of old spans are counted in tc_trace_spans_dropped_total —
//    overflow is visible, not silent.
//
//  - EventJournal: a bounded deque of cluster lifecycle events (follower
//    hello/drop, view changes, elections, promotions, full log copies,
//    compactions, op-timeout storms) with a monotonically increasing seq,
//    queryable over kEventsInfo and optionally mirrored to a JSONL file
//    (`tcserver --event-log`). Events are rare, so a mutex is fine here;
//    drops are counted in tc_events_dropped_total.
//
// Head-based sampling: whether a trace is kept is a pure hash of its trace
// id against the configured percentage, so router, shard engines, and
// follower daemons agree on every trace without a wire flag — one sampled
// trace is sampled everywhere, or nowhere. Slow ops bypass sampling and are
// always retained.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace tc::trace {

/// Shard value for spans recorded outside any shard (router, follower net).
inline constexpr uint32_t kNoShard = 0xffffffffu;

/// One completed span, as drained by kTraceInfo. `op` points at a string
/// with static storage duration (message-type names and span literals).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  const char* op = "";
  uint8_t msg_type = 0;
  uint32_t shard = kNoShard;
  int64_t start_us = 0;  // wall clock, microseconds since the Unix epoch
  uint64_t duration_us = 0;
  bool slow = false;
};

/// Bounded lock-free ring of recent spans. Push never waits (one
/// fetch_add, a compare-exchange claiming the slot, release stores): a
/// Push whose slot another writer holds drops its span. Snapshot never
/// blocks a writer.
class SpanRing {
 public:
  static constexpr size_t kCapacity = 4096;  // power of two

  void Push(const SpanRecord& r);

  /// Every readable slot, unordered (callers sort by start_us). A slot
  /// mid-write (odd version, or version changed under the read) is skipped.
  std::vector<SpanRecord> Snapshot() const;

  /// Spans evicted by ring wrap, or dropped at a held slot, since process
  /// start.
  uint64_t dropped() const {
    uint64_t head = head_.load(std::memory_order_relaxed);
    return head > kCapacity ? head - kCapacity : 0;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> ver{0};  // odd = write in progress
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span_id{0};
    std::atomic<const char*> op{nullptr};
    // packed: shard << 32 | msg_type << 8 | slow
    std::atomic<uint64_t> meta{0};
    std::atomic<int64_t> start_us{0};
    std::atomic<uint64_t> duration_us{0};
  };

  std::array<Slot, kCapacity> slots_{};
  std::atomic<uint64_t> head_{0};
};

/// The process-wide span ring (one per process: router and its in-process
/// shard engines share it, a follower daemon has its own).
SpanRing& Ring();

/// Record one completed span (TraceSpan's destructor path).
void RecordSpan(const SpanRecord& r);

/// Head-based sampling percentage in [0, 100]; default 100 (keep all).
void SetSamplePercent(uint32_t pct);

/// Pure hash of the trace id against the sample percentage — every process
/// in the cluster answers the same for the same trace.
bool Sampled(uint64_t trace_id);

/// One journal entry. `kind` is a snake_case literal naming the event
/// class; `detail` is free-form context (endpoints, seqs, counts).
struct Event {
  uint64_t seq = 0;
  int64_t wall_ms = 0;  // wall clock, milliseconds since the Unix epoch
  std::string kind;
  uint32_t shard = 0;
  std::string detail;
};

/// Bounded in-memory journal of cluster lifecycle events, optionally
/// mirrored to a JSONL file. Thread-safe; events are rare enough that the
/// mutex never contends with the request path.
class EventJournal {
 public:
  static constexpr size_t kCapacity = 1024;

  static EventJournal& Instance();

  void Record(const char* kind, uint32_t shard, std::string detail)
      EXCLUDES(mu_);

  /// Events with seq >= min_seq, oldest first.
  std::vector<Event> Snapshot(uint64_t min_seq = 0) const EXCLUDES(mu_);

  /// Events evicted by the capacity bound since process start.
  uint64_t dropped() const EXCLUDES(mu_);

  /// Mirror every subsequent event as one JSON line appended to `path`.
  Status OpenLogFile(const std::string& path) EXCLUDES(mu_);

 private:
  EventJournal() = default;

  mutable Mutex mu_;
  std::deque<Event> events_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::FILE* log_ GUARDED_BY(mu_) = nullptr;
};

/// Record one lifecycle event in the process journal.
inline void RecordEvent(const char* kind, uint32_t shard,
                        std::string detail) {
  EventJournal::Instance().Record(kind, shard, std::move(detail));
}

}  // namespace tc::trace
