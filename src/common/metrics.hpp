// Process-wide metrics registry and request tracing.
//
// The record path is lock-free: Counter/Gauge/LatencyHistogram are plain
// relaxed atomics, and call sites hold a reference obtained once (function-
// local static) so steady state never touches the registry lock. The
// registry mutex only guards registration and snapshot iteration.
//
// LatencyHistogram buckets are powers of two over microseconds: bucket 0
// holds the value 0, bucket i (i >= 1) holds [2^(i-1), 2^i). Quantiles come
// from the cumulative bucket walk, reported as the bucket's upper bound
// clamped to the observed max — cheap, bounded error, and monotone
// (p50 <= p95 <= p99 <= max always holds in one snapshot).
//
// `TraceSpan` times one logical operation, splits it into named stages, and
// emits one structured slow-op WARN line when the total crosses the
// configured threshold (`tcserver --slow-op-ms`), carrying the per-request
// trace id the wire layer stamped on the handling thread.
//
// There is one build and it is instrumented. What recording costs is
// bounded by bench_cluster's two overhead gates (counter+histogram record
// and span, each under 250 ns; run in tier-1 as smoke_bench_cluster).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"

namespace tc::metrics {

/// Always true: metrics are always compiled in. Kept only for callers that
/// still read it; new code must not branch on it.
inline constexpr bool kEnabled = true;

/// Monotonic event count. Prometheus kind: counter (name them *_total).
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (queue depths, connection counts, lag).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Inc(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Dec(int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 32;
  uint64_t count = 0;    // sum of the copied buckets (self-consistent)
  uint64_t sum = 0;      // sum of recorded values (microseconds for timings)
  uint64_t max = 0;
  uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::array<uint64_t, kNumBuckets> buckets{};  // per-bucket counts
};

/// Power-of-two-bucket histogram; values are microseconds for latency
/// metrics but any uint64 works (batch sizes, queue depths).
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  void Record(uint64_t value) {
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (seen < value &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Bucket for a value: 0 -> 0, else bit width clamped to the last bucket.
  static size_t BucketIndex(uint64_t value) {
    size_t width = 0;
    while (value != 0) {
      ++width;
      value >>= 1;
    }
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket i (the last bucket is a catch-all).
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= kNumBuckets - 1) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

  /// Relaxed-copy snapshot: safe against concurrent Record; `count` is
  /// derived from the copied buckets so the quantiles are self-consistent
  /// (sum/max may trail the buckets by in-flight records).
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One collected metric, for the wire message and the text renderers.
struct MetricSample {
  enum class Kind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
  Kind kind = Kind::kCounter;
  std::string name;    // snake_case family, e.g. "tc_net_rx_bytes_total"
  std::string labels;  // 'k="v",k2="v2"' without braces; may be empty
  int64_t value = 0;   // counter/gauge value
  HistogramSnapshot hist;  // histogram only
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Get-or-create; the returned reference is valid for the process
  /// lifetime. Call once per site (function-local static) — registration
  /// takes the registry lock.
  Counter& GetCounter(std::string_view name, std::string_view labels = "");
  Gauge& GetGauge(std::string_view name, std::string_view labels = "");
  LatencyHistogram& GetHistogram(std::string_view name,
                                 std::string_view labels = "");

  /// Every registered metric, sorted by (name, labels).
  std::vector<MetricSample> Collect() const EXCLUDES(mu_);

  /// Prometheus text exposition (version 0.0.4). Histogram families whose
  /// name ends in "_seconds" are recorded in microseconds and rendered in
  /// seconds; quantiles ride along as <family>_{p50,p95,p99,max} gauges.
  std::string RenderPrometheus() const;

  /// Slow-op threshold for TraceSpan, in microseconds; 0 disables.
  void SetSlowOpMicros(uint64_t us) {
    slow_op_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t slow_op_micros() const {
    return slow_op_us_.load(std::memory_order_relaxed);
  }

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Counter>>
      counters_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Gauge>>
      gauges_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<LatencyHistogram>>
      histograms_ GUARDED_BY(mu_);
  std::atomic<uint64_t> slow_op_us_{0};
};

// Convenience: Instance() forwarders, for one-line function-local statics.
inline Counter& GetCounter(std::string_view name,
                           std::string_view labels = "") {
  return MetricsRegistry::Instance().GetCounter(name, labels);
}
inline Gauge& GetGauge(std::string_view name, std::string_view labels = "") {
  return MetricsRegistry::Instance().GetGauge(name, labels);
}
inline LatencyHistogram& GetHistogram(std::string_view name,
                                      std::string_view labels = "") {
  return MetricsRegistry::Instance().GetHistogram(name, labels);
}

// ---------------------------------------------------------------------------
// Request tracing.
// ---------------------------------------------------------------------------

/// Trace id of the request the current thread is handling (0 = none). The
/// wire layer stamps it before dispatching into the handler chain; TraceSpan
/// picks it up for slow-op lines.
uint64_t CurrentTraceId();

/// Distributed trace context: the origin trace id plus the span the current
/// work descends from. Carried in every frame header, stamped on the
/// handling thread by the wire layer, and re-stamped across executor hops
/// (the thread-locals do not follow a Submit).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// The raw thread-local context (trace id + inherited parent span id).
TraceContext CurrentTraceContext();
void SetCurrentTraceContext(TraceContext ctx);

/// Context to stamp on an outgoing frame or executor hop: the current trace
/// id, with the innermost live span of this thread as the parent (falling
/// back to the inherited parent when no span is open) — so a downstream
/// span links under the span that issued the call.
TraceContext OutgoingTraceContext();

/// Times one scope into a histogram (for sites that need no stage split).
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Times one logical operation with named stage splits. The span registers
/// itself on the thread (spans nest as a stack) so deep call sites can mark
/// stage boundaries via TraceSpan::StageMark without plumbing the span
/// through every signature. On destruction the total is recorded into
/// `total_hist` and, when it crosses the registry's slow-op threshold, one
/// structured WARN line is logged:
///   slow-op op=insert_chunk_batch trace=00000002000000a1 total_us=52181
///   stages=decode:112,store:9441,index:42510
class TraceSpan {
 public:
  /// Shard value for spans recorded outside any shard (mirrors
  /// trace::kNoShard; metrics.hpp stays below trace.hpp in the layering).
  static constexpr uint32_t kNoShard = 0xffffffffu;

  explicit TraceSpan(const char* op, LatencyHistogram* total_hist = nullptr,
                     uint32_t shard = kNoShard, uint8_t msg_type = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Close the stage that ran since the span start (or the previous Stage
  /// call), recording its duration into `hist` and the slow-op breakdown.
  void Stage(const char* name, LatencyHistogram* hist = nullptr);

  /// Stage boundary on the innermost live span of this thread; no-op when
  /// no span is open (e.g. an engine driven directly by a test).
  static void StageMark(const char* name, LatencyHistogram* hist = nullptr);

  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  static constexpr size_t kMaxStages = 8;
  struct StageRec {
    const char* name;
    uint64_t us;
  };

  const char* op_;
  LatencyHistogram* total_hist_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint32_t shard_ = kNoShard;
  uint8_t msg_type_ = 0;
  int64_t start_wall_us_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point stage_start_;
  std::array<StageRec, kMaxStages> stages_{};
  size_t num_stages_ = 0;
  TraceSpan* parent_ = nullptr;  // thread-local span stack
};

}  // namespace tc::metrics
