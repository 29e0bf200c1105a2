#include "common/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hpp"
#include "common/trace.hpp"

namespace tc::metrics {

namespace {

thread_local uint64_t g_trace_id = 0;
thread_local uint64_t g_parent_span_id = 0;
thread_local TraceSpan* g_current_span = nullptr;

/// Process-unique span ids: a counter seeded from clock/pid/ASLR entropy so
/// two processes in one cluster allocate from disjoint ranges (span ids
/// must be unique within a trace tree, which crosses processes).
uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{[] {
    uint64_t x = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    x ^= static_cast<uint64_t>(getpid()) << 32;
    x ^= reinterpret_cast<uintptr_t>(&g_trace_id);
    // splitmix64 finalizer, then keep ids nonzero.
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x | 1;
  }()};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// Quantile from a cumulative bucket walk: upper bound of the first bucket
/// whose cumulative count reaches rank ceil(q * count), clamped to max.
uint64_t Quantile(const HistogramSnapshot& s, double q) {
  if (s.count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(s.count));
  if (rank < 1) rank = 1;
  if (rank > s.count) rank = s.count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
    cumulative += s.buckets[i];
    if (cumulative >= rank) {
      return std::min(LatencyHistogram::BucketUpperBound(i), s.max);
    }
  }
  return s.max;
}

template <typename Map, typename Metric>
Metric& GetOrCreate(Map& map, std::string_view name, std::string_view labels) {
  auto key = std::make_pair(std::string(name), std::string(labels));
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(std::move(key), std::make_unique<Metric>()).first;
  }
  return *it->second;
}

/// Append one exposition value: integers stay integral, else shortest float.
void AppendValue(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

void AppendSample(std::string& out, const std::string& name,
                  const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  AppendValue(out, value);
  out += '\n';
}

}  // namespace

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot s;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.p50 = Quantile(s, 0.50);
  s.p95 = Quantile(s, 0.95);
  s.p99 = Quantile(s, 0.99);
  return s;
}

namespace {

const char* SanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

}  // namespace

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();  // never torn down
    // Value is always 1; the labels carry the build identity so one scrape
    // answers "what is this binary" (version, sanitizer) without shell
    // access to the host.
    std::string labels = "version=\"8\",sanitizer=\"";
    labels += SanitizerName();
    labels += '"';
    r->GetGauge("tc_build_info", labels).Set(1);
    return r;
  }();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view labels) {
  MutexLock lock(mu_);
  return GetOrCreate<decltype(counters_), Counter>(counters_, name, labels);
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view labels) {
  MutexLock lock(mu_);
  return GetOrCreate<decltype(gauges_), Gauge>(gauges_, name, labels);
}

LatencyHistogram& MetricsRegistry::GetHistogram(std::string_view name,
                                                std::string_view labels) {
  MutexLock lock(mu_);
  return GetOrCreate<decltype(histograms_), LatencyHistogram>(histograms_,
                                                              name, labels);
}

std::vector<MetricSample> MetricsRegistry::Collect() const {
  std::vector<MetricSample> samples;
  MutexLock lock(mu_);
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, counter] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = key.first;
    s.labels = key.second;
    s.value = static_cast<int64_t>(counter->value());
    samples.push_back(std::move(s));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = key.first;
    s.labels = key.second;
    s.value = gauge->value();
    samples.push_back(std::move(s));
  }
  for (const auto& [key, hist] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = key.first;
    s.labels = key.second;
    s.hist = hist->Snapshot();
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return samples;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::vector<MetricSample> samples = Collect();
  std::string out;
  out.reserve(4096);
  std::string last_family;
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
      case MetricSample::Kind::kGauge: {
        if (s.name != last_family) {
          out += "# TYPE " + s.name + " ";
          out += s.kind == MetricSample::Kind::kCounter ? "counter" : "gauge";
          out += '\n';
          last_family = s.name;
        }
        AppendSample(out, s.name, s.labels, static_cast<double>(s.value));
        break;
      }
      case MetricSample::Kind::kHistogram: {
        // "_seconds" families are recorded in microseconds, exposed in
        // seconds (Prometheus base-unit convention); others are unit-less.
        bool seconds = s.name.size() > 8 &&
                       s.name.compare(s.name.size() - 8, 8, "_seconds") == 0;
        double scale = seconds ? 1e-6 : 1.0;
        if (s.name != last_family) {
          out += "# TYPE " + s.name + " histogram\n";
          last_family = s.name;
        }
        uint64_t cumulative = 0;
        for (size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
          cumulative += s.hist.buckets[i];
          if (s.hist.buckets[i] == 0 && i + 1 < HistogramSnapshot::kNumBuckets)
            continue;  // keep the exposition small: skip empty interior rows
          std::string le_labels = s.labels;
          if (!le_labels.empty()) le_labels += ',';
          uint64_t bound = LatencyHistogram::BucketUpperBound(i);
          if (i + 1 == HistogramSnapshot::kNumBuckets || bound == UINT64_MAX) {
            le_labels += "le=\"+Inf\"";
          } else {
            le_labels += "le=\"";
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.9g",
                          static_cast<double>(bound) * scale);
            le_labels += buf;
            le_labels += '"';
          }
          AppendSample(out, s.name + "_bucket", le_labels,
                       static_cast<double>(cumulative));
        }
        AppendSample(out, s.name + "_sum", s.labels,
                     static_cast<double>(s.hist.sum) * scale);
        AppendSample(out, s.name + "_count", s.labels,
                     static_cast<double>(s.hist.count));
        // Quantiles ride along as derived gauges (the acceptance surface:
        // per-message-type latency quantiles in one scrape).
        AppendSample(out, s.name + "_p50", s.labels,
                     static_cast<double>(s.hist.p50) * scale);
        AppendSample(out, s.name + "_p95", s.labels,
                     static_cast<double>(s.hist.p95) * scale);
        AppendSample(out, s.name + "_p99", s.labels,
                     static_cast<double>(s.hist.p99) * scale);
        AppendSample(out, s.name + "_max", s.labels,
                     static_cast<double>(s.hist.max) * scale);
        break;
      }
    }
  }
  return out;
}

uint64_t CurrentTraceId() { return g_trace_id; }

TraceContext CurrentTraceContext() {
  return TraceContext{g_trace_id, g_parent_span_id};
}

void SetCurrentTraceContext(TraceContext ctx) {
  g_trace_id = ctx.trace_id;
  g_parent_span_id = ctx.parent_span_id;
}

TraceContext OutgoingTraceContext() {
  if (g_current_span != nullptr) {
    return TraceContext{g_trace_id, g_current_span->span_id()};
  }
  return TraceContext{g_trace_id, g_parent_span_id};
}

TraceSpan::TraceSpan(const char* op, LatencyHistogram* total_hist,
                     uint32_t shard, uint8_t msg_type)
    : op_(op), total_hist_(total_hist), shard_(shard), msg_type_(msg_type) {
  trace_id_ = g_trace_id;
  span_id_ = NextSpanId();
  parent_ = g_current_span;
  parent_span_id_ =
      parent_ != nullptr ? parent_->span_id_ : g_parent_span_id;
  start_wall_us_ = WallUs();
  start_ = stage_start_ = std::chrono::steady_clock::now();
  g_current_span = this;
}

void TraceSpan::Stage(const char* name, LatencyHistogram* hist) {
  auto now = std::chrono::steady_clock::now();
  uint64_t us = ElapsedUs(stage_start_, now);
  stage_start_ = now;
  if (hist != nullptr) hist->Record(us);
  if (num_stages_ < kMaxStages) stages_[num_stages_++] = {name, us};
}

TraceSpan::~TraceSpan() {
  g_current_span = parent_;
  uint64_t total_us = ElapsedUs(start_, std::chrono::steady_clock::now());
  if (total_hist_ != nullptr) total_hist_->Record(total_us);
  uint64_t threshold = MetricsRegistry::Instance().slow_op_micros();
  bool slow = threshold != 0 && total_us >= threshold;
  // Head-based sampling decides span collection by hashing the trace id, so
  // every process keeps (or drops) the same traces; slow ops always land.
  if (slow || trace::Sampled(trace_id_)) {
    trace::SpanRecord record;
    record.trace_id = trace_id_;
    record.span_id = span_id_;
    record.parent_span_id = parent_span_id_;
    record.op = op_;
    record.msg_type = msg_type_;
    record.shard = shard_;
    record.start_us = start_wall_us_;
    record.duration_us = total_us;
    record.slow = slow;
    trace::RecordSpan(record);
  }
  if (!slow) return;
  static Counter& slow_ops = GetCounter("tc_server_slow_ops_total");
  slow_ops.Inc();
  std::string stages;
  for (size_t i = 0; i < num_stages_; ++i) {
    if (i > 0) stages += ',';
    stages += stages_[i].name;
    stages += ':';
    stages += std::to_string(stages_[i].us);
  }
  char trace[24];
  std::snprintf(trace, sizeof(trace), "%016" PRIx64, trace_id_);
  TC_LOG_WARN << "slow-op op=" << op_ << " trace=" << trace
              << " total_us=" << total_us << " stages=" << stages;
}

void TraceSpan::StageMark(const char* name, LatencyHistogram* hist) {
  if (g_current_span != nullptr) g_current_span->Stage(name, hist);
}

}  // namespace tc::metrics
