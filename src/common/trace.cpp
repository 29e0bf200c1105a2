#include "common/trace.hpp"

#include <chrono>

#include "common/metrics.hpp"

namespace tc::trace {

namespace {

std::atomic<uint32_t> g_sample_pct{100};

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: a cheap avalanching hash so the sampling decision is
/// uniform over the low bits of the (structured) trace id.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void SpanRing::Push(const SpanRecord& r) {
  uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= kCapacity) {
    // One span leaves the ring per push past capacity: the evicted one, or
    // this one when it is dropped below.
    static metrics::Counter& dropped =
        metrics::GetCounter("tc_trace_spans_dropped_total");
    dropped.Inc();
  }
  Slot& s = slots_[ticket & (kCapacity - 1)];
  // Claim the slot by moving its version from even to odd. Two writers a
  // full lap (kCapacity tickets) apart map to one slot; if another writer
  // holds it, this span is dropped rather than written over that writer's
  // fields, and no writer ever waits on another. Only the claimant writes
  // the slot, so a snapshot that sees an even version sees one span.
  //
  // Odd version marks the write window. Each field is a release store, so
  // a snapshot whose acquire load reads a field written in this window
  // also sees the odd version, and its closing version check fails (a
  // seqlock reader after Boehm, with no fence). The closing store releases
  // the field stores to any snapshot that observes the even value.
  uint64_t ver = s.ver.load(std::memory_order_relaxed);
  do {
    if ((ver & 1) != 0) return;
  } while (!s.ver.compare_exchange_weak(ver, ver + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  s.trace_id.store(r.trace_id, std::memory_order_release);
  s.span_id.store(r.span_id, std::memory_order_release);
  s.parent_span_id.store(r.parent_span_id, std::memory_order_release);
  s.op.store(r.op, std::memory_order_release);
  s.meta.store((static_cast<uint64_t>(r.shard) << 32) |
                   (static_cast<uint64_t>(r.msg_type) << 8) |
                   (r.slow ? 1u : 0u),
               std::memory_order_release);
  s.start_us.store(r.start_us, std::memory_order_release);
  s.duration_us.store(r.duration_us, std::memory_order_release);
  s.ver.store(ver + 2, std::memory_order_release);
}

std::vector<SpanRecord> SpanRing::Snapshot() const {
  std::vector<SpanRecord> out;
  uint64_t head = head_.load(std::memory_order_acquire);
  size_t filled = head < kCapacity ? static_cast<size_t>(head) : kCapacity;
  out.reserve(filled);
  for (size_t i = 0; i < filled; ++i) {
    const Slot& s = slots_[i];
    uint64_t v1 = s.ver.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // never written or mid-write
    SpanRecord r;
    r.trace_id = s.trace_id.load(std::memory_order_acquire);
    r.span_id = s.span_id.load(std::memory_order_acquire);
    r.parent_span_id = s.parent_span_id.load(std::memory_order_acquire);
    const char* op = s.op.load(std::memory_order_acquire);
    r.op = op != nullptr ? op : "";
    uint64_t meta = s.meta.load(std::memory_order_acquire);
    r.shard = static_cast<uint32_t>(meta >> 32);
    r.msg_type = static_cast<uint8_t>((meta >> 8) & 0xff);
    r.slow = (meta & 1) != 0;
    r.start_us = s.start_us.load(std::memory_order_acquire);
    r.duration_us = s.duration_us.load(std::memory_order_acquire);
    if (s.ver.load(std::memory_order_relaxed) != v1) continue;  // torn
    out.push_back(r);
  }
  return out;
}

SpanRing& Ring() {
  static SpanRing* ring = new SpanRing();  // never torn down
  return *ring;
}

void RecordSpan(const SpanRecord& r) { Ring().Push(r); }

void SetSamplePercent(uint32_t pct) {
  g_sample_pct.store(pct > 100 ? 100 : pct, std::memory_order_relaxed);
}

bool Sampled(uint64_t trace_id) {
  uint32_t pct = g_sample_pct.load(std::memory_order_relaxed);
  if (pct >= 100) return true;
  if (pct == 0) return false;
  return Mix(trace_id) % 100 < pct;
}

EventJournal& EventJournal::Instance() {
  static EventJournal* journal = new EventJournal();  // never torn down
  return *journal;
}

void EventJournal::Record(const char* kind, uint32_t shard,
                          std::string detail) {
  static metrics::Counter& recorded =
      metrics::GetCounter("tc_events_recorded_total");
  static metrics::Counter& dropped_total =
      metrics::GetCounter("tc_events_dropped_total");
  recorded.Inc();
  MutexLock lock(mu_);
  Event e;
  e.seq = next_seq_++;
  e.wall_ms = WallMs();
  e.kind = kind;
  e.shard = shard;
  e.detail = std::move(detail);
  if (log_ != nullptr) {
    std::fprintf(log_,
                 "{\"seq\":%llu,\"wall_ms\":%lld,\"kind\":\"%s\","
                 "\"shard\":%u,\"detail\":\"%s\"}\n",
                 static_cast<unsigned long long>(e.seq),
                 static_cast<long long>(e.wall_ms), e.kind.c_str(), e.shard,
                 EscapeJson(e.detail).c_str());
    std::fflush(log_);
  }
  events_.push_back(std::move(e));
  while (events_.size() > kCapacity) {
    events_.pop_front();
    ++dropped_;
    dropped_total.Inc();
  }
}

std::vector<Event> EventJournal::Snapshot(uint64_t min_seq) const {
  MutexLock lock(mu_);
  std::vector<Event> out;
  out.reserve(events_.size());
  for (const Event& e : events_) {
    if (e.seq >= min_seq) out.push_back(e);
  }
  return out;
}

uint64_t EventJournal::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

Status EventJournal::OpenLogFile(const std::string& path) {
  MutexLock lock(mu_);
  if (log_ != nullptr) return FailedPrecondition("event log already open");
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return Unavailable("cannot open event log " + path);
  log_ = f;
  return Status::Ok();
}

}  // namespace tc::trace
