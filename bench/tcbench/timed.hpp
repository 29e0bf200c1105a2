// Bench-side decorators that time the calls into each layer's public
// interface from outside: TimedTransport wraps a client's net::Transport,
// TimedHandler sits between the TCP server and the shard router, and
// TimedKvStore wraps each shard's store. Every record carries the trace id
// of the client operation that caused it (the client thread stamps
// metrics::SetCurrentTraceContext before each op, the TCP frame carries it,
// and the server's dispatch thread exposes it as CurrentTraceId()), so one
// op's spans on every layer can be joined after the run.
//
// The decorators exist only in a traced run. Spans stay in fixed-capacity
// in-memory logs and are read only after the traffic that writes them has
// stopped. Recording happens only while g_tracing is on, so the traced and
// untraced blocks of a run differ by the recording alone.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>

#include "common/metrics.hpp"
#include "net/wire.hpp"
#include "store/kv_store.hpp"

namespace tc::tcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Recording switch, flipped by the main thread between measurement blocks.
inline std::atomic<bool> g_tracing{false};

inline bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

/// One timed call into a layer. No member initializers: the log allocates
/// its slots uninitialized, so untouched capacity costs no resident memory.
struct Span {
  uint64_t op;         // trace id of the client op (0 = none)
  int64_t start_ns;
  int64_t end_ns;
  uint32_t bytes_out;  // request body / value written
  uint32_t bytes_in;   // response payload / value read
  uint8_t type;        // net::MessageType, or StoreOp for store spans
};

enum class StoreOp : uint8_t { kPut, kGet, kDelete, kContains };

/// Fixed-capacity append-only span log. Concurrent appends claim distinct
/// slots; appends past the capacity are counted and dropped.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity)
      : slots_(std::make_unique_for_overwrite<Span[]>(capacity)),
        capacity_(capacity) {}

  Span* Claim() {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= capacity_) return nullptr;
    return &slots_[i];
  }

  std::span<const Span> spans() const {
    return {slots_.get(), std::min(next_.load(), capacity_)};
  }
  size_t dropped() const {
    size_t n = next_.load();
    return n > capacity_ ? n - capacity_ : 0;
  }

 private:
  std::unique_ptr<Span[]> slots_;
  size_t capacity_;
  std::atomic<size_t> next_{0};
};

/// Times each call from send until the calling thread holds the response.
///
/// A traced call waits for its response inside AsyncCall, so it is timed
/// without a completion callback: TcpClient completes a call that has one
/// on another path, about 10% faster on ingest, and the traced blocks would
/// then measure another transport than the untraced blocks and untraced
/// runs. Waiting early changes nothing for a caller that waits at once,
/// as Transport::Call does and as every call made during measured traffic
/// does (the only pipelined caller is the batched upload of prefill, which
/// runs untraced); a call with its own callback is not timed.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(std::shared_ptr<net::Transport> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  net::PendingCall AsyncCall(net::MessageType type, BytesView body,
                             net::CallCallback on_done = nullptr) override {
    if (!Tracing() || on_done) return inner_->AsyncCall(type, body, std::move(on_done));
    const uint64_t op = metrics::CurrentTraceId();
    const int64_t start = NowNs();
    net::PendingCall call = inner_->AsyncCall(type, body);
    Result<Bytes> result = call.Wait();
    const int64_t end = NowNs();
    if (Span* span = log_.Claim()) {
      *span = Span{op, start, end, static_cast<uint32_t>(body.size()),
                   result.ok() ? static_cast<uint32_t>(result->size()) : 0,
                   static_cast<uint8_t>(type)};
    }
    return call;
  }

 private:
  std::shared_ptr<net::Transport> inner_;
  SpanLog& log_;
};

/// Times each request the server dispatches into the router.
class TimedHandler final : public net::RequestHandler {
 public:
  TimedHandler(std::shared_ptr<net::RequestHandler> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    if (!Tracing()) return inner_->Handle(type, body);
    int64_t start = NowNs();
    Result<Bytes> result = inner_->Handle(type, body);
    if (Span* span = log_.Claim()) {
      *span = Span{metrics::CurrentTraceId(), start, NowNs(),
                   static_cast<uint32_t>(body.size()),
                   result.ok() ? static_cast<uint32_t>(result->size()) : 0,
                   static_cast<uint8_t>(type)};
    }
    return result;
  }

 private:
  std::shared_ptr<net::RequestHandler> inner_;
  SpanLog& log_;
};

/// Times the data-path calls into a shard's store; the rest forwards.
class TimedKvStore final : public store::KvStore {
 public:
  TimedKvStore(std::shared_ptr<store::KvStore> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  Status Put(const std::string& key, BytesView value) override {
    int64_t start = Tracing() ? NowNs() : 0;
    Status status = inner_->Put(key, value);
    Record(start, StoreOp::kPut, value.size(), 0);
    return status;
  }
  Result<Bytes> Get(const std::string& key) const override {
    int64_t start = Tracing() ? NowNs() : 0;
    Result<Bytes> value = inner_->Get(key);
    Record(start, StoreOp::kGet, 0, value.ok() ? value->size() : 0);
    return value;
  }
  Status Delete(const std::string& key) override {
    int64_t start = Tracing() ? NowNs() : 0;
    Status status = inner_->Delete(key);
    Record(start, StoreOp::kDelete, 0, 0);
    return status;
  }
  bool Contains(const std::string& key) const override {
    int64_t start = Tracing() ? NowNs() : 0;
    bool found = inner_->Contains(key);
    Record(start, StoreOp::kContains, 0, 0);
    return found;
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Sync() override { return inner_->Sync(); }
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override {
    return inner_->Scan(fn);
  }
  CompactionStats Compaction() const override { return inner_->Compaction(); }

 private:
  void Record(int64_t start, StoreOp op, size_t out, size_t in) const {
    if (start == 0) return;
    if (Span* span = log_.Claim()) {
      *span = Span{metrics::CurrentTraceId(), start, NowNs(),
                   static_cast<uint32_t>(out), static_cast<uint32_t>(in),
                   static_cast<uint8_t>(op)};
    }
  }

  std::shared_ptr<store::KvStore> inner_;
  SpanLog& log_;
};

}  // namespace tc::tcbench
