#include "net/wire.hpp"

#include "common/io.hpp"
#include "common/thread_annotations.hpp"

namespace tc::net {

namespace detail {
struct CallState {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Result<Bytes> result GUARDED_BY(mu){Bytes{}};
  CallCallback callback GUARDED_BY(mu);
};
}  // namespace detail

Result<Bytes> PendingCall::Wait() const {
  AssertBlockingAllowed();
  if (!state_) return Internal("waiting on an empty PendingCall");
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(state_->mu);
  return state_->result;
}

std::optional<Result<Bytes>> PendingCall::TryGet() const {
  if (!state_) return Result<Bytes>(Internal("empty PendingCall"));
  MutexLock lock(state_->mu);
  if (!state_->done) return std::nullopt;
  return state_->result;
}

bool PendingCall::done() const {
  if (!state_) return false;
  MutexLock lock(state_->mu);
  return state_->done;
}

CallCompleter::CallCompleter(CallCallback callback)
    : state_(std::make_shared<detail::CallState>()) {
  MutexLock lock(state_->mu);
  state_->callback = std::move(callback);
}

void CallCompleter::Complete(Result<Bytes> result) const {
  CallCallback callback;
  // Publication pointer taken under the lock; `result` is written exactly
  // once (first completion wins) and immutable after `done`, so the
  // post-unlock read through the pointer needs no further synchronization —
  // and no analysis escape.
  const Result<Bytes>* published = nullptr;
  {
    MutexLock lock(state_->mu);
    if (state_->done) return;  // first completion wins
    state_->result = std::move(result);
    state_->done = true;
    callback = std::move(state_->callback);
    published = &state_->result;
  }
  state_->cv.NotifyAll();
  // Outside the lock: the callback may TryGet() the handle. It runs as a
  // completion callback, so it must not block (B2).
  if (callback) {
    ScopedDisallowBlocking callback_scope;
    callback(*published);
  }
}

Result<FrameHeader> DecodeFrameHeader(BytesView header, size_t max_body) {
  BinaryReader r(header);
  FrameHeader h{};
  TC_ASSIGN_OR_RETURN(h.body_len, r.GetU32());
  TC_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  TC_ASSIGN_OR_RETURN(h.request_id, r.GetU64());
  TC_ASSIGN_OR_RETURN(h.trace_id, r.GetU64());
  TC_ASSIGN_OR_RETURN(h.parent_span_id, r.GetU64());
  h.type = static_cast<MessageType>(type);
  if (h.body_len > max_body) {
    return InvalidArgument(
        "frame body of " + std::to_string(h.body_len) +
        " bytes exceeds the transport's max of " + std::to_string(max_body));
  }
  return h;
}

Bytes EncodeFrame(MessageType type, uint64_t request_id, BytesView body,
                  uint64_t trace_id, uint64_t parent_span_id) {
  BinaryWriter w(body.size() + kFrameHeaderBytes);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(request_id);
  w.PutU64(trace_id);
  w.PutU64(parent_span_id);
  w.PutRaw(body);
  return std::move(w).Take();
}

Bytes EncodeResponseBody(const Status& status, BytesView payload) {
  BinaryWriter w(payload.size() + 32);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  w.PutRaw(payload);
  return std::move(w).Take();
}

Result<Bytes> DecodeResponseBody(BytesView body) {
  BinaryReader r(body);
  TC_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  TC_ASSIGN_OR_RETURN(std::string msg, r.GetString());
  if (code != static_cast<uint8_t>(StatusCode::kOk)) {
    return Status(static_cast<StatusCode>(code), std::move(msg));
  }
  TC_ASSIGN_OR_RETURN(BytesView payload, r.GetRaw(r.remaining()));
  return Bytes(payload.begin(), payload.end());
}

}  // namespace tc::net
