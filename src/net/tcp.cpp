#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace tc::net {

namespace {

// Transport metrics, one family per direction with a side label. Function-
// local statics: registered on first use, then lock-free to record.
struct WireVolume {
  metrics::Counter& rx_bytes;
  metrics::Counter& rx_frames;
  metrics::Counter& tx_bytes;
  metrics::Counter& tx_frames;
};

WireVolume& ServerVolume() {
  static WireVolume v{
      metrics::GetCounter("tc_net_rx_bytes_total", "side=\"server\""),
      metrics::GetCounter("tc_net_rx_frames_total", "side=\"server\""),
      metrics::GetCounter("tc_net_tx_bytes_total", "side=\"server\""),
      metrics::GetCounter("tc_net_tx_frames_total", "side=\"server\"")};
  return v;
}

WireVolume& ClientVolume() {
  static WireVolume v{
      metrics::GetCounter("tc_net_rx_bytes_total", "side=\"client\""),
      metrics::GetCounter("tc_net_rx_frames_total", "side=\"client\""),
      metrics::GetCounter("tc_net_tx_bytes_total", "side=\"client\""),
      metrics::GetCounter("tc_net_tx_frames_total", "side=\"client\"")};
  return v;
}

metrics::Gauge& ServerConnsGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_server_conns");
  return g;
}

metrics::Gauge& ServerInflightGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_server_inflight");
  return g;
}

/// Demux depth: calls registered with the client reader, awaiting responses.
metrics::Gauge& ClientPendingGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_client_pending");
  return g;
}

metrics::Counter& ClientOpTimeouts() {
  static metrics::Counter& c =
      metrics::GetCounter("tc_net_client_op_timeouts_total");
  return c;
}

/// Connection serials seed the per-request trace ids (serial << 32 |
/// request_id) so ids from different connections never collide.
uint64_t NextConnSerial() {
  static std::atomic<uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Read + decode one frame header. `max_body` bounds the claimed body size;
/// pass UINT32_MAX to defer the bound to the caller (the server does, so it
/// can answer the offending request id with a clean status).
Result<FrameHeader> ReadFrameHeader(int fd, size_t max_body) {
  Bytes header(kFrameHeaderBytes);
  TC_RETURN_IF_ERROR(ReadExact(fd, header));
  return DecodeFrameHeader(header, max_body);
}

/// Write one response frame; false when the peer is gone or wedged shut.
bool WriteResponse(int fd, uint64_t request_id, const Result<Bytes>& result) {
  Bytes body = result.ok() ? EncodeResponseBody(Status::Ok(), *result)
                           : EncodeResponseBody(result.status(), {});
  Bytes frame = EncodeFrame(MessageType::kResponse, request_id, body);
  ServerVolume().tx_frames.Inc();
  ServerVolume().tx_bytes.Inc(frame.size());
  return WriteAll(fd, frame).ok();
}

}  // namespace

Status ReadExact(int fd, MutableBytesView out) {
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n == 0) return Unavailable("connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("read failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteAll(int fd, BytesView data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: writing into a peer-closed socket must surface as EPIPE,
    // not kill the process with SIGPIPE — replication shippers write to
    // follower daemons that can die at any moment.
    ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- server

TcpServer::TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
                     TcpServerOptions options)
    : handler_(std::move(handler)), port_(port), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(options_.bind_any ? INADDR_ANY
                                                 : INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    // Close before returning: Stop() never runs for a server that failed
    // to start, so a leaked listener would outlive every retry.
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Unavailable(std::string("bind failed: ") + std::strerror(errno));
  }
  if (port_ == 0) {
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Unavailable("listen failed");
  }
  running_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();

  // Wake every reader parked in read(); one inside a handler finishes it
  // first. The shutdown happens under the lock because a reader closes its
  // fd only after leaving readers_, so every fd seen here is still open.
  // The joins happen outside it: an exiting reader takes the lock too.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(threads_mu_);
    to_join.swap(finished_);
    for (auto& [serial, reader] : readers_) {
      ::shutdown(reader.fd, SHUT_RDWR);
      to_join.push_back(std::move(reader.thread));
    }
  }
  for (auto& t : to_join) t.join();
  // Readers that exited during the joins left empty handles behind.
  MutexLock lock(threads_mu_);
  finished_.clear();
}

void TcpServer::AcceptLoop() {
  while (running_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) break;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServerConnsGauge().Inc();
    uint64_t serial = NextConnSerial();
    std::vector<std::thread> exited;
    {
      // The reader's exit path takes this lock, so its entry is in place
      // before it can look for it.
      MutexLock lock(threads_mu_);
      exited.swap(finished_);
      readers_.emplace(
          serial, Reader{fd, std::thread([this, fd, serial] {
                           ServeConnection(fd, serial);
                         })});
    }
    // Reap readers of closed connections here, so a server that sees many
    // short connections holds at most a few exited threads' stacks.
    for (auto& t : exited) t.join();
  }
}

void TcpServer::ServeConnection(int fd, uint64_t serial) {
  while (running_) {
    // Bound enforcement is split so the offending request id is known: an
    // oversized claim gets a clean error response (no allocation), then the
    // connection drops — framing past an unread body cannot be trusted.
    auto header = ReadFrameHeader(fd, UINT32_MAX);
    if (!header.ok()) break;  // peer closed or corrupt stream
    if (header->body_len > options_.max_frame_body) {
      WriteResponse(
          fd, header->request_id,
          InvalidArgument("frame body of " + std::to_string(header->body_len) +
                          " bytes exceeds this server's max of " +
                          std::to_string(options_.max_frame_body)));
      break;
    }
    Bytes body(header->body_len);
    if (!ReadExact(fd, body).ok()) break;
    ServerVolume().rx_frames.Inc();
    // tc_analyze:allow(bounded-decode) byte accounting, not header parsing
    ServerVolume().rx_bytes.Inc(kFrameHeaderBytes + body.size());

    // Stamp the trace context around the handler: adopt the wire's trace
    // id when the caller sent one (a routed/shipped hop inside a larger
    // request), else derive the origin id (connection serial | request id).
    // TraceSpans opened inside the handler inherit it and parent under the
    // caller's span.
    uint64_t trace_id =
        header->trace_id != 0
            ? header->trace_id
            : (serial << 32) | (header->request_id & 0xffffffff);
    ServerInflightGauge().Inc();
    metrics::SetCurrentTraceContext({trace_id, header->parent_span_id});
    Result<Bytes> result = handler_->Handle(header->type, body);
    metrics::SetCurrentTraceContext({});
    ServerInflightGauge().Dec();
    // A failed write means the peer is gone or wedged shut: drop it.
    if (!WriteResponse(fd, header->request_id, result)) break;
  }
  {
    MutexLock lock(threads_mu_);
    auto self = readers_.extract(serial);
    finished_.push_back(std::move(self.mapped().thread));
  }
  ::close(fd);
  ServerConnsGauge().Dec();
}

// ---------------------------------------------------------------- client

Result<std::unique_ptr<TcpClient>> TcpClient::Connect(
    const std::string& host, uint16_t port, int64_t connect_timeout_ms,
    int64_t op_timeout_ms, size_t max_frame_body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host address: " + host);
  }
  if (connect_timeout_ms > 0) {
    // Bounded dial: a blackholed peer must fail the Connect, not park the
    // caller in the kernel's minutes-long SYN retry schedule.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pending{fd, POLLOUT, 0};
      rc = ::poll(&pending, 1, static_cast<int>(connect_timeout_ms));
      if (rc <= 0) {
        ::close(fd);
        return Unavailable(rc == 0 ? "connect timed out"
                                   : std::string("connect poll failed: ") +
                                         std::strerror(errno));
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        return Unavailable(std::string("connect failed: ") +
                           std::strerror(err));
      }
    } else if (rc != 0) {
      ::close(fd);
      return Unavailable(std::string("connect failed: ") +
                         std::strerror(errno));
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    ::close(fd);
    return Unavailable(std::string("connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (op_timeout_ms > 0) {
    // Send side: a wedged peer must fail a write, not park it forever. The
    // receive side is the reader's poll deadline over the oldest pending
    // call; SO_RCVTIMEO backstops a peer that stalls mid-frame (the poll
    // cannot fire while the reader is inside ReadExact).
    timeval tv{};
    tv.tv_sec = op_timeout_ms / 1000;
    tv.tv_usec = (op_timeout_ms % 1000) * 1000;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      ::close(fd);
      return Unavailable(std::string("setting socket timeouts failed: ") +
                         std::strerror(errno));
    }
  }
  return std::unique_ptr<TcpClient>(
      new TcpClient(fd, op_timeout_ms, max_frame_body));
}

TcpClient::TcpClient(int fd, int64_t op_timeout_ms, size_t max_frame_body)
    : op_timeout_ms_(op_timeout_ms), max_frame_body_(max_frame_body), fd_(fd) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

TcpClient::~TcpClient() {
  FailConnection(Unavailable("client connection destroyed"));
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void TcpClient::FailConnection(const Status& status) {
  std::vector<CallCompleter> victims;
  Status final_status;
  {
    MutexLock lock(mu_);
    if (!closed_) {
      closed_ = true;
      conn_status_ = status.ok() ? Unavailable("connection closed") : status;
    }
    final_status = conn_status_;
    victims.reserve(pending_.size());
    for (auto& [id, p] : pending_) victims.push_back(p.completer);
    pending_.clear();
  }
  if (!victims.empty()) {
    ClientPendingGauge().Dec(static_cast<int64_t>(victims.size()));
  }
  ::shutdown(fd_, SHUT_RDWR);  // wakes the reader out of its poll
  // Error fan-out: every call still in flight fails with the connection's
  // terminal status. Completed outside the lock — callbacks may Wait().
  for (auto& v : victims) v.Complete(final_status);
}

PendingCall TcpClient::AsyncCall(MessageType type, BytesView body,
                                 CallCallback on_done) {
  CallCompleter completer(std::move(on_done));
  PendingCall handle = completer.pending();

  uint64_t id = 0;
  Status closed_status;
  {
    MutexLock lock(mu_);
    if (closed_) {
      closed_status = conn_status_;
    } else {
      id = next_request_id_++;
      // Stamped under mu_ with the id, so deadlines rise with the id.
      pending_.emplace_hint(
          pending_.end(), id,
          Pending{completer, std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(op_timeout_ms_)});
    }
  }
  if (id == 0) {
    // Dead connection: fail fast, outside the lock (callbacks may Wait()).
    completer.Complete(std::move(closed_status));
    return handle;
  }
  ClientPendingGauge().Inc();

  // Register-then-send: the reader may legally see the response before this
  // thread regains the CPU. The reader needs no nudge: its poll already
  // ends by the oldest pending deadline, which is never this call's, or,
  // when idle, within one op timeout.
  //
  // Stamp the caller's live trace context on the frame so the server's
  // spans land in the same trace, under the span issuing this call.
  metrics::TraceContext ctx = metrics::OutgoingTraceContext();
  Bytes frame = EncodeFrame(type, id, body, ctx.trace_id,
                            ctx.parent_span_id);
  ClientVolume().tx_frames.Inc();
  ClientVolume().tx_bytes.Inc(frame.size());
  Status write_status;
  {
    MutexLock lock(write_mu_);
    // tc_analyze:allow(blocking-under-lock) write_mu_ exists to serialize request frames onto the socket — the write IS its critical section; mu_ (the bookkeeping lock) is never held here
    write_status = WriteAll(fd_, frame);
  }
  if (!write_status.ok()) {
    // A mid-frame write failure poisons the stream for every later frame;
    // fail the connection (this call is still pending, so it fans out too).
    FailConnection(write_status);
  }
  return handle;
}

void TcpClient::ReaderLoop() {
  for (;;) {
    // Expiry is checked here, at the top of EVERY iteration — not only
    // when poll times out — so a stuck request still fails on schedule
    // while other responses keep the socket readable. (A peer trickling
    // one frame forever is backstopped by SO_RCVTIMEO inside ReadExact.)
    // Idle, the reader polls in slices of the op timeout, so a call issued
    // mid-slice is looked at before its deadline passes.
    int timeout = -1;
    size_t stranded = 0;
    {
      MutexLock lock(mu_);
      if (closed_) return;
      if (op_timeout_ms_ > 0) {
        auto remaining = std::chrono::milliseconds(op_timeout_ms_);
        if (!pending_.empty()) {
          remaining = std::chrono::ceil<std::chrono::milliseconds>(
              pending_.begin()->second.deadline -
              std::chrono::steady_clock::now());
          if (remaining.count() <= 0) stranded = pending_.size();
        }
        timeout = static_cast<int>(
            std::clamp<int64_t>(remaining.count(), 1, 3'600'000));
      }
    }
    if (stranded > 0) {
      ClientOpTimeouts().Inc();
      // One expiry strands every pending call on this connection (the
      // stream cannot be resynced) — journal the storm size, not just the
      // first victim.
      trace::RecordEvent("client_op_timeout", trace::kNoShard,
                         "pending=" + std::to_string(stranded) +
                             " timeout_ms=" + std::to_string(op_timeout_ms_));
      FailConnection(Unavailable("request timed out after " +
                                 std::to_string(op_timeout_ms_) + " ms"));
      return;
    }

    pollfd fds{fd_, POLLIN, 0};
    int rc = ::poll(&fds, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      FailConnection(
          Unavailable(std::string("poll failed: ") + std::strerror(errno)));
      return;
    }
    if (rc == 0) continue;  // re-enter the deadline pass above

    auto header = ReadFrameHeader(fd_, max_frame_body_);
    if (!header.ok()) {
      FailConnection(header.status());
      return;
    }
    if (header->type != MessageType::kResponse) {
      FailConnection(
          DataLoss("protocol violation: non-response frame from server"));
      return;
    }
    Bytes body(header->body_len);
    if (Status st = ReadExact(fd_, body); !st.ok()) {
      FailConnection(st);
      return;
    }
    ClientVolume().rx_frames.Inc();
    // tc_analyze:allow(bounded-decode) byte accounting, not header parsing
    ClientVolume().rx_bytes.Inc(kFrameHeaderBytes + body.size());

    std::optional<CallCompleter> completer;
    {
      MutexLock lock(mu_);
      auto it = pending_.find(header->request_id);
      if (it != pending_.end()) {
        completer = std::move(it->second.completer);
        pending_.erase(it);
      }
    }
    if (completer) ClientPendingGauge().Dec();
    if (!completer) {
      // A response for an id we never sent (or already answered): the
      // demux invariant is broken, so no later match can be trusted.
      FailConnection(DataLoss(
          "protocol violation: response for unknown request id " +
          std::to_string(header->request_id)));
      return;
    }
    completer->Complete(DecodeResponseBody(body));
  }
}

}  // namespace tc::net
