// Multiplexed TCP transport.
//
// Server: listener with one reader thread per connection. The reader reads
// a frame, runs the handler, writes the response and only then reads the
// next frame, so a connection's requests are answered one at a time in
// send order (as Netty runs a channel on its one event-loop thread, §5):
// pipelined ingest batches apply in order, and a client that pipelines
// faster than the handler drains is held back by TCP itself. A slow
// request parks only its own connection; a caller that needs independent
// latency opens a second connection.
//
// Client: framed request/response with request-id demultiplexing. One demux
// reader thread matches responses to in-flight calls, so many AsyncCalls can
// overlap on one socket and complete out of order; a connection error fans
// out to every pending call. The reader polls the socket alone and wakes
// only for a response, an op-timeout deadline or the connection closing.
// Loopback-oriented (the E2E benchmarks and examples run client and server
// on one host, like the paper's mhealth setup).
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/wire.hpp"

namespace tc::net {

struct TcpServerOptions {
  /// Bind all interfaces instead of loopback — the replication topology
  /// needs it when peers dial back across machines (a daemon advertising a
  /// LAN address, a primary accepting remote followers).
  bool bind_any = false;
  /// Reject request frames whose body exceeds this many bytes with a clean
  /// error response (the header's body_len is attacker-controlled; it must
  /// never drive an allocation).
  size_t max_frame_body = kDefaultMaxFrameBody;
};

/// TCP server owning an accept loop. Start() binds and spawns the acceptor;
/// Stop() closes the listener, shuts every live connection down and joins
/// every thread, waiting out handlers still running.
class TcpServer {
 public:
  TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
            TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind, listen, spawn the accept loop. Port 0 picks a free port.
  Status Start();
  void Stop();

  uint16_t port() const { return port_; }

 private:
  /// A live connection: its socket, owned (and closed) by its reader.
  struct Reader {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(int fd, uint64_t serial);

  std::shared_ptr<RequestHandler> handler_;
  uint16_t port_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  Mutex threads_mu_;
  // Live connections by serial. A reader removes its own entry before it
  // closes its fd, so Stop() never shuts down a reused descriptor.
  std::unordered_map<uint64_t, Reader> readers_ GUARDED_BY(threads_mu_);
  // Readers that have exited, joined at the next accept (or Stop).
  std::vector<std::thread> finished_ GUARDED_BY(threads_mu_);
};

/// Client connection with request-id multiplexing: any number of AsyncCalls
/// may be in flight concurrently (from any threads); responses complete
/// them in whatever order the server answers.
class TcpClient final : public Transport {
 public:
  /// `connect_timeout_ms > 0` bounds the dial (non-blocking connect +
  /// poll); 0 keeps the OS default (blocking). `op_timeout_ms > 0` bounds
  /// every in-flight call for the connection's life: if the oldest pending
  /// request has seen no response within it, the connection is failed and
  /// every pending call returns Unavailable. A peer that accepts the
  /// connection and then wedges must fail the calls, not hang the callers —
  /// heartbeat fan-out and takeover probes depend on this. An idle
  /// connection (no calls pending) never times out; 0 means no op timeout.
  /// `max_frame_body` bounds response frames — an oversized one fails the
  /// connection cleanly instead of driving an allocation.
  TC_BLOCKING static Result<std::unique_ptr<TcpClient>> Connect(
      const std::string& host, uint16_t port, int64_t connect_timeout_ms = 0,
      int64_t op_timeout_ms = 0,
      size_t max_frame_body = kDefaultMaxFrameBody);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  PendingCall AsyncCall(MessageType type, BytesView body,
                        CallCallback on_done = nullptr) override;

 private:
  TcpClient(int fd, int64_t op_timeout_ms, size_t max_frame_body);

  void ReaderLoop();
  /// Fail every pending call (and all future ones) with `status`.
  void FailConnection(const Status& status);

  struct Pending {
    CallCompleter completer;
    std::chrono::steady_clock::time_point deadline;  // unused without a timeout
  };

  const int64_t op_timeout_ms_;
  const size_t max_frame_body_;
  const int fd_;

  Mutex mu_;
  // In request-id order. One fixed op timeout makes deadlines rise with the
  // id, so the first entry is always the next to expire.
  std::map<uint64_t, Pending> pending_ GUARDED_BY(mu_);
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  bool closed_ GUARDED_BY(mu_) = false;
  Status conn_status_ GUARDED_BY(mu_);

  Mutex write_mu_;  // serializes request frames onto the socket
  std::thread reader_;
};

/// Read exactly n bytes / write all bytes on a socket fd (helpers shared by
/// server and client; exposed for tests). Both can park the caller in the
/// kernel until the peer drains or supplies bytes.
TC_BLOCKING Status ReadExact(int fd, MutableBytesView out);
TC_BLOCKING Status WriteAll(int fd, BytesView data);

}  // namespace tc::net
