#include "net/metrics_http.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "net/tcp.hpp"

namespace tc::net {

MetricsHttpServer::MetricsHttpServer(uint16_t port,
                                     std::function<void()> pre_collect)
    : port_(port), pre_collect_(std::move(pre_collect)) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start() {
  auto fd = Listen(port_, /*bind_any=*/false, 16);
  if (!fd.ok()) return Unavailable("metrics: " + fd.status().message());
  listen_fd_ = *fd;
  running_ = true;
  server_ = std::thread([this] { ServeLoop(); });
  return Status::Ok();
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (server_.joinable()) server_.join();
  listen_fd_ = -1;
}

void MetricsHttpServer::ServeLoop() {
  while (running_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) break;
      continue;
    }
    // One request per connection, served inline on the accept thread: a
    // scrape is cheap and rare, and serializing them keeps the listener a
    // single thread with no shared state.
    ServeOne(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::ServeOne(int fd) {
  // Bound the read so a stalled scraper cannot wedge the accept thread.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Read until the header terminator (or the 4 KiB cap — request bodies
  // are not a thing on a scrape endpoint).
  std::string request;
  char buf[1024];
  while (request.size() < 4096 &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return;
    request.append(buf, static_cast<size_t>(n));
  }

  std::string body;
  std::string status_line;
  if (request.starts_with("GET /metrics ") ||
      request.starts_with("GET /metrics\r")) {
    if (pre_collect_) pre_collect_();
    body = metrics::MetricsRegistry::Instance().RenderPrometheus();
    status_line = "HTTP/1.0 200 OK\r\n";
  } else {
    body = "not found\n";
    status_line = "HTTP/1.0 404 Not Found\r\n";
  }

  std::string response = status_line +
                         "Content-Type: text/plain; version=0.0.4\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) +
                         "\r\n"
                         "Connection: close\r\n\r\n" +
                         body;
  size_t sent = 0;
  while (sent < response.size()) {
    ssize_t n = ::write(fd, response.data() + sent, response.size() - sent);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace tc::net
