// Helpers the integration suites share: an in-process engine, a HEAC or
// plaintext stream config carrying sum and count, a fixed ingest whose
// sums OracleSum gives in closed form, and a raw HTTP GET for the suites
// that scrape a metrics endpoint. A whole seeded workload, checked against
// a model, is tests/support/scenario.hpp.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"

namespace tc::testing {

inline constexpr DurationMs kDelta = 10 * kSecond;

/// An engine over `kv` behind an in-process transport.
inline std::shared_ptr<net::Transport> ServeInProc(
    std::shared_ptr<store::KvStore> kv = std::make_shared<store::MemKvStore>()) {
  return std::make_shared<net::InProcTransport>(
      std::make_shared<server::ServerEngine>(std::move(kv)));
}

/// A HEAC stream of kDelta chunks from t = 0, with sum and count (the
/// default schema) and index fanout 4.
inline net::StreamConfig HeacConfig(const std::string& name,
                                    bool integrity = false) {
  return {.name = name, .delta_ms = kDelta, .fanout = 4,
          .integrity = integrity};
}

inline net::StreamConfig PlainConfig(const std::string& name) {
  return {.name = name, .delta_ms = kDelta,
          .cipher = net::CipherKind::kPlain, .fanout = 4};
}

/// Ingest chunks [first, first + count) and flush: `points` points per
/// chunk, 1 s apart, each of value chunk + 1.
inline Status IngestChunks(client::OwnerClient& owner, uint64_t uuid,
                           uint64_t first, uint64_t count, int points = 5) {
  for (uint64_t c = first; c < first + count; ++c) {
    for (int i = 0; i < points; ++i) {
      TC_RETURN_IF_ERROR(owner.InsertRecord(
          uuid, {static_cast<Timestamp>(c * kDelta + i * 1000),
                 static_cast<int64_t>(c + 1)}));
    }
  }
  return owner.Flush(uuid);
}

/// The sum IngestChunks puts in chunks [first, last).
inline int64_t OracleSum(uint64_t first, uint64_t last, int points = 5) {
  int64_t sum = 0;
  for (uint64_t c = first; c < last; ++c) sum += points * (c + 1);
  return sum;
}

/// Raw HTTP/1.0 GET against a loopback port; returns the full response
/// (headers + body) or empty on any socket failure.
inline std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string response;
  // A request this short goes out in one write on a fresh socket.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::write(fd, request.data(), request.size()) ==
          static_cast<ssize_t>(request.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

}  // namespace tc::testing
