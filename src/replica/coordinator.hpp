// Primary-side endpoint registry for socket-backed follower daemons.
//
// A PrimaryCoordinator wraps the node's serving handler (engine or shard
// router) and intercepts kReplicaHello: a follower daemon announces the
// protocol version it speaks, which shard it replicates, where its log
// stands, and where the primary should dial back. The coordinator
// validates the handshake (version, shard range, store-layout
// fingerprint), attaches a reconnecting RemoteFollower to that shard's
// ReplicaSet, and from then on broadcasts kReplicaHeartbeat beacons every
// failover.heartbeat_ms, carrying the shard's group view (every registered
// endpoint and how much of the primary's log it holds). Followers rank the
// last view (RankCandidates) to elect the most caught-up survivor once the
// beacons have been silent for failover.takeover_ms — see FollowerDaemon.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/periodic.hpp"
#include "common/thread_annotations.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "replica/replica_set.hpp"

namespace tc::replica {

class PrimaryCoordinator final : public net::RequestHandler {
 public:
  PrimaryCoordinator(std::shared_ptr<net::RequestHandler> inner,
                     std::vector<std::shared_ptr<ReplicaSet>> sets,
                     FailoverOptions failover = {});
  ~PrimaryCoordinator() override;

  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

 private:
  struct Endpoint {
    uint32_t shard = 0;
    std::string host;
    uint16_t port = 0;
  };

  Result<Bytes> Hello(BytesView body) EXCLUDES(mu_);
  /// One round of beacons, every heartbeat_ms_.
  void Beat() EXCLUDES(mu_);

  std::shared_ptr<net::RequestHandler> inner_;
  std::vector<std::shared_ptr<ReplicaSet>> sets_;
  const uint32_t heartbeat_ms_;

  mutable Mutex mu_;
  std::vector<Endpoint> endpoints_ GUARDED_BY(mu_);

  // The beacon thread's alone: its connections by endpoint (dialed lazily,
  // dropped on failure) and each dead endpoint's dial backoff.
  std::map<std::string, std::unique_ptr<net::TcpClient>> clients_;
  std::map<std::string, uint32_t> skip_rounds_;
  std::map<std::string, uint32_t> failures_;
  // Declared last: stopped before the state Beat reads goes away.
  PeriodicThread beacons_;
};

}  // namespace tc::replica
