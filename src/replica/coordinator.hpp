// Primary-side endpoint registry for socket-backed follower daemons.
//
// A PrimaryCoordinator wraps the node's serving handler (engine or shard
// router) and intercepts kReplicaHello: a follower daemon announces the
// protocol version it speaks, which shard it replicates, where its log
// stands, and where the primary should dial back. The coordinator
// validates the handshake (version, shard range, store-layout
// fingerprint), attaches a reconnecting RemoteFollower to that shard's
// ReplicaSet, and from then on broadcasts kReplicaHeartbeat beacons
// carrying the shard's group view (every registered endpoint and how much
// of the primary's log it holds). Followers use the last view to elect the
// most caught-up survivor when the beacons stop — see FollowerDaemon.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/wire.hpp"
#include "replica/replica_set.hpp"

namespace tc::replica {

struct CoordinatorOptions {
  /// Heartbeat cadence. Followers take over after missing several of
  /// these; keep it well under the daemons' takeover timeout.
  uint32_t heartbeat_ms = 500;
};

class PrimaryCoordinator final : public net::RequestHandler {
 public:
  PrimaryCoordinator(std::shared_ptr<net::RequestHandler> inner,
                     std::vector<std::shared_ptr<ReplicaSet>> sets,
                     CoordinatorOptions options = {});
  ~PrimaryCoordinator() override;

  Result<Bytes> Handle(net::MessageType type, BytesView body) override;

 private:
  struct Endpoint {
    uint32_t shard = 0;
    std::string host;
    uint16_t port = 0;
  };

  Result<Bytes> Hello(BytesView body) EXCLUDES(mu_);
  void HeartbeatLoop() EXCLUDES(mu_);

  std::shared_ptr<net::RequestHandler> inner_;
  std::vector<std::shared_ptr<ReplicaSet>> sets_;
  CoordinatorOptions options_;

  mutable Mutex mu_;
  std::vector<Endpoint> endpoints_ GUARDED_BY(mu_);
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread beater_;
};

}  // namespace tc::replica
