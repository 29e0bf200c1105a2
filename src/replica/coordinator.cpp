#include "replica/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/trace.hpp"
#include "net/messages.hpp"
#include "replica/replica_wire.hpp"

namespace tc::replica {

PrimaryCoordinator::PrimaryCoordinator(
    std::shared_ptr<net::RequestHandler> inner,
    std::vector<std::shared_ptr<ReplicaSet>> sets, FailoverOptions failover)
    : inner_(std::move(inner)),
      sets_(std::move(sets)),
      heartbeat_ms_(static_cast<uint32_t>(
          std::max<int64_t>(failover.heartbeat_ms, 1))),
      beacons_(std::chrono::milliseconds(heartbeat_ms_), [this] { Beat(); }) {}

PrimaryCoordinator::~PrimaryCoordinator() { beacons_.Stop(); }

Result<Bytes> PrimaryCoordinator::Handle(net::MessageType type,
                                         BytesView body) {
  if (type == net::MessageType::kReplicaHello) return Hello(body);
  return inner_->Handle(type, body);
}

Result<Bytes> PrimaryCoordinator::Hello(BytesView body) {
  // The version leads every hello, so a follower speaking another layout
  // is refused by name before the rest is decoded as this one.
  BinaryReader version(body);
  TC_ASSIGN_OR_RETURN(uint8_t speaks, version.GetU8());
  if (speaks != net::kReplicaProtocolVersion) {
    return FailedPrecondition(
        "follower speaks replica protocol version " + std::to_string(speaks) +
        ", this primary speaks version " +
        std::to_string(net::kReplicaProtocolVersion) +
        "; run the same tcserver build on both");
  }
  TC_ASSIGN_OR_RETURN(auto req, net::ReplicaHelloRequest::Decode(body));
  if (req.shard >= sets_.size()) {
    return InvalidArgument("hello for shard " + std::to_string(req.shard) +
                           " of a " + std::to_string(sets_.size()) +
                           "-shard server");
  }
  if (req.num_shards != sets_.size()) {
    // Placement is a pure hash of (uuid, N): a follower running a
    // different N would replicate and serve the wrong stream subset — and
    // promote into a primary missing most of the data. The fingerprint
    // gate below only covers stores that were already laid out; this
    // catches the empty-store case too.
    return FailedPrecondition(
        "follower runs --shards " + std::to_string(req.num_shards) +
        " but this server runs --shards " + std::to_string(sets_.size()) +
        "; restart the follower with the matching shard count");
  }
  auto& set = sets_[req.shard];
  auto primary_kv = set->primary_kv();
  if (!primary_kv) {
    return FailedPrecondition(
        "shard " + std::to_string(req.shard) +
        " has no replication pipeline (start tcserver with --replicas or "
        "--accept-followers)");
  }
  // Fingerprint gate: a follower whose store was laid out for a different
  // cluster shape must not be copied into this shard. 0 = empty store,
  // always accepted (shipping copies the layout key with the log).
  uint64_t ours = StoreFingerprint(*primary_kv);
  if (req.store_fingerprint != 0 && ours != 0 &&
      req.store_fingerprint != ours) {
    return FailedPrecondition(
        "follower store layout fingerprint mismatch: its store belongs to a "
        "different cluster shape; wipe it or fix --shards");
  }

  std::string label = req.host + ":" + std::to_string(req.port);
  const store::LogPosition at{req.generation, req.length};
  const std::string where = label + " generation=" +
                            std::to_string(at.generation) +
                            " length=" + std::to_string(at.length);
  Status added = set->AddRemoteFollower(
      std::make_shared<RemoteFollower>(req.host,
                                       static_cast<uint16_t>(req.port),
                                       req.shard),
      label, at);
  if (added.ok()) {
    TC_LOG_INFO << "replica follower " << where << " registered for shard "
                << req.shard;
    trace::RecordEvent("follower_registered", req.shard, where);
    MutexLock lock(mu_);
    endpoints_.push_back(
        {req.shard, req.host, static_cast<uint16_t>(req.port)});
  } else if (added.code() != StatusCode::kAlreadyExists) {
    return added;
  } else {
    // A daemon restart announcing itself again: its shipper is still
    // attached and redials, and took the reported position.
    trace::RecordEvent("follower_reregistered", req.shard, where);
  }
  return net::ReplicaHelloResponse{set->log_end(), heartbeat_ms_}.Encode();
}

void PrimaryCoordinator::Beat() {
  // Heartbeat connections are owned by the beacon thread so a wedged
  // follower can never block request handling. Dead endpoints back off
  // their dials, in rounds (exponential to a cap): beacons to live
  // followers must stay on cadence no matter how many corpses have
  // accumulated in the registry — a late beacon reads as a dead primary
  // and triggers a takeover election.
  for (auto& [key, rounds] : skip_rounds_) {
    if (rounds > 0) --rounds;
  }
  std::vector<Endpoint> endpoints;
  {
    MutexLock lock(mu_);
    endpoints = endpoints_;
  }
  // Group views per shard from the typed registry; each follower's
  // progress comes from the shipping pipeline keyed by the registration
  // label.
  std::map<uint32_t, net::ReplicaHeartbeatRequest> beats;
  for (const auto& endpoint : endpoints) {
    auto [it, fresh] = beats.try_emplace(endpoint.shard);
    if (fresh) {
      it->second.shard = endpoint.shard;
      it->second.log_end = sets_[endpoint.shard]->log_end();
    }
  }
  for (auto& [shard, beat] : beats) {
    std::map<std::string, uint64_t> bytes_by_label;
    for (auto& [label, bytes] : sets_[shard]->RemoteFollowerBytes()) {
      bytes_by_label.emplace(label, bytes);
    }
    for (const auto& endpoint : endpoints) {
      if (endpoint.shard != shard) continue;
      std::string label =
          endpoint.host + ":" + std::to_string(endpoint.port);
      auto bytes = bytes_by_label.find(label);
      beat.peers.push_back(
          {endpoint.host, endpoint.port,
           bytes == bytes_by_label.end() ? 0 : bytes->second});
    }
  }
  // Every dial and round trip is bounded, a dead endpoint is dialed at
  // most once per round (even across several shards), and repeat
  // offenders back off across rounds.
  int64_t timeout_ms = std::max<int64_t>(heartbeat_ms_, 250);
  std::set<std::string> undialable_this_round;
  // First strike only: one journal event when a follower goes dark, not
  // one per backoff round (the journal records transitions, not state).
  auto strike = [this](const std::string& key, uint32_t shard) {
    uint32_t strikes = std::min<uint32_t>(++failures_[key], 5);
    skip_rounds_[key] = 1u << strikes;  // 2..32 rounds
    if (strikes == 1) {
      trace::RecordEvent("follower_unreachable", shard, key);
    }
  };
  for (const auto& endpoint : endpoints) {
    std::string key =
        endpoint.host + ":" + std::to_string(endpoint.port);
    if (undialable_this_round.contains(key)) continue;
    if (auto skip = skip_rounds_.find(key);
        skip != skip_rounds_.end() && skip->second > 0) {
      continue;
    }
    auto& client = clients_[key];
    if (!client) {
      auto dialed = net::TcpClient::Connect(endpoint.host, endpoint.port,
                                            timeout_ms, timeout_ms);
      if (!dialed.ok()) {  // follower down; its shipper handles catch-up
        undialable_this_round.insert(key);
        strike(key, endpoint.shard);
        continue;
      }
      client = std::move(*dialed);
    }
    auto sent = client->Call(net::MessageType::kReplicaHeartbeat,
                             beats[endpoint.shard].Encode());
    if (!sent.ok()) {  // redial next round
      client.reset();
      undialable_this_round.insert(key);
      strike(key, endpoint.shard);
    } else {
      failures_.erase(key);
      skip_rounds_.erase(key);
    }
  }
}

}  // namespace tc::replica
