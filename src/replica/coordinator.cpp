#include "replica/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>

#include "common/logging.hpp"
#include "common/trace.hpp"
#include "net/messages.hpp"
#include "net/tcp.hpp"
#include "replica/replica_wire.hpp"

namespace tc::replica {

PrimaryCoordinator::PrimaryCoordinator(
    std::shared_ptr<net::RequestHandler> inner,
    std::vector<std::shared_ptr<ReplicaSet>> sets, CoordinatorOptions options)
    : inner_(std::move(inner)), sets_(std::move(sets)), options_(options) {
  if (options_.heartbeat_ms == 0) options_.heartbeat_ms = 1;
  beater_ = std::thread([this] { HeartbeatLoop(); });
}

PrimaryCoordinator::~PrimaryCoordinator() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (beater_.joinable()) beater_.join();
}

Result<Bytes> PrimaryCoordinator::Handle(net::MessageType type,
                                         BytesView body) {
  if (type == net::MessageType::kReplicaHello) return Hello(body);
  return inner_->Handle(type, body);
}

Result<Bytes> PrimaryCoordinator::Hello(BytesView body) {
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
  // cluster shape must not be reconciled into this shard. 0 = empty store,
  // always accepted (the snapshot stream seeds it, layout key included).
  uint64_t ours = StoreFingerprint(*primary_kv);
  if (req.store_fingerprint != 0 && ours != 0 &&
      req.store_fingerprint != ours) {
    return FailedPrecondition(
        "follower store layout fingerprint mismatch: its store belongs to a "
        "different cluster shape; wipe it or fix --shards");
  }

  std::string label = req.host + ":" + std::to_string(req.port);
  Status added = set->AddRemoteFollower(
      std::make_shared<RemoteFollower>(req.host,
                                       static_cast<uint16_t>(req.port),
                                       req.shard),
      label);
  if (added.ok()) {
    TC_LOG_INFO << "replica follower " << label << " registered for shard "
                << req.shard << " (applied " << req.applied_seq << ")";
    trace::RecordEvent("follower_registered", req.shard,
                       label + " applied=" +
                           std::to_string(req.applied_seq));
    MutexLock lock(mu_);
    endpoints_.push_back(
        {req.shard, req.host, static_cast<uint16_t>(req.port)});
  } else if (added.code() != StatusCode::kAlreadyExists) {
    return added;
  } else {
    // A daemon restart re-announcing itself: its shipper is still attached
    // and redials, but on a write-quiescent shard nothing would ever ship
    // and expose a wiped store — reconcile the claimed progress now.
    set->ReconcileRemoteFollower(label, req.applied_seq);
    trace::RecordEvent("follower_reconciled", req.shard,
                       label + " applied=" +
                           std::to_string(req.applied_seq));
  }
  return net::ReplicaHelloResponse{set->head_seq(), options_.heartbeat_ms}
      .Encode();
}

void PrimaryCoordinator::HeartbeatLoop() {
  // Heartbeat connections are owned by this thread (dialed lazily, dropped
  // on failure) so a wedged follower can never block request handling.
  std::map<std::string, std::unique_ptr<net::TcpClient>> clients;
  // Dead-endpoint dial backoff, in rounds (exponential to a cap): beacons
  // to live followers must stay on cadence no matter how many corpses
  // have accumulated in the registry — a late beacon reads as a dead
  // primary and triggers a takeover election.
  std::map<std::string, uint32_t> skip_rounds;
  std::map<std::string, uint32_t> failures;
  for (;;) {
    {
      // One beacon cadence per iteration; stop cuts the sleep short.
      MutexLock lock(mu_);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.heartbeat_ms);
      while (!stop_) {
        if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
      }
      if (stop_) return;
    }
    for (auto& [key, rounds] : skip_rounds) {
      if (rounds > 0) --rounds;
    }
    std::vector<Endpoint> endpoints;
    {
      MutexLock lock(mu_);
      endpoints = endpoints_;
    }
    // Group views per shard from the typed registry; applied seqs come
    // from the shipping pipeline keyed by the registration label.
    std::map<uint32_t, net::ReplicaHeartbeatRequest> beats;
    for (const auto& endpoint : endpoints) {
      auto [it, fresh] = beats.try_emplace(endpoint.shard);
      if (fresh) {
        it->second.shard = endpoint.shard;
        it->second.head_seq = sets_[endpoint.shard]->head_seq();
      }
    }
    for (auto& [shard, beat] : beats) {
      std::map<std::string, uint64_t> applied_by_label;
      for (auto& [label, applied] : sets_[shard]->RemoteFollowerSeqs()) {
        applied_by_label.emplace(label, applied);
      }
      for (const auto& endpoint : endpoints) {
        if (endpoint.shard != shard) continue;
        std::string label =
            endpoint.host + ":" + std::to_string(endpoint.port);
        auto applied = applied_by_label.find(label);
        beat.peers.push_back({endpoint.host, endpoint.port,
                              applied == applied_by_label.end()
                                  ? 0
                                  : applied->second});
      }
    }
    // Every dial and round trip is bounded, a dead endpoint is dialed at
    // most once per round (even across several shards), and repeat
    // offenders back off across rounds.
    int64_t timeout_ms = std::max<int64_t>(options_.heartbeat_ms, 250);
    std::set<std::string> undialable_this_round;
    // First strike only: one journal event when a follower goes dark, not
    // one per backoff round (the journal records transitions, not state).
    auto strike = [&failures, &skip_rounds](const std::string& key,
                                            uint32_t shard) {
      uint32_t strikes = std::min<uint32_t>(++failures[key], 5);
      skip_rounds[key] = 1u << strikes;  // 2..32 rounds
      if (strikes == 1) {
        trace::RecordEvent("follower_unreachable", shard, key);
      }
    };
    for (const auto& endpoint : endpoints) {
      std::string key =
          endpoint.host + ":" + std::to_string(endpoint.port);
      if (undialable_this_round.contains(key)) continue;
      if (auto skip = skip_rounds.find(key);
          skip != skip_rounds.end() && skip->second > 0) {
        continue;
      }
      auto& client = clients[key];
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
        failures.erase(key);
        skip_rounds.erase(key);
      }
    }
  }
}

}  // namespace tc::replica
