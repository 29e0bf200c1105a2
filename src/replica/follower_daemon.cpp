#include "replica/follower_daemon.hpp"

#include <algorithm>
#include <chrono>

#include "cluster/shard_router.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/trace.hpp"
#include "net/introspection.hpp"

namespace tc::replica {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// TcpServer keeps a shared_ptr to its handler; the daemon owns the server,
/// so hand the server a thin forwarder instead of a self-reference cycle.
class Forwarder final : public net::RequestHandler {
 public:
  explicit Forwarder(FollowerDaemon* daemon) : daemon_(daemon) {}
  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    return daemon_->Handle(type, body);
  }

 private:
  FollowerDaemon* daemon_;
};

}  // namespace

FollowerDaemon::FollowerDaemon(
    std::vector<std::shared_ptr<store::KvStore>> shard_stores,
    FollowerDaemonOptions options)
    : options_(std::move(options)),
      takeover_ms_(options_.takeover_timeout_ms) {
  if (options_.tick_ms < 10) options_.tick_ms = 10;
  for (size_t i = 0; i < shard_stores.size(); ++i) {
    server::ServerOptions engine_options = options_.engine_options;
    engine_options.shard_id = static_cast<uint32_t>(i);
    shards_.push_back(std::make_unique<ReplicaApplier>(
        std::move(shard_stores[i]), engine_options));
  }
}

FollowerDaemon::~FollowerDaemon() { Stop(); }

Status FollowerDaemon::Start(uint16_t port) {
  if (shards_.empty()) return InvalidArgument("follower daemon needs stores");
  // Advertising a non-loopback address promises the primary a dial-back
  // across the network, so the endpoint must listen beyond loopback.
  bool bind_any = options_.advertise_host != "127.0.0.1" &&
                  options_.advertise_host != "localhost";
  server_ = std::make_unique<net::TcpServer>(
      std::make_shared<Forwarder>(this), port,
      net::TcpServerOptions{.bind_any = bind_any});
  TC_RETURN_IF_ERROR(server_->Start());
  {
    MutexLock lock(view_mu_);
    primary_host_ = options_.primary_host;
    primary_port_ = options_.primary_port;
  }
  ticker_ = std::thread([this] { TickLoop(); });
  return Status::Ok();
}

void FollowerDaemon::Stop() {
  {
    MutexLock lock(tick_mu_);
    if (stop_) return;
    stop_ = true;
    tick_cv_.NotifyAll();
  }
  if (ticker_.joinable()) ticker_.join();
  if (server_) server_->Stop();
}

uint64_t FollowerDaemon::applied_seq(uint32_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->applied_seq();
}

uint64_t FollowerDaemon::snapshot_chunks_received(uint32_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->snapshot_chunks_received();
}

bool FollowerDaemon::snapshot_in_progress(uint32_t shard) const {
  if (shard >= shards_.size()) return false;
  return shards_[shard]->snapshot_in_progress();
}

size_t FollowerDaemon::num_remote_followers() const {
  ReaderMutexLock lock(mode_mu_);
  size_t n = 0;
  for (const auto& set : promoted_sets_) n += set->num_remote_followers();
  return n;
}

size_t FollowerDaemon::NumStreams() const {
  {
    ReaderMutexLock lock(mode_mu_);
    if (!promoted_sets_.empty()) {
      size_t n = 0;
      for (const auto& set : promoted_sets_) n += set->NumStreams();
      return n;
    }
  }
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->engine().NumStreams();
  return n;
}

void FollowerDaemon::Touch() { last_contact_ms_.store(NowMs()); }

int64_t FollowerDaemon::MillisSinceContact() const {
  int64_t last = last_contact_ms_.load();
  if (last == 0) return 0;  // never contacted: the registrar's problem
  return NowMs() - last;
}

Result<Bytes> FollowerDaemon::Handle(net::MessageType type, BytesView body) {
  // The shared lock is held across the whole frame: PromoteSelf()'s brief
  // exclusive acquisitions therefore act as barriers — once sealing is
  // observed, no replication frame can mutate the stores the new primary
  // stack is being recovered from, and a late frame from a still-alive old
  // primary can never slip a mutation in outside the new era's log.
  ReaderMutexLock lock(mode_mu_);
  if (serving_) return serving_->Handle(type, body);
  // Sealed, the frames a primary sends its followers are refused; reads
  // keep serving through the promotion, and a Hello still learns that this
  // node is not a primary yet.
  if (sealed_ && net::FrameType(type).route == net::Route::kReplication &&
      type != net::MessageType::kReplicaHello) {
    return Unavailable("follower is promoting; no longer replicating");
  }
  return HandleFollowing(type, body);
}

Result<Bytes> FollowerDaemon::HandleFollowing(net::MessageType type,
                                              BytesView body) {
  using net::MessageType;
  const net::FrameTypeInfo& info = net::FrameType(type);
  // Replica reads are served from the refreshed local engine, without a
  // second network hop.
  if (info.replica_read) return ServeRead(type, body);
  // A follower answers from its own registry (net + apply-path metrics;
  // engine-derived gauges refresh through the serving path), span ring and
  // event journal — `tccli trace --peers` stitches them with the primary's
  // under one trace id.
  if (info.route == net::Route::kProcess) return net::Introspect(type, body);
  switch (type) {
    case MessageType::kReplicaOps:
    case MessageType::kReplicaSnapshotBegin:
    case MessageType::kReplicaSnapshotChunk:
    case MessageType::kReplicaSnapshotEnd: {
      // Every apply request leads with its shard; that shard's applier
      // decodes the rest.
      BinaryReader r(body);
      TC_ASSIGN_OR_RETURN(uint32_t shard, r.GetU32());
      if (shard >= shards_.size()) {
        return InvalidArgument("replica frame for unknown shard");
      }
      Touch();
      return shards_[shard]->Handle(type, body);
    }
    case MessageType::kReplicaHeartbeat: {
      TC_ASSIGN_OR_RETURN(auto req,
                          net::ReplicaHeartbeatRequest::Decode(body));
      Touch();
      if (req.shard == 0) {
        // Elections key on shard 0's view (all shards ship from the same
        // primary process, so liveness and progress move together).
        bool changed = false;
        size_t peers = 0;
        {
          MutexLock lock(view_mu_);
          changed = view_.size() != req.peers.size();
          if (!changed) {
            for (size_t i = 0; i < view_.size(); ++i) {
              if (view_[i].host != req.peers[i].host ||
                  view_[i].port != req.peers[i].port) {
                changed = true;
                break;
              }
            }
          }
          view_ = req.peers;
          peers = view_.size();
        }
        if (changed) {
          trace::RecordEvent("view_change", 0,
                             "peers=" + std::to_string(peers));
        }
      }
      return net::ReplicaAckResponse{applied_seq(req.shard)}.Encode();
    }
    case MessageType::kReplicaHello:
      return FailedPrecondition("not a primary: this node is a follower");
    case MessageType::kPing:
      return Bytes{};
    case MessageType::kClusterInfo:
      return FollowerClusterInfo();
    default:
      return Unavailable(
          "follower daemon: this operation needs the primary (writes and "
          "key-store state are not served here)");
  }
}

Result<Bytes> FollowerDaemon::ServeRead(net::MessageType type, BytesView body) {
  size_t shard_index = 0;
  if (net::FrameType(type).route == net::Route::kStream) {
    BinaryReader r(body);
    TC_ASSIGN_OR_RETURN(uint64_t uuid, r.GetU64());
    shard_index = cluster::PlaceShard(uuid, shards_.size());
  } else if (shards_.size() != 1) {
    return Unavailable("multi-stream reads need the primary");
  }
  return shards_[shard_index]->Read(type, body);
}

Result<Bytes> FollowerDaemon::FollowerClusterInfo() const {
  net::ClusterInfoResponse resp;
  for (size_t i = 0; i < shards_.size(); ++i) {
    net::ClusterInfoResponse::ShardInfo info;
    info.shard = static_cast<uint32_t>(i);
    const server::ServerEngine& engine = shards_[i]->engine();
    info.num_streams = engine.NumStreams();
    info.index_bytes = engine.TotalIndexBytes();
    info.snapshot_chunks = shards_[i]->snapshot_chunks_received();
    auto compaction = engine.StoreCompaction();
    info.store_dead_bytes = compaction.dead_bytes;
    info.store_compactions = static_cast<uint32_t>(compaction.compactions);
    resp.shards.push_back(info);
  }
  return resp.Encode();
}

void FollowerDaemon::TickLoop() {
  for (;;) {
    {
      // One tick cadence per iteration; stop cuts the sleep short.
      MutexLock lock(tick_mu_);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.tick_ms);
      while (!stop_) {
        if (tick_cv_.WaitUntil(tick_mu_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stop_) return;
    }
    if (promoted_.load()) return;  // the serving stack runs itself now

    if (!registered_.load()) {
      std::string host;
      uint16_t port;
      {
        MutexLock lock(view_mu_);
        host = primary_host_;
        port = primary_port_;
      }
      if (Status s = RegisterTo(host, port); s.ok()) {
        registered_.store(true);
        Touch();
        MutexLock lock(view_mu_);
        suspected_dead_.clear();
        not_ready_counts_.clear();
      }
      continue;
    }
    if (MillisSinceContact() >= takeover_ms_.load(std::memory_order_relaxed)) {
      HandleSilence();
    }
  }
}

Status FollowerDaemon::RegisterTo(const std::string& host, uint16_t port) {
  // Bounded: registration runs on the tick thread, which is also the
  // failure detector — a wedged candidate must cost one bounded probe,
  // not freeze the takeover state machine.
  int64_t timeout_ms = std::max<int64_t>(options_.tick_ms * 4, 500);
  auto client = net::TcpClient::Connect(host, port, timeout_ms, timeout_ms);
  TC_RETURN_IF_ERROR(client.status());
  for (size_t i = 0; i < shards_.size(); ++i) {
    net::ReplicaHelloRequest hello;
    hello.shard = static_cast<uint32_t>(i);
    hello.num_shards = static_cast<uint32_t>(shards_.size());
    hello.applied_seq = shards_[i]->applied_seq();
    hello.store_fingerprint = StoreFingerprint(*shards_[i]->kv());
    hello.host = options_.advertise_host;
    hello.port = this->port();
    TC_ASSIGN_OR_RETURN(
        Bytes reply,
        (*client)->Call(net::MessageType::kReplicaHello, hello.Encode()));
    if (auto response = net::ReplicaHelloResponse::Decode(reply);
        response.ok() && response->heartbeat_ms > 0) {
      // Size the silence window to the primary's actual beacon cadence: a
      // primary beating slower than the configured takeover window would
      // otherwise be declared dead between two healthy beacons.
      takeover_ms_.store(
          std::max<int64_t>(options_.takeover_timeout_ms,
                            static_cast<int64_t>(response->heartbeat_ms) * 4),
          std::memory_order_relaxed);
    }
  }
  {
    MutexLock lock(view_mu_);
    primary_host_ = host;
    primary_port_ = port;
  }
  trace::RecordEvent("registered_to_primary", trace::kNoShard,
                     host + ":" + std::to_string(port));
  return Status::Ok();
}

void FollowerDaemon::HandleSilence() {
  if (!options_.auto_promote) {
    // Passive replica: keep the window from re-firing every tick, and let
    // the registrar re-announce in case the primary comes back.
    Touch();
    registered_.store(false);
    return;
  }
  struct Candidate {
    uint64_t applied;
    std::string host;
    uint32_t port;
  };
  std::string self_host = options_.advertise_host;
  uint32_t self_port = port();
  std::vector<Candidate> candidates;
  bool self_in_view = false;
  {
    MutexLock lock(view_mu_);
    for (const auto& peer : view_) {
      candidates.push_back({peer.applied_seq, peer.host, peer.port});
      if (peer.host == self_host && peer.port == self_port) {
        self_in_view = true;
      }
    }
  }
  trace::RecordEvent("takeover_election", trace::kNoShard,
                     "silent_ms=" + std::to_string(MillisSinceContact()) +
                         " candidates=" +
                         std::to_string(candidates.size() +
                                        (self_in_view ? 0 : 1)));
  // Every elector must rank from the SAME numbers — the broadcast view,
  // our own entry included. Substituting our live applied seq here would
  // let two daemons each see themselves ahead (ops shipped to one of them
  // after the final beacon) and both promote on a healthy network. The
  // price is that a tail shipped after the last beacon may lose the
  // election to a view-tied peer and be reconciled away on re-homing —
  // the async-replication contract; see the header's election caveats.
  if (!self_in_view) {
    candidates.push_back({applied_seq(0), self_host, self_port});
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a,
                                                     const Candidate& b) {
    if (a.applied != b.applied) return a.applied > b.applied;
    if (a.host != b.host) return a.host < b.host;
    return a.port < b.port;
  });
  for (const auto& candidate : candidates) {
    std::string endpoint =
        candidate.host + ":" + std::to_string(candidate.port);
    {
      MutexLock lock(view_mu_);
      if (suspected_dead_.contains(endpoint)) continue;
    }
    if (candidate.host == self_host && candidate.port == self_port) {
      PromoteSelf();
      return;
    }
    Status s = RegisterTo(candidate.host,
                          static_cast<uint16_t>(candidate.port));
    if (s.ok()) {
      TC_LOG_INFO << "follower " << this->endpoint() << " re-homed under "
                  << endpoint;
      trace::RecordEvent("follower_rehomed", trace::kNoShard, endpoint);
      registered_.store(true);
      Touch();
      MutexLock lock(view_mu_);
      suspected_dead_.clear();
      not_ready_counts_.clear();
      return;
    }
    if (s.code() == StatusCode::kFailedPrecondition) {
      // Alive but still a follower — it is likely about to win the same
      // election (large-store engine recovery can take a while). Give it
      // several takeover windows, but not forever: a peer that never
      // promotes (e.g. started with --no-auto-promote, or wedged after
      // winning) must not hold the whole group headless.
      MutexLock lock(view_mu_);
      if (++not_ready_counts_[endpoint] >= 5) {
        TC_LOG_WARN << "candidate " << endpoint
                    << " stayed a follower through 5 takeover windows; "
                       "skipping it in future elections";
        suspected_dead_.insert(endpoint);
        continue;
      }
      Touch();
      return;
    }
    MutexLock lock(view_mu_);
    suspected_dead_.insert(endpoint);
  }
  // Unreachable: we are always our own candidate and never suspected dead.
}

void FollowerDaemon::PromoteSelf() {
  TC_LOG_WARN << "follower " << endpoint() << " saw the primary silent for "
              << MillisSinceContact() << "ms; promoting itself";
  trace::RecordEvent("self_promotion", trace::kNoShard,
                     endpoint() + " silent_ms=" +
                         std::to_string(MillisSinceContact()));
  // Seal replication first: after this barrier no frame from a
  // believed-dead-but-actually-alive old primary can mutate the stores
  // while (or after) the new primary stack recovers from them.
  {
    WriterMutexLock lock(mode_mu_);
    sealed_ = true;
  }
  // Full recovery over the replicated stores: streams, grants, witness
  // trees — everything the dead primary had shipped. The new stack is a
  // first-class primary: replication-capable, coordinator attached, so the
  // surviving followers re-home here and ingest resumes.
  std::vector<std::shared_ptr<ReplicaSet>> sets;
  for (size_t i = 0; i < shards_.size(); ++i) {
    server::ServerOptions engine_options = options_.engine_options;
    engine_options.shard_id = static_cast<uint32_t>(i);
    sets.push_back(ReplicaSet::Make(shards_[i]->kv(), {}, engine_options,
                                    options_.set_options));
  }
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator = std::make_shared<PrimaryCoordinator>(
      router, sets, options_.coordinator);
  {
    WriterMutexLock lock(mode_mu_);
    promoted_sets_ = std::move(sets);
    promoted_coordinator_ = coordinator;
    serving_ = coordinator;
  }
  promoted_.store(true);
  TC_LOG_INFO << "promotion complete: " << NumStreams()
              << " stream(s) serving at " << endpoint();
  trace::RecordEvent("promotion_complete", trace::kNoShard,
                     endpoint() + " streams=" +
                         std::to_string(NumStreams()));
}

}  // namespace tc::replica
