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
    std::vector<std::shared_ptr<store::LogKvStore>> shard_logs,
    FollowerDaemonOptions options)
    : options_(std::move(options)),
      takeover_ms_(options_.set_options.failover.takeover_ms) {
  for (size_t i = 0; i < shard_logs.size(); ++i) {
    server::ServerOptions engine_options = options_.engine_options;
    engine_options.shard_id = static_cast<uint32_t>(i);
    shards_.push_back(std::make_unique<ReplicaApplier>(
        std::move(shard_logs[i]), engine_options));
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
  ticker_ = std::make_unique<PeriodicThread>(
      std::chrono::milliseconds(std::clamp<int64_t>(
          options_.set_options.failover.takeover_ms / 20, 10, 100)),
      [this] { Tick(); });
  return Status::Ok();
}

void FollowerDaemon::Stop() {
  ticker_.reset();
  if (server_) server_->Stop();
}

store::LogPosition FollowerDaemon::position(uint32_t shard) const {
  if (shard >= shards_.size()) return {};
  return shards_[shard]->position();
}

uint64_t FollowerDaemon::full_copies(uint32_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->full_copies();
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
  // Blocking under that shared hold (applying and flushing a frame, or
  // serving one once promoted) is the point: it only makes a promotion
  // wait for the frames in flight. Locks taken further in are still
  // checked.
  ScopedAllowBlocking allow;
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
  // A follower answers from its own registry (net and apply-path metrics,
  // and its shards' gauges, refreshed first), span ring and event journal
  // — `tccli trace --peers` stitches them with the primary's under one
  // trace id.
  if (info.route == net::Route::kProcess) {
    return net::Introspect(type, body, [this] {
      (void)FollowerClusterInfo();  // for the gauges it publishes
    });
  }
  switch (type) {
    case MessageType::kReplicaLog: {
      // The frame leads with its shard; that shard's applier decodes the
      // rest.
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
      store::LogPosition at = position(req.shard);
      return net::ReplicaLogAck{at.generation, at.length}.Encode();
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
  for (const auto& shard : shards_) {
    // The snapshot publishes the shard's gauges too.
    resp.shards.push_back(shard->engine().ShardInfoSnapshot());
    resp.shards.back().full_copies = shard->full_copies();
  }
  return resp.Encode();
}

void FollowerDaemon::Tick() {
  if (promoted_.load()) return;  // the serving stack runs itself now
  if (!registered_.load()) {
    std::string host;
    uint16_t port;
    {
      MutexLock lock(view_mu_);
      host = primary_host_;
      port = primary_port_;
    }
    // A refused hello is sent again next tick.
    (void)RegisterTo(host, port);
    return;
  }
  if (MillisSinceContact() >= takeover_ms_.load(std::memory_order_relaxed)) {
    HandleSilence();
  }
}

Status FollowerDaemon::RegisterTo(const std::string& host, uint16_t port) {
  // Bounded: registration runs on the tick thread, which is also the
  // failure detector — a wedged candidate must cost one bounded probe,
  // not freeze the takeover state machine.
  constexpr int64_t timeout_ms = 500;
  auto client = net::TcpClient::Connect(host, port, timeout_ms, timeout_ms);
  TC_RETURN_IF_ERROR(client.status());
  for (size_t i = 0; i < shards_.size(); ++i) {
    net::ReplicaHelloRequest hello;
    hello.shard = static_cast<uint32_t>(i);
    hello.num_shards = static_cast<uint32_t>(shards_.size());
    store::LogPosition at = shards_[i]->position();
    hello.generation = at.generation;
    hello.length = at.length;
    hello.store_fingerprint = StoreFingerprint(*shards_[i]->log());
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
          std::max<int64_t>(options_.set_options.failover.takeover_ms,
                            static_cast<int64_t>(response->heartbeat_ms) * 4),
          std::memory_order_relaxed);
    }
  }
  {
    MutexLock lock(view_mu_);
    primary_host_ = host;
    primary_port_ = port;
    suspected_dead_.clear();
    not_ready_counts_.clear();
  }
  registered_.store(true);
  Touch();
  trace::RecordEvent("registered_to_primary", trace::kNoShard,
                     host + ":" + std::to_string(port));
  return Status::Ok();
}

void FollowerDaemon::HandleSilence() {
  const std::string self = endpoint();
  std::vector<Candidate> candidates;
  std::vector<std::pair<std::string, uint16_t>> addresses;  // by candidate
  {
    MutexLock lock(view_mu_);
    for (const auto& peer : view_) {
      candidates.push_back(
          {peer.host + ":" + std::to_string(peer.port), peer.log_bytes});
      addresses.emplace_back(peer.host, static_cast<uint16_t>(peer.port));
    }
  }
  // Every elector must rank from the SAME numbers — the broadcast view,
  // our own entry included. Substituting our live log length here would
  // let two daemons each see themselves ahead (bytes shipped to one of
  // them after the final beacon) and both promote on a healthy network.
  // The price is that a tail shipped after the last beacon may lose the
  // election to a view-tied peer and be copied away on re-homing — the
  // async-replication contract; see the header's election caveats.
  if (std::none_of(candidates.begin(), candidates.end(),
                   [&](const Candidate& c) { return c.label == self; })) {
    candidates.push_back({self, position(0).length});
    addresses.emplace_back(options_.advertise_host, port());
  }
  trace::RecordEvent("takeover_election", trace::kNoShard,
                     "silent_ms=" + std::to_string(MillisSinceContact()) +
                         " candidates=" + std::to_string(candidates.size()));
  for (size_t i : RankCandidates(candidates)) {
    const std::string& endpoint = candidates[i].label;
    if (endpoint == self) {
      if (!options_.auto_promote) continue;  // a passive daemon only follows
      PromoteSelf();
      return;
    }
    {
      MutexLock lock(view_mu_);
      if (suspected_dead_.contains(endpoint)) continue;
    }
    Status s = RegisterTo(addresses[i].first, addresses[i].second);
    if (s.ok()) {
      TC_LOG_INFO << "follower " << self << " re-homed under " << endpoint;
      trace::RecordEvent("follower_rehomed", trace::kNoShard, endpoint);
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
  // Only a passive daemon gets here (a daemon that promotes is its own
  // candidate and never suspected): no peer took it in, so keep the window
  // from re-firing every tick and let the registrar retry the last
  // primary, in case it comes back.
  Touch();
  registered_.store(false);
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
    auto set = ReplicaSet::Make(shards_[i]->log(), {}, engine_options,
                                options_.set_options);
    if (!set.ok()) {
      // The log refused its new generation (a failed write): stay a
      // follower, sealed, rather than serve a history that cannot fork
      // safely.
      TC_LOG_ERROR << "promotion of " << endpoint() << " failed: "
                   << set.status().ToString();
      return;
    }
    sets.push_back(std::move(*set));
  }
  auto router = std::make_shared<cluster::ShardRouter>(sets);
  auto coordinator = std::make_shared<PrimaryCoordinator>(
      router, sets, options_.set_options.failover);
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
