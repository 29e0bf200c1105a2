#include "server/server_engine.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "integrity/attestation.hpp"
#include "net/introspection.hpp"

namespace tc::server {

using net::MessageType;

namespace {
constexpr const char kDirectoryKey[] = "meta/streams";
constexpr const char kGrantDirectoryKey[] = "meta/grantdir";

std::string ConfigKey(uint64_t uuid) {
  return "meta/cfg/" + std::to_string(uuid);
}

/// The stream directory (kDirectoryKey): every stream's uuid, in order.
struct StreamDirectory {
  std::vector<uint64_t> uuids;

  static void Visit(auto& m, auto& v) { v(m.uuids); }
};

/// The grant directory (kGrantDirectoryKey): per principal, in order, the
/// (uuid, grant id) of each grant it holds.
struct GrantDirectory {
  using Grants = std::vector<std::pair<uint64_t, uint64_t>>;
  std::vector<std::pair<std::string, Grants>> principals;

  static void Visit(auto& m, auto& v) { v(m.principals); }
};

/// The record under `key`; an empty one when the store has none.
template <typename Record>
Result<Record> ReadRecord(const store::KvStore& kv, const std::string& key) {
  auto blob = kv.Get(key);
  if (blob.status().code() == StatusCode::kNotFound) return Record{};
  TC_RETURN_IF_ERROR(blob.status());
  return net::codec::Decode<Record>(*blob);
}

/// Chunks per payload block (see the header). A constant of the store
/// layout, independent of the index fanout.
constexpr uint64_t kBlockChunks = 64;

std::string PayloadKey(uint64_t uuid, uint64_t block) {
  return "pay/" + std::to_string(uuid) + "/" + std::to_string(block);
}

/// A payload block holds one entry per chunk: varint length, then the
/// payload, the layout of a codec Bytes field. PutEntries is its one writer,
/// into a codec::ByteCounter to size a run or a BinaryWriter to encode it,
/// and NextEntry its one reader; both work on views, so no payload is
/// copied on its way into or out of a block.
template <typename Sink>
void PutEntries(Sink& out, std::span<const BytesView> payloads) {
  for (BytesView p : payloads) out.PutBytes(p);
}

Bytes EncodeEntries(std::span<const BytesView> payloads) {
  net::codec::ByteCounter size;
  PutEntries(size, payloads);
  BinaryWriter out(size.size());
  PutEntries(out, payloads);
  return std::move(out).Take();
}

/// Read the next entry of a payload block.
Result<BytesView> NextEntry(BinaryReader& block, const std::string& key) {
  auto length = block.GetVar();
  auto payload = length.ok() ? block.GetRaw(*length) : length.status();
  if (!payload.ok()) {
    return DataLoss("payload block " + key + " ends before its chunks do");
  }
  return *payload;
}

/// Per-MessageType request count + latency, registered eagerly for every
/// frame type on first use so one lookup serves the whole process lifetime.
struct RequestMetrics {
  metrics::Counter& count;
  metrics::LatencyHistogram& latency;
};

RequestMetrics& MetricsFor(MessageType type) {
  // One slot per frame-table row, plus a last one shared by every byte past
  // the table. Reserved rows and that last slot are all labelled "unknown".
  static auto* table = [] {
    auto* t = new std::vector<RequestMetrics>;
    t->reserve(net::kNumFrameTypes + 1);
    for (size_t i = 0; i <= net::kNumFrameTypes; ++i) {
      std::string labels = std::string("type=\"") +
                           net::MessageTypeName(static_cast<MessageType>(i)) +
                           "\"";
      t->push_back({metrics::GetCounter("tc_server_requests_total", labels),
                    metrics::GetHistogram("tc_server_request_seconds",
                                          labels)});
    }
    return t;
  }();
  return (*table)[std::min(static_cast<size_t>(type), net::kNumFrameTypes)];
}

/// Stage-split histograms for the slow-op breakdown (decode/store/index/
/// crypto/sync on ingest, decode/index on queries).
enum class Stage { kDecode, kStore, kIndex, kCrypto, kSync };

metrics::LatencyHistogram& StageHist(Stage stage) {
  static metrics::LatencyHistogram* hists[] = {
      &metrics::GetHistogram("tc_server_stage_seconds", "stage=\"decode\""),
      &metrics::GetHistogram("tc_server_stage_seconds", "stage=\"store\""),
      &metrics::GetHistogram("tc_server_stage_seconds", "stage=\"index\""),
      &metrics::GetHistogram("tc_server_stage_seconds", "stage=\"crypto\""),
      &metrics::GetHistogram("tc_server_stage_seconds", "stage=\"sync\""),
  };
  return *hists[static_cast<size_t>(stage)];
}
}  // namespace

ServerEngine::ServerEngine(std::shared_ptr<store::KvStore> kv,
                           ServerOptions options)
    : kv_(std::move(kv)), options_(options) {
  // Recovery is a refresh of the empty registry.
  if (Status s = Refresh(); !s.ok()) {
    TC_LOG_WARN << "recovery: skipping every stream: " << kDirectoryKey
                << ": " << s.ToString();
  }
  MutexLock lock(keystore_mu_);
  RecoverGrantDirectory();
}

void ServerEngine::RecoverStream(uint64_t uuid) {
  auto blob = kv_->Get(ConfigKey(uuid));
  if (blob.status().code() == StatusCode::kNotFound) return;
  auto stream = [&]() -> Result<std::shared_ptr<Stream>> {
    TC_RETURN_IF_ERROR(blob.status());
    TC_ASSIGN_OR_RETURN(auto config,
                        net::codec::Decode<net::StreamConfig>(*blob));
    return OpenStream(uuid, config, /*recover=*/true);
  }();
  if (!stream.ok()) {
    TC_LOG_WARN << "recovery: skipping stream " << uuid << " ("
                << ConfigKey(uuid) << "): " << stream.status().ToString();
    refused_.insert(uuid);
    return;
  }
  refused_.erase(uuid);
  streams_.emplace(uuid, std::move(*stream));
}

Result<std::shared_ptr<ServerEngine::Stream>> ServerEngine::OpenStream(
    uint64_t uuid, const net::StreamConfig& config, bool recover) {
  TC_ASSIGN_OR_RETURN(auto cipher, MakeAddCipher(config));
  auto tree = std::make_unique<index::AggTree>(
      kv_, "idx/" + std::to_string(uuid), cipher,
      index::AggTreeOptions{config.fanout, options_.index_cache_bytes});
  auto stream = std::make_shared<Stream>(config, cipher, std::move(tree));
  if (!recover) return stream;
  if (kv_->Contains("chunk/" + std::to_string(uuid) + "/0")) {
    return DataLoss("stream " + std::to_string(uuid) +
                    " keeps its payloads under per-chunk keys "
                    "(chunk/<uuid>/<index>), a layout this server no longer "
                    "reads; it reads 64-chunk blocks (pay/<uuid>/<block>)");
  }
  // The stream has not escaped this function yet, so its lock is
  // uncontended; taking it keeps the recovery under mu's capability.
  WriterMutexLock stream_lock(stream->mu);
  TC_RETURN_IF_ERROR(CatchUpWithStore(uuid, *stream));
  return stream;
}

Status ServerEngine::CatchUpWithStore(uint64_t uuid, Stream& stream) {
  // After a failed write the store holds at least the tree's chunks; a
  // replica follows its store, which a full copy can move back.
  const uint64_t held = stream.stale ? stream.tree->num_chunks() : 0;
  TC_RETURN_IF_ERROR(stream.tree->Recover(held));
  const uint64_t n = stream.tree->num_chunks();
  stream.open_block_bytes = 0;
  stream.open_block_ahead = false;
  if (n % kBlockChunks != 0) {
    // Payloads land before index entries, so the block holds an entry for
    // every indexed chunk in it, and may hold more.
    const std::string key = PayloadKey(uuid, n / kBlockChunks);
    auto block = kv_->Get(key);
    if (block.status().code() == StatusCode::kNotFound) {
      return DataLoss("payload block " + key + " is missing");
    }
    TC_RETURN_IF_ERROR(block.status());
    BinaryReader r(*block);
    for (uint64_t i = 0; i < n % kBlockChunks; ++i) {
      TC_RETURN_IF_ERROR(NextEntry(r, key).status());
    }
    stream.open_block_bytes = r.position();
    stream.open_block_ahead = !r.AtEnd();
  }
  if (stream.witnesses) {
    // Extend the witness tree from the stored ciphertexts — the witnesses
    // hash exactly what the store holds, so this is a pure recomputation.
    TC_RETURN_IF_ERROR(ReadPayloads(
        uuid, stream.witnesses->size(), n,
        [&](uint64_t i, BytesView payload) -> Status {
          TC_ASSIGN_OR_RETURN(Bytes digest, stream.tree->LeafDigest(i));
          stream.witnesses->Append(
              integrity::ChunkWitness(uuid, i, digest, payload));
          return Status::Ok();
        }));
  }
  stream.stale = false;
  return Status::Ok();
}

Status ServerEngine::StoreDirectoryLocked() {
  // Refused streams stay listed: the store still holds them.
  std::set<uint64_t> uuids(refused_);
  for (const auto& [uuid, stream] : streams_) uuids.insert(uuid);
  const StreamDirectory dir{{uuids.begin(), uuids.end()}};
  return kv_->Put(kDirectoryKey, net::codec::Encode(dir));
}

Status ServerEngine::StoreGrantDirectoryLocked() {
  GrantDirectory dir;
  dir.principals.assign(principal_grants_.begin(), principal_grants_.end());
  return kv_->Put(kGrantDirectoryKey, net::codec::Encode(dir));
}

void ServerEngine::RecoverGrantDirectory() {
  auto dir = ReadRecord<GrantDirectory>(*kv_, kGrantDirectoryKey);
  if (!dir.ok()) {
    TC_LOG_WARN << "recovery: skipping every grant: " << kGrantDirectoryKey
                << ": " << dir.status().ToString();
    return;
  }
  principal_grants_.insert(dir->principals.begin(), dir->principals.end());
}

Status ServerEngine::Refresh() {
  // Decode the store's current stream directory. Only NotFound means "no
  // streams"; a transient store error must fail the refresh, not be
  // mistaken for an empty directory and tear down every serving stream.
  TC_ASSIGN_OR_RETURN(auto dir,
                      ReadRecord<StreamDirectory>(*kv_, kDirectoryKey));
  const std::set<uint64_t> live(dir.uuids.begin(), dir.uuids.end());

  // Diff it against the in-memory registry.
  std::vector<std::pair<uint64_t, std::shared_ptr<Stream>>> existing;
  {
    WriterMutexLock lock(streams_mu_);
    for (auto it = streams_.begin(); it != streams_.end();) {
      if (live.contains(it->first)) {
        existing.emplace_back(it->first, it->second);
        ++it;
      } else {
        it = streams_.erase(it);  // deleted on the primary
      }
    }
    std::erase_if(refused_,
                  [&](uint64_t uuid) { return !live.contains(uuid); });
    for (uint64_t uuid : live) {
      if (!streams_.contains(uuid)) RecoverStream(uuid);
    }
  }

  // Re-sync streams that already had handles: new appends moved their
  // index position and (for integrity streams) grew the witness history.
  for (auto& [uuid, stream] : existing) {
    WriterMutexLock stream_lock(stream->mu);
    TC_RETURN_IF_ERROR(CatchUpWithStore(uuid, *stream));
  }
  return Status::Ok();
}

Result<Bytes> ServerEngine::Handle(MessageType type, BytesView body) {
  RequestMetrics& request_metrics = MetricsFor(type);
  request_metrics.count.Inc();
  // The span records total latency per type into the ring (for kTraceInfo
  // stitching) tagged with this engine's shard and, when the slow-op
  // threshold is armed, logs the stage breakdown with the wire trace id.
  metrics::TraceSpan span(net::MessageTypeName(type),
                          &request_metrics.latency, options_.shard_id,
                          static_cast<uint8_t>(type));
  switch (type) {
    case MessageType::kCreateStream: return CreateStream(body);
    case MessageType::kDeleteStream: return DeleteStream(body);
    case MessageType::kInsertChunkBatch: return InsertChunkBatch(body);
    case MessageType::kClusterInfo: return ClusterInfo();
    case MessageType::kGetRange: return GetRange(body);
    case MessageType::kGetStatRange: return GetStatRange(body);
    case MessageType::kGetStatSeries: return GetStatSeries(body);
    case MessageType::kMultiStatRange: return MultiStatRange(body);
    case MessageType::kRollupStream: return RollupStream(*this, *this, body);
    case MessageType::kDeleteRange: return DeleteRange(body);
    case MessageType::kGetStreamInfo: return GetStreamInfo(body);
    case MessageType::kPutGrant: return PutGrant(body);
    case MessageType::kFetchGrants: return FetchGrants(body);
    case MessageType::kRevokeGrant: return RevokeGrant(body);
    case MessageType::kPutEnvelopes: return PutEnvelopes(body);
    case MessageType::kGetEnvelopes: return GetEnvelopes(body);
    case MessageType::kPutAttestation: return PutAttestation(body);
    case MessageType::kGetAttestation: return GetAttestation(body);
    case MessageType::kGetChunkWitnessed: return GetChunkWitnessed(body);
    case MessageType::kPing: return Bytes{};
    default: break;
  }
  if (net::FrameType(type).route == net::Route::kProcess) {
    // Gauges derived from engine state are refreshed on scrape, not on
    // mutation — the snapshot call doubles as the refresh.
    return net::Introspect(type, body, [this] { ShardInfoSnapshot(); });
  }
  // kResponse, replication frames (a follower's ReplicaApplier and a
  // PrimaryCoordinator handle those) and bytes with no frame type.
  return InvalidArgument("unknown message type");
}

size_t ServerEngine::NumStreams() const {
  ReaderMutexLock lock(streams_mu_);
  return streams_.size();
}

uint64_t ServerEngine::TotalIndexBytes() const {
  ReaderMutexLock lock(streams_mu_);
  uint64_t total = 0;
  for (const auto& [uuid, stream] : streams_) {
    ReaderMutexLock stream_lock(stream->mu);
    total += stream->tree->IndexBytes();
  }
  return total;
}

Result<const index::AggTree*> ServerEngine::GetIndexForTesting(
    uint64_t uuid) const {
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(uuid));
  return stream->tree.get();
}

Result<std::shared_ptr<const index::DigestCipher>> ServerEngine::MakeAddCipher(
    const net::StreamConfig& config) {
  if (config.cipher != net::CipherKind::kPlain &&
      config.cipher != net::CipherKind::kHeac) {
    return InvalidArgument(
        "cipher kind " + std::to_string(static_cast<int>(config.cipher)) +
        " is not served: streams are HEAC (1) or plaintext (0)");
  }
  size_t fields = config.schema.num_fields();
  if (fields == 0) return InvalidArgument("stream schema has no fields");
  // HEAC addition is plaintext-ring addition over opaque words: the server
  // runs the identical code for both (that is the design).
  return std::shared_ptr<const index::DigestCipher>(
      index::MakePlainCipher(fields));
}

Result<std::shared_ptr<ServerEngine::Stream>> ServerEngine::FindStream(
    uint64_t uuid) const {
  ReaderMutexLock lock(streams_mu_);
  auto it = streams_.find(uuid);
  if (it == streams_.end()) {
    return NotFound("stream " + std::to_string(uuid) + " does not exist");
  }
  return it->second;
}

Result<std::pair<uint64_t, uint64_t>> ServerEngine::ResolveRange(
    const Stream& stream, const TimeRange& range) {
  TC_ASSIGN_OR_RETURN(auto idx_range, stream.config.clock().IndexRange(range));
  auto [first, last] = idx_range;
  uint64_t ingested = stream.tree->num_chunks();
  if (first >= ingested) return OutOfRange("range beyond ingested data");
  last = std::min(last, ingested);
  return std::make_pair(first, last);
}

Status ServerEngine::AppendChunks(uint64_t uuid, Stream& stream,
                                  std::span<const BytesView> payloads,
                                  BytesView digests) {
  // Payloads before the index run: any store state where the index shows
  // chunk n also holds n's payload. Replicas and crash recovery see
  // mutation prefixes, and the reverse order would let them serve an index
  // position whose payload never arrived. Payloads a failed run left past
  // the position are overwritten by the retry.
  const uint64_t first = stream.tree->num_chunks();
  size_t landed = 0;
  Status status = WritePayloads(uuid, stream, payloads, landed);
  metrics::TraceSpan::StageMark("store", &StageHist(Stage::kStore));
  if (landed > 0) {
    const size_t blob_size = stream.add_cipher->blob_size();
    Status run = stream.tree->AppendRun(first, landed,
                                        digests.first(landed * blob_size));
    if (!run.ok()) status = std::move(run);
  }
  metrics::TraceSpan::StageMark("index", &StageHist(Stage::kIndex));
  // Move the open block to the new position. Written blocks hold exactly
  // the accepted chunks unless the index stopped short of them.
  const uint64_t end = stream.tree->num_chunks();
  if (landed > 0) stream.open_block_ahead = first + landed > end;
  const uint64_t open_first = end - end % kBlockChunks;
  if (open_first > first) stream.open_block_bytes = 0;
  const uint64_t from = std::max(first, open_first);
  net::codec::ByteCounter appended;
  PutEntries(appended, payloads.subspan(from - first, end - from));
  stream.open_block_bytes += appended.size();
  return status;
}

Status ServerEngine::WritePayloads(uint64_t uuid, const Stream& stream,
                                   std::span<const BytesView> payloads,
                                   size_t& landed) {
  const uint64_t first = stream.tree->num_chunks();
  landed = 0;
  while (landed < payloads.size()) {
    const uint64_t chunk = first + landed;
    const size_t take = std::min<size_t>(kBlockChunks - chunk % kBlockChunks,
                                         payloads.size() - landed);
    const Bytes share = EncodeEntries(payloads.subspan(landed, take));
    // Only the run's first share can continue a block.
    const size_t expected = landed == 0 ? stream.open_block_bytes : 0;
    const std::string key = PayloadKey(uuid, chunk / kBlockChunks);
    if (expected == 0) {
      TC_RETURN_IF_ERROR(kv_->Put(key, share));
    } else if (stream.open_block_ahead) {
      // Rewrite the block without the entries past the position.
      TC_ASSIGN_OR_RETURN(Bytes block, kv_->Get(key));
      if (block.size() < expected) {
        return DataLoss("payload block " + key + " is shorter than its chunks");
      }
      block.resize(expected);
      tc::Append(block, share);
      TC_RETURN_IF_ERROR(kv_->Put(key, block));
    } else {
      TC_RETURN_IF_ERROR(kv_->Append(key, expected, share).status());
    }
    landed += take;
  }
  return Status::Ok();
}

Status ServerEngine::ReadPayloads(
    uint64_t uuid, uint64_t first, uint64_t last,
    const std::function<Status(uint64_t, BytesView)>& fn) const {
  for (uint64_t block = first / kBlockChunks; block * kBlockChunks < last;
       ++block) {
    const std::string key = PayloadKey(uuid, block);
    auto value = kv_->Get(key);
    if (!value.ok() && value.status().code() != StatusCode::kNotFound) {
      return value.status();
    }
    BinaryReader r(value.ok() ? BytesView(*value) : BytesView{});
    const uint64_t end = std::min(last, (block + 1) * kBlockChunks);
    for (uint64_t c = block * kBlockChunks; c < end; ++c) {
      BytesView payload;
      if (value.ok()) {
        TC_ASSIGN_OR_RETURN(payload, NextEntry(r, key));
      }
      if (c >= first) TC_RETURN_IF_ERROR(fn(c, payload));
    }
  }
  return Status::Ok();
}

Status ServerEngine::DropPayloads(uint64_t uuid, Stream& stream,
                                  uint64_t first, uint64_t last) {
  const uint64_t n = stream.tree->num_chunks();
  for (uint64_t block = first / kBlockChunks; block * kBlockChunks < last;
       ++block) {
    const std::string key = PayloadKey(uuid, block);
    const uint64_t begin = block * kBlockChunks;
    const uint64_t end = std::min(n, begin + kBlockChunks);
    if (first <= begin && end == begin + kBlockChunks && end <= last) {
      Status s = kv_->Delete(key);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
      continue;
    }
    auto value = kv_->Get(key);
    if (value.status().code() == StatusCode::kNotFound) continue;
    TC_RETURN_IF_ERROR(value.status());
    // Keep the entries of indexed chunks outside the range; entries past
    // the position (a failed run's) go.
    BinaryReader r(*value);
    std::vector<BytesView> kept;
    for (uint64_t c = begin; c < end; ++c) {
      TC_ASSIGN_OR_RETURN(BytesView payload, NextEntry(r, key));
      kept.push_back(c >= first && c < last ? BytesView{} : payload);
    }
    const Bytes rewritten = EncodeEntries(kept);
    TC_RETURN_IF_ERROR(kv_->Put(key, rewritten));
    if (block == n / kBlockChunks) {
      stream.open_block_bytes = rewritten.size();
      stream.open_block_ahead = false;
    }
  }
  return Status::Ok();
}

std::string ServerEngine::GrantKey(const std::string& principal,
                                   uint64_t uuid, uint64_t grant_id) const {
  return "grant/" + principal + "/" + std::to_string(uuid) + "/" +
         std::to_string(grant_id);
}

std::string ServerEngine::EnvelopeKey(uint64_t uuid, uint64_t resolution,
                                      uint64_t index) const {
  return "env/" + std::to_string(uuid) + "/" + std::to_string(resolution) +
         "/" + std::to_string(index);
}

Result<Bytes> ServerEngine::CreateStream(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::CreateStreamRequest::Decode(body));
  if (req.config.delta_ms <= 0) {
    return InvalidArgument("chunk interval must be positive");
  }

  WriterMutexLock lock(streams_mu_);
  if (streams_.contains(req.uuid)) {
    return AlreadyExists("stream " + std::to_string(req.uuid));
  }
  if (refused_.contains(req.uuid)) {
    return AlreadyExists("stream " + std::to_string(req.uuid) +
                         " is stored but could not be opened at recovery");
  }
  TC_ASSIGN_OR_RETURN(auto stream,
                      OpenStream(req.uuid, req.config, /*recover=*/false));
  streams_.emplace(req.uuid, std::move(stream));

  // Persist the config + directory so a restarted engine recovers the
  // stream from a durable store.
  TC_RETURN_IF_ERROR(
      kv_->Put(ConfigKey(req.uuid), net::codec::Encode(req.config)));
  TC_RETURN_IF_ERROR(StoreDirectoryLocked());
  return Bytes{};
}

Result<Bytes> ServerEngine::DeleteStream(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::DeleteStreamRequest::Decode(body));
  // Unpublish the stream first, then release streams_mu_ before waiting on
  // per-stream state: blocking on stream->mu (or running the chunk delete
  // loop) under the global lock would stall every request on the server
  // behind one slow stream operation.
  std::shared_ptr<Stream> stream;
  {
    WriterMutexLock lock(streams_mu_);
    auto it = streams_.find(req.uuid);
    if (it == streams_.end()) return NotFound("stream does not exist");
    stream = it->second;
    streams_.erase(it);
    // Best-effort cleanup; the directory rewrite below is the commit point.
    (void)kv_->Delete(ConfigKey(req.uuid));
    TC_RETURN_IF_ERROR(StoreDirectoryLocked());
  }

  // Wait out any in-flight ingest on this stream, then drop its payload
  // blocks, its index nodes and its attestation, best effort: an orphaned
  // key is unreachable once the stream is unpublished. The blocks go up to
  // the last one present, as a failed batch may have written some past the
  // position.
  WriterMutexLock stream_lock(stream->mu);
  const uint64_t open_block = stream->tree->num_chunks() / kBlockChunks;
  for (uint64_t block = 0;; ++block) {
    Status s = kv_->Delete(PayloadKey(req.uuid, block));
    if (!s.ok() && block >= open_block) break;
  }
  // Best-effort cleanup, as above.
  (void)stream->tree->Drop();
  // Best-effort cleanup; most streams have no attestation.
  (void)kv_->Delete("att/" + std::to_string(req.uuid));
  return Bytes{};
}

Result<Bytes> ServerEngine::InsertChunkBatch(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::InsertChunkBatchRequest::Decode(body));
  if (req.entries.empty()) return InvalidArgument("empty chunk batch");
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  metrics::TraceSpan::StageMark("decode", &StageHist(Stage::kDecode));

  // One lock acquisition, one index run and one (group-committed) store
  // sync for the whole batch. The batch is not atomic: on an error it
  // applies its longest valid prefix, then reports the error.
  Status status;
  {
    WriterMutexLock lock(stream->mu);
    if (stream->stale) TC_RETURN_IF_ERROR(CatchUpWithStore(req.uuid, *stream));
    const uint64_t first = stream->tree->num_chunks();
    const size_t blob_size = stream->add_cipher->blob_size();
    // The valid prefix ends at the first entry whose position or digest
    // size is wrong; AppendChunks may cut it shorter on a failed write.
    // The checks run before any store write: a rejected entry (duplicate
    // or gapped index) must not clobber a committed chunk's ciphertext.
    Bytes digests;
    digests.reserve(req.entries.size() * blob_size);
    std::vector<BytesView> payloads;
    payloads.reserve(req.entries.size());
    size_t n = 0;
    for (; n < req.entries.size(); ++n) {
      const auto& e = req.entries[n];
      if (e.chunk_index != first + n) {
        status = FailedPrecondition("append-only index: expected chunk " +
                                    std::to_string(first + n) + ", got " +
                                    std::to_string(e.chunk_index));
        break;
      }
      if (e.digest_blob.size() != blob_size) {
        status = InvalidArgument("digest blob size mismatch");
        break;
      }
      payloads.push_back(e.payload);
      tc::Append(digests, e.digest_blob);
    }
    if (n > 0) {
      Status applied = AppendChunks(req.uuid, *stream, payloads, digests);
      stream->stale = !applied.ok();
      if (!applied.ok()) status = std::move(applied);
    }
    if (stream->witnesses) {
      // Mirror the producer's witnesses, for exactly the chunks the index
      // accepted, so audit paths can be served. The producer computes the
      // same hash over the same ciphertext bytes; any later divergence is
      // exactly what verification catches.
      const uint64_t accepted = stream->tree->num_chunks() - first;
      for (size_t i = 0; i < accepted; ++i) {
        const auto& e = req.entries[i];
        stream->witnesses->Append(integrity::ChunkWitness(
            req.uuid, e.chunk_index, e.digest_blob, e.payload));
      }
      metrics::TraceSpan::StageMark("crypto", &StageHist(Stage::kCrypto));
    }
  }
  TC_RETURN_IF_ERROR(status);
  // Durability flush outside the stream lock: fsync under stream->mu would
  // stall every reader and the next insert behind the disk (and abort a
  // Debug build: B1 in common/thread_annotations.hpp).
  // The ack-after-flush contract is unchanged — we reply only after Sync —
  // and the group-committing Sync covers this batch's appends even when a
  // later insert slips in between unlock and flush.
  if (options_.sync_each_insert) {
    TC_RETURN_IF_ERROR(kv_->Sync());
    metrics::TraceSpan::StageMark("sync", &StageHist(Stage::kSync));
  }
  return Bytes{};
}

net::ClusterInfoResponse::ShardInfo ServerEngine::ShardInfoSnapshot() const {
  // Publish the per-shard gauges and build the wire struct from the same
  // values: kClusterInfo and the Prometheus exposition can never disagree.
  net::ClusterInfoResponse::ShardInfo info;
  info.shard = options_.shard_id;
  info.num_streams = NumStreams();
  info.index_bytes = TotalIndexBytes();
  auto compaction = StoreCompaction();
  info.store_dead_bytes = compaction.dead_bytes;
  info.store_compactions = static_cast<uint32_t>(compaction.compactions);
  net::PublishShardGauges(info);
  return info;
}

Result<Bytes> ServerEngine::ClusterInfo() const {
  net::ClusterInfoResponse resp;
  resp.shards.push_back(ShardInfoSnapshot());
  return resp.Encode();
}

Result<Bytes> ServerEngine::GetRange(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::GetRangeRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  metrics::TraceSpan::StageMark("decode", &StageHist(Stage::kDecode));
  ReaderMutexLock stream_lock(stream->mu);
  TC_ASSIGN_OR_RETURN(auto range, ResolveRange(*stream, req.range));

  net::GetRangeResponse resp;
  TC_RETURN_IF_ERROR(ReadPayloads(
      req.uuid, range.first, range.second,
      [&](uint64_t i, BytesView payload) {
        // A deleted or digest-only chunk has no payload to return.
        if (!payload.empty()) {
          resp.chunks.push_back({i, Bytes(payload.begin(), payload.end())});
        }
        return Status::Ok();
      }));
  metrics::TraceSpan::StageMark("store", &StageHist(Stage::kStore));
  return resp.Encode();
}

Result<Bytes> ServerEngine::GetStatRange(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::StatRangeRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  metrics::TraceSpan::StageMark("decode", &StageHist(Stage::kDecode));
  ReaderMutexLock stream_lock(stream->mu);
  TC_ASSIGN_OR_RETURN(auto range, ResolveRange(*stream, req.range));

  TC_ASSIGN_OR_RETURN(Bytes blob,
                      stream->tree->Query(range.first, range.second));
  metrics::TraceSpan::StageMark("index", &StageHist(Stage::kIndex));
  net::StatRangeResponse resp;
  resp.first_chunk = range.first;
  resp.last_chunk = range.second;
  resp.aggregate_blob = std::move(blob);
  return resp.Encode();
}

Result<Bytes> ServerEngine::GetStatSeries(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::StatSeriesRequest::Decode(body));
  if (req.granularity_chunks == 0) {
    return InvalidArgument("granularity must be positive");
  }
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  ReaderMutexLock stream_lock(stream->mu);
  TC_ASSIGN_OR_RETURN(auto range, ResolveRange(*stream, req.range));

  net::StatSeriesResponse resp;
  resp.first_chunk = range.first;
  resp.last_chunk = range.second;
  resp.granularity_chunks = req.granularity_chunks;
  for (uint64_t w = range.first; w < range.second;
       w += req.granularity_chunks) {
    uint64_t end = std::min(w + req.granularity_chunks, range.second);
    TC_ASSIGN_OR_RETURN(Bytes blob, stream->tree->Query(w, end));
    resp.aggregates.push_back(std::move(blob));
  }
  return resp.Encode();
}

Result<Bytes> ServerEngine::MultiStatRange(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::MultiStatRangeRequest::Decode(body));
  if (req.uuids.empty()) return InvalidArgument("no streams given");

  // Inter-stream aggregation (§4.3): all streams must share digest layout
  // and cipher kind; the chunk range is resolved per-stream (streams may
  // differ in Δ but the time window is common).
  Bytes acc;
  uint64_t first = 0, last = 0;
  for (size_t s = 0; s < req.uuids.size(); ++s) {
    TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuids[s]));
    ReaderMutexLock stream_lock(stream->mu);
    TC_ASSIGN_OR_RETURN(auto range, ResolveRange(*stream, req.range));
    TC_ASSIGN_OR_RETURN(Bytes blob,
                        stream->tree->Query(range.first, range.second));
    if (s == 0) {
      acc = std::move(blob);
      first = range.first;
      last = range.second;
    } else {
      if (blob.size() != acc.size()) {
        return FailedPrecondition(
            "inter-stream query requires matching digest layouts");
      }
      TC_RETURN_IF_ERROR(
          stream->add_cipher->Add(std::span<uint8_t>(acc), blob));
    }
  }
  net::StatRangeResponse resp;
  resp.first_chunk = first;
  resp.last_chunk = last;
  resp.aggregate_blob = std::move(acc);
  return resp.Encode();
}

Result<Bytes> ServerEngine::DeleteRange(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::DeleteRangeRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));

  WriterMutexLock lock(stream->mu);
  if (stream->stale) TC_RETURN_IF_ERROR(CatchUpWithStore(req.uuid, *stream));
  TC_ASSIGN_OR_RETURN(auto range, ResolveRange(*stream, req.range));
  // Drop raw payloads; per-chunk digests are retained (Table 1 row 7:
  // "Delete specified segment of the stream, while maintaining per-chunk
  // digest").
  TC_RETURN_IF_ERROR(
      DropPayloads(req.uuid, *stream, range.first, range.second));
  return Bytes{};
}

Result<Bytes> ServerEngine::GetStreamInfo(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::StreamInfoRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  ReaderMutexLock stream_lock(stream->mu);
  net::StreamInfoResponse resp;
  resp.config = stream->config;
  resp.num_chunks = stream->tree->num_chunks();
  return resp.Encode();
}

Result<Bytes> ServerEngine::PutGrant(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::PutGrantRequest::Decode(body));
  TC_RETURN_IF_ERROR(kv_->Put(
      GrantKey(req.principal_id, req.uuid, req.grant_id), req.sealed_grant));
  MutexLock lock(keystore_mu_);
  auto& list = principal_grants_[req.principal_id];
  auto entry = std::make_pair(req.uuid, req.grant_id);
  if (std::find(list.begin(), list.end(), entry) == list.end()) {
    list.push_back(entry);
  }
  TC_RETURN_IF_ERROR(StoreGrantDirectoryLocked());
  return Bytes{};
}

Result<Bytes> ServerEngine::FetchGrants(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::FetchGrantsRequest::Decode(body));
  net::FetchGrantsResponse resp;
  MutexLock lock(keystore_mu_);
  auto it = principal_grants_.find(req.principal_id);
  if (it != principal_grants_.end()) {
    for (auto [uuid, grant_id] : it->second) {
      auto sealed = kv_->Get(GrantKey(req.principal_id, uuid, grant_id));
      if (sealed.status().code() == StatusCode::kNotFound) continue;  // revoked
      TC_RETURN_IF_ERROR(sealed.status());  // store outage: surface, not hide
      resp.grants.push_back({uuid, grant_id, std::move(*sealed)});
    }
  }
  return resp.Encode();
}

Result<Bytes> ServerEngine::PutAttestation(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::PutAttestationRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  if (!stream->witnesses) {
    return FailedPrecondition("stream has no integrity witness tree");
  }
  // The server need not (and cannot meaningfully) verify the signature —
  // it just stores the latest attestation for consumers to pick up.
  TC_RETURN_IF_ERROR(
      kv_->Put("att/" + std::to_string(req.uuid), req.attestation));
  return Bytes{};
}

Result<Bytes> ServerEngine::GetAttestation(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::GetAttestationRequest::Decode(body));
  return kv_->Get("att/" + std::to_string(req.uuid));
}

Result<Bytes> ServerEngine::GetChunkWitnessed(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::GetChunkWitnessedRequest::Decode(body));
  TC_ASSIGN_OR_RETURN(auto stream, FindStream(req.uuid));
  if (!stream->witnesses) {
    return FailedPrecondition("stream has no integrity witness tree");
  }
  if (req.first_chunk >= req.last_chunk) {
    return InvalidArgument("empty chunk range");
  }
  // at_size == 0: proof-less bulk read (a producer rebuilding its witness
  // history after restart; it recomputes and cross-checks the hashes
  // itself). Otherwise paths are proven against the requested prefix.
  bool with_proofs = req.at_size != 0;
  if (with_proofs && req.last_chunk > req.at_size) {
    return OutOfRange("chunk range exceeds attested prefix");
  }
  ReaderMutexLock stream_lock(stream->mu);
  if (req.last_chunk > stream->tree->num_chunks()) {
    return OutOfRange("chunk range exceeds ingested chunks");
  }

  net::GetChunkWitnessedResponse resp;
  TC_RETURN_IF_ERROR(ReadPayloads(
      req.uuid, req.first_chunk, req.last_chunk,
      [&](uint64_t i, BytesView payload) -> Status {
        net::GetChunkWitnessedResponse::Entry entry;
        entry.chunk_index = i;
        TC_ASSIGN_OR_RETURN(entry.digest_blob, stream->tree->LeafDigest(i));
        entry.payload.assign(payload.begin(), payload.end());
        if (with_proofs) {
          TC_ASSIGN_OR_RETURN(auto path,
                              stream->witnesses->Proof(i, req.at_size));
          entry.proof = net::codec::Encode(path);
        }
        resp.entries.push_back(std::move(entry));
        return Status::Ok();
      }));
  return resp.Encode();
}

Result<Bytes> ServerEngine::RevokeGrant(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::RevokeGrantRequest::Decode(body));
  MutexLock lock(keystore_mu_);
  auto it = principal_grants_.find(req.principal_id);
  if (it == principal_grants_.end()) return Bytes{};
  auto& list = it->second;
  for (auto entry = list.begin(); entry != list.end();) {
    bool match = entry->first == req.uuid &&
                 (req.grant_id == 0 || entry->second == req.grant_id);
    if (match) {
      // Best-effort cleanup; the grant directory rewrite below is the
      // commit point.
      (void)kv_->Delete(GrantKey(req.principal_id, entry->first,
                                 entry->second));
      entry = list.erase(entry);
    } else {
      ++entry;
    }
  }
  TC_RETURN_IF_ERROR(StoreGrantDirectoryLocked());
  return Bytes{};
}

Result<Bytes> ServerEngine::PutEnvelopes(BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::PutEnvelopesRequest::Decode(body));
  for (size_t i = 0; i < req.envelopes.size(); ++i) {
    TC_RETURN_IF_ERROR(kv_->Put(
        EnvelopeKey(req.uuid, req.resolution_chunks, req.first_index + i),
        req.envelopes[i]));
  }
  return Bytes{};
}

Result<Bytes> ServerEngine::GetEnvelopes(BytesView body) const {
  TC_ASSIGN_OR_RETURN(auto req, net::GetEnvelopesRequest::Decode(body));
  if (req.last_index < req.first_index) {
    return InvalidArgument("bad envelope range");
  }
  net::GetEnvelopesResponse resp;
  resp.first_index = req.first_index;
  for (uint64_t i = req.first_index; i <= req.last_index; ++i) {
    TC_ASSIGN_OR_RETURN(
        Bytes e, kv_->Get(EnvelopeKey(req.uuid, req.resolution_chunks, i)));
    resp.envelopes.push_back(std::move(e));
  }
  return resp.Encode();
}

Result<Bytes> RollupStream(net::RequestHandler& source,
                           net::RequestHandler& target, BytesView body) {
  TC_ASSIGN_OR_RETURN(auto req, net::RollupStreamRequest::Decode(body));
  if (req.granularity_chunks == 0) {
    return InvalidArgument("rollup granularity must be positive");
  }
  // The legs are data-dependent (each needs the previous one's result), so
  // they run one after another on this thread.
  net::StreamInfoRequest info_req{req.source_uuid};
  TC_ASSIGN_OR_RETURN(
      Bytes info_blob,
      source.Handle(MessageType::kGetStreamInfo, info_req.Encode()));
  TC_ASSIGN_OR_RETURN(auto info, net::StreamInfoResponse::Decode(info_blob));
  const ChunkClock clock = info.config.clock();

  // Resolve the segment ({0,0} = whole stream so far) and align it to whole
  // rollup windows.
  uint64_t first = 0, last = info.num_chunks;
  if (!(req.range.start == 0 && req.range.end == 0)) {
    TC_ASSIGN_OR_RETURN(auto idx_range, clock.IndexRange(req.range));
    first = idx_range.first;
    if (first >= info.num_chunks) {
      return OutOfRange("range beyond ingested data");
    }
    last = std::min(idx_range.second, info.num_chunks);
  }
  first -= first % req.granularity_chunks;
  last -= last % req.granularity_chunks;
  if (first >= last) return InvalidArgument("rollup segment is empty");

  net::CreateStreamRequest create{
      req.target_uuid,
      net::RollupConfig(info.config, req.granularity_chunks, first)};
  TC_RETURN_IF_ERROR(
      target.Handle(MessageType::kCreateStream, create.Encode()).status());

  // Window aggregates are plain encrypted digests: derived chunk j is the
  // aggregate of source window j, with no payload.
  net::StatSeriesRequest series{
      req.source_uuid,
      {clock.RangeOfChunk(first).start, clock.RangeOfChunk(last - 1).end},
      req.granularity_chunks};
  TC_ASSIGN_OR_RETURN(
      Bytes series_blob,
      source.Handle(MessageType::kGetStatSeries, series.Encode()));
  TC_ASSIGN_OR_RETURN(auto windows,
                      net::StatSeriesResponse::Decode(series_blob));
  net::InsertChunkBatchRequest batch;
  batch.uuid = req.target_uuid;
  batch.entries.reserve(windows.aggregates.size());
  for (size_t j = 0; j < windows.aggregates.size(); ++j) {
    batch.entries.push_back({j, windows.aggregates[j], {}});
  }
  TC_RETURN_IF_ERROR(
      target.Handle(MessageType::kInsertChunkBatch, batch.Encode()).status());
  return net::RollupStreamResponse{first, last}.Encode();
}

}  // namespace tc::server
