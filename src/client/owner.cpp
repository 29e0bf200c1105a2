#include "client/owner.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "crypto/aes_gcm.hpp"
#include "crypto/heac.hpp"
#include "crypto/rand.hpp"

namespace tc::client {

using net::MessageType;

namespace {
/// Batched uploads keep up to this many InsertChunkBatch frames in flight
/// before ingest blocks on the oldest: round trips overlap instead of
/// stalling per batch.
constexpr size_t kInflightBatches = 4;

/// Room in front of an open batch for the request header: the uuid (8
/// bytes) and the entry count (a varint).
constexpr size_t kBatchHeaderRoom = 8 + kMaxVarintBytes;

/// Write `v` as 8 little-endian bytes, as the wire codec writes a uint64_t.
void PutU64At(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Issue a request and discard the (empty) payload.
Status CallVoid(net::Transport& t, MessageType type, BytesView body) {
  return t.Call(type, body).status();
}
}  // namespace

OwnerClient::OwnerClient(std::shared_ptr<net::Transport> transport,
                         OwnerOptions options)
    : transport_(std::move(transport)), options_(options) {}

OwnerClient::StreamState* OwnerClient::LookupStream(uint64_t uuid) {
  if (uuid == last_uuid_) return last_stream_;
  auto it = streams_.find(uuid);
  if (it == streams_.end()) return nullptr;
  last_uuid_ = uuid;
  last_stream_ = &it->second;
  return last_stream_;
}

Result<OwnerClient::StreamState*> OwnerClient::FindStream(uint64_t uuid) {
  StreamState* s = LookupStream(uuid);
  if (s == nullptr) {
    return NotFound("owner has no stream " + std::to_string(uuid));
  }
  return s;
}

Result<uint64_t> OwnerClient::CreateStream(const net::StreamConfig& config) {
  // Stream uuids are client-assigned (§4.6); draw randomly and retry on the
  // (vanishingly rare at 64 bits) collision so independent producers sharing
  // a server never step on each other.
  uint64_t uuid = 0;
  Status create_status;
  for (int attempt = 0; attempt < 4; ++attempt) {
    uuid = crypto::RandomU64();
    if (uuid == 0) continue;  // 0 is reserved as "unset" in requests
    net::CreateStreamRequest req{uuid, config};
    create_status =
        CallVoid(*transport_, MessageType::kCreateStream, req.Encode());
    if (create_status.code() != StatusCode::kAlreadyExists) break;
  }
  TC_RETURN_IF_ERROR(create_status);

  StreamState s;
  s.config = config;
  s.keys = std::make_unique<StreamKeys>(crypto::RandomKey128(), options_.keys);
  s.builder = std::make_unique<chunk::ChunkBuilder>(
      0, config.clock().RangeOfChunk(0),
      static_cast<chunk::Compression>(config.compression));
  if (config.integrity) {
    if (options_.signing.secret_key.empty()) {
      options_.signing = crypto::GenerateSigningKeyPair();
    }
    s.attestor = std::make_unique<integrity::StreamAttestor>(
        uuid, options_.signing);
  }
  streams_.emplace(uuid, std::move(s));
  return uuid;
}

Status OwnerClient::AttachStream(uint64_t uuid,
                                 const crypto::Key128& master_seed) {
  if (streams_.contains(uuid)) {
    return AlreadyExists("stream already attached");
  }
  TC_ASSIGN_OR_RETURN(auto info, FetchStreamInfo(*transport_, uuid));

  StreamState s;
  s.config = info.config;
  s.next_chunk = info.num_chunks;
  s.keys = std::make_unique<StreamKeys>(master_seed, options_.keys);
  s.builder = std::make_unique<chunk::ChunkBuilder>(
      info.num_chunks, info.config.clock().RangeOfChunk(info.num_chunks),
      static_cast<chunk::Compression>(info.config.compression));
  if (info.config.integrity) {
    if (options_.signing.secret_key.empty()) {
      options_.signing = crypto::GenerateSigningKeyPair();
    }
    s.attestor = std::make_unique<integrity::StreamAttestor>(
        uuid, options_.signing);
    // Rebuild the witness history from the server's stored ciphertexts
    // (proof-less bulk read; the witnesses hash exactly what we uploaded).
    // If a previous attestation of ours exists, cross-check the rebuilt
    // prefix against it — a tampering server then fails loudly here
    // instead of tricking us into signing a bogus head. Chunks past the
    // old attestation are taken on the honest-but-curious assumption
    // (§3.3) — they are our own uploads served back to us.
    if (info.num_chunks > 0) {
      net::GetChunkWitnessedRequest req{uuid, 0, info.num_chunks, 0};
      TC_ASSIGN_OR_RETURN(
          Bytes resp_blob,
          transport_->Call(MessageType::kGetChunkWitnessed, req.Encode()));
      TC_ASSIGN_OR_RETURN(auto resp,
                          net::GetChunkWitnessedResponse::Decode(resp_blob));
      if (resp.entries.size() != info.num_chunks) {
        return DataLoss("server returned wrong witness history length");
      }
      for (const auto& entry : resp.entries) {
        TC_RETURN_IF_ERROR(s.attestor->Add(entry.chunk_index,
                                           entry.digest_blob, entry.payload));
      }
      net::GetAttestationRequest att_req{uuid};
      auto att_blob =
          transport_->Call(MessageType::kGetAttestation, att_req.Encode());
      if (att_blob.ok()) {
        TC_ASSIGN_OR_RETURN(auto previous,
                            integrity::Attestation::Decode(*att_blob));
        if (previous.Verify(options_.signing.public_key).ok()) {
          TC_ASSIGN_OR_RETURN(auto current, s.attestor->Attest());
          // Compare the rebuilt tree's root over the previously attested
          // prefix with what we signed back then.
          if (previous.size > current.size) {
            return DataLoss("server shrank the attested stream");
          }
          TC_ASSIGN_OR_RETURN(
              integrity::Attestation prefix,
              s.attestor->AttestPrefix(previous.size));
          if (prefix.root != previous.root) {
            return PermissionDenied(
                "rebuilt witness history contradicts our previous "
                "attestation — server tampering detected");
          }
        }
      }
    }
  }
  streams_.emplace(uuid, std::move(s));
  return Status::Ok();
}

Status OwnerClient::DeleteStream(uint64_t uuid) {
  net::DeleteStreamRequest req{uuid};
  TC_RETURN_IF_ERROR(
      CallVoid(*transport_, MessageType::kDeleteStream, req.Encode()));
  streams_.erase(uuid);
  last_uuid_ = 0;
  last_stream_ = nullptr;
  return Status::Ok();
}

Status OwnerClient::SealAndUpload(uint64_t uuid, StreamState& s) {
  if (Status closed = CloseChunk(s); !closed.ok()) {
    // The chunks closed before a refused one are not stranded in the open
    // batch: they are sealed and sent (a send error resurfaces on a later
    // call), and the refusal is what this call reports.
    (void)FlushPending(uuid, s);
    return closed;
  }
  // The chunk stays queued until the server acknowledges it (a failed send
  // puts it back for a resynced retry), so the builder moves on before the
  // upload can report an error.
  s.next_chunk = s.builder->index() + 1;
  s.builder->Reset(s.next_chunk, s.config.clock().RangeOfChunk(s.next_chunk));
  if (++s.open_chunks >= options_.upload_batch_chunks) {
    TC_RETURN_IF_ERROR(CloseBatch(uuid, s));
  } else if (s.group.size() == crypto::kCryptoLanes) {
    TC_RETURN_IF_ERROR(SealGroup(s));
  }
  if (s.queued.empty()) return Status::Ok();
  // A one-chunk upload is waited for: the server holds every sealed chunk
  // once the call returns. Full batches go out pipelined.
  return PumpPending(uuid, s, /*drain=*/options_.upload_batch_chunks <= 1);
}

Status OwnerClient::CloseChunk(StreamState& s) {
  auto& builder = *s.builder;
  const uint64_t chunk_index = builder.index();
  const net::CipherKind cipher = s.config.cipher;
  if (cipher != net::CipherKind::kHeac && cipher != net::CipherKind::kPlain) {
    return Unimplemented(
        "owner ingest supports HEAC and plaintext streams; strawman "
        "ciphers are exercised by the benchmarks directly");
  }
  // Leaves i and i+1 key the chunk: past the last leaf there are no keys.
  if (chunk_index + 1 >= s.keys->tree().num_leaves()) {
    return OutOfRange("keystream exhausted");
  }
  // The group's seal witnesses its chunks in order; one out of order is
  // refused here, as StreamAttestor::Add would refuse it then.
  if (s.attestor && chunk_index != s.attestor->size() + s.group.size()) {
    return FailedPrecondition("witnesses must arrive in order");
  }
  // Payload points, compressed into the builder's buffer. Empty chunks (gap
  // filler) upload digests only.
  BytesView compressed;
  if (builder.num_points() > 0) {
    TC_ASSIGN_OR_RETURN(compressed, builder.CompressedPoints());
  }

  // The entry, written once into the open batch as the codec encodes an
  // InsertChunkBatchRequest::Entry: the chunk index, then the digest blob
  // and the sealed payload, each behind its varint length. The blob holds
  // the plaintext digest fields and the payload the compressed points
  // between room for the nonce and the tag, until the group seals them.
  Bytes& out = s.open;
  if (out.empty()) {
    out = std::move(s.spare);
    out.assign(kBatchHeaderRoom, 0);
  }
  const size_t entry_at = out.size();
  const size_t num_fields = s.config.schema.num_fields();
  const size_t blob_size = num_fields * sizeof(uint64_t);
  out.resize(entry_at + 8);
  PutU64At(out.data() + entry_at, chunk_index);
  PutVarint(out, blob_size);
  const size_t digest_at = out.size();
  s.fields.resize(num_fields);
  s.config.schema.ComputeInto(builder.points(), s.fields);
  out.resize(digest_at + blob_size);
  std::memcpy(out.data() + digest_at, s.fields.data(), blob_size);
  PutVarint(out, compressed.empty() ? 0
                                    : crypto::kGcmNonceSize +
                                          compressed.size() +
                                          crypto::kGcmTagSize);
  const size_t payload_at = out.size();
  if (!compressed.empty()) {
    out.resize(payload_at + crypto::kGcmNonceSize + compressed.size() +
               crypto::kGcmTagSize);
    std::memcpy(out.data() + payload_at + crypto::kGcmNonceSize,
                compressed.data(), compressed.size());
  }
  s.group.push_back({chunk_index, digest_at, payload_at, compressed.size()});
  return Status::Ok();
}

Status OwnerClient::SealGroup(StreamState& s) {
  const size_t n = s.group.size();
  if (n == 0) return Status::Ok();
  const uint64_t first = s.group.front().chunk;
  // Leaves first .. first + n key the group's digests (§4.2.2) and payloads
  // (§4.3). Sequential chunks seek the key path one leaf on, about one PRG
  // call each; deriving them from the GGM root costs the tree height.
  std::array<crypto::Key128, crypto::kCryptoLanes + 1> leaves;
  for (size_t j = 0; j <= n; ++j) leaves[j] = s.keys->Leaf(first + j);
  uint8_t* body = s.open.data();
  const size_t num_fields = s.config.schema.num_fields();
  const size_t blob_size = num_fields * sizeof(uint64_t);

  if (s.config.cipher == net::CipherKind::kHeac) {
    // Leaf `first`'s field keys were derived as the last leaf's of the
    // group before; derive them only for a stream's first group.
    if (s.field_keys.empty() || s.carried_chunk != first) {
      if (s.field_keys.empty()) {
        s.field_keys.assign(crypto::kCryptoLanes + 1,
                            crypto::FieldKeys(num_fields));
      }
      s.field_keys[0].Derive(leaves[0]);
    }
    crypto::FieldKeys::DeriveLanes(
        std::span<const crypto::Key128>(leaves).subspan(1, n),
        std::span(s.field_keys).subspan(1, n));
    const crypto::HeacCodec codec(num_fields);
    for (size_t j = 0; j < n; ++j) {
      uint8_t* blob = body + s.group[j].digest_at;
      std::memcpy(s.fields.data(), blob, blob_size);
      codec.EncryptTo(s.fields, s.field_keys[j], s.field_keys[j + 1], blob);
    }
    std::swap(s.field_keys[0], s.field_keys[n]);
    s.carried_chunk = first + n;
  }

  // Payloads: AES-GCM under each chunk's key, sealed where they lie.
  std::array<crypto::Key128, crypto::kCryptoLanes> payload_keys;
  crypto::ChunkPayloadKeys(std::span<const crypto::Key128>(leaves).first(n + 1),
                           std::span(payload_keys).first(n));
  std::array<std::array<uint8_t, chunk::kChunkAadSize>, crypto::kCryptoLanes>
      aads;
  std::array<crypto::GcmSealLane, crypto::kCryptoLanes> lanes;
  size_t sealing = 0;
  for (size_t j = 0; j < n; ++j) {
    const StreamState::PendingSeal& c = s.group[j];
    if (c.payload_size == 0) continue;
    aads[sealing] = chunk::ChunkAad(c.chunk);
    uint8_t* sealed = body + c.payload_at;
    lanes[sealing] = {&payload_keys[j],
                      BytesView(sealed + crypto::kGcmNonceSize, c.payload_size),
                      aads[sealing], sealed};
    ++sealing;
  }
  crypto::GcmSealLanes(std::span(lanes).first(sealing));
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(leaves.data()),
                              sizeof(leaves)));
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(payload_keys.data()),
                              sizeof(payload_keys)));

  // Witness at seal time: the server appends in upload order, so the trees
  // agree once the chunks land. CloseChunk checked the order already.
  Status witnessed;
  if (s.attestor) {
    const BytesView view(s.open);
    for (const StreamState::PendingSeal& c : s.group) {
      const size_t payload_bytes =
          c.payload_size == 0 ? 0
                              : crypto::kGcmNonceSize + c.payload_size +
                                    crypto::kGcmTagSize;
      witnessed =
          s.attestor->Add(c.chunk, view.subspan(c.digest_at, blob_size),
                          view.subspan(c.payload_at, payload_bytes));
      if (!witnessed.ok()) break;
    }
  }
  s.group.clear();
  return witnessed;
}

Status OwnerClient::CloseBatch(uint64_t uuid, StreamState& s) {
  TC_RETURN_IF_ERROR(SealGroup(s));
  // The header, right-aligned against the first entry.
  uint8_t count[kMaxVarintBytes];
  const size_t count_size = PutVarint(count, s.open_chunks);
  const size_t start = kBatchHeaderRoom - 8 - count_size;
  PutU64At(s.open.data() + start, uuid);
  std::memcpy(s.open.data() + start + 8, count, count_size);
  s.queued.push_back({std::move(s.open), start});
  s.open_chunks = 0;
  return Status::Ok();
}

Status OwnerClient::FlushPending(uint64_t uuid, StreamState& s) {
  return PumpPending(uuid, s, /*drain=*/true);
}

Status OwnerClient::ReapInflight(StreamState& s, Reap mode) {
  bool waited = false;
  while (!s.inflight.empty()) {
    Result<Bytes> result{Bytes{}};
    bool wait = mode == Reap::kWaitAll || (mode == Reap::kWaitOne && !waited);
    if (wait) {
      result = s.inflight.front().call.Wait();
      waited = true;
    } else {
      auto probe = s.inflight.front().call.TryGet();
      if (!probe) return Status::Ok();  // oldest still in flight
      result = std::move(*probe);
    }
    if (result.ok()) {
      s.spare = std::move(s.inflight.front().body.bytes);
      s.inflight.pop_front();
      continue;
    }
    // Keep every unacknowledged body so a later Flush() can retry once
    // the transport recovers — dropping them would gap the append-only
    // stream (and, on integrity streams, orphan their already-witnessed
    // hashes). Later in-flight batches cannot have been applied over the
    // gap (same-connection mutations apply in send order and the index is
    // append-only), so re-queue them all, oldest first.
    Status status = result.status();
    for (auto it = s.inflight.rbegin(); it != s.inflight.rend(); ++it) {
      s.queued.push_front(std::move(it->body));
    }
    s.inflight.clear();
    s.pending_retry = true;
    return status;
  }
  return Status::Ok();
}

Status OwnerClient::DropApplied(std::deque<BatchBody>& queued,
                                uint64_t applied) {
  std::deque<BatchBody> kept;
  for (auto& body : queued) {
    TC_ASSIGN_OR_RETURN(auto req,
                        net::InsertChunkBatchRequest::Decode(body.request()));
    auto first_kept = std::ranges::find_if(
        req.entries, [&](const auto& e) { return e.chunk_index >= applied; });
    if (first_kept == req.entries.end()) continue;
    if (first_kept != req.entries.begin()) {
      req.entries.erase(req.entries.begin(), first_kept);
      body = {req.Encode(), 0};
    }
    kept.push_back(std::move(body));
  }
  queued = std::move(kept);
  return Status::Ok();
}

Status OwnerClient::PumpPending(uint64_t uuid, StreamState& s, bool drain) {
  TC_RETURN_IF_ERROR(ReapInflight(s, drain ? Reap::kWaitAll : Reap::kPoll));
  if (drain && s.open_chunks > 0) TC_RETURN_IF_ERROR(CloseBatch(uuid, s));
  if (s.queued.empty()) return Status::Ok();
  if (s.pending_retry) {
    // The failed attempt may have been applied partially (mid-batch store
    // error) or fully (response lost): the server's append-only index
    // rejects re-sent indices, so drop whatever it already holds.
    TC_ASSIGN_OR_RETURN(auto info, FetchStreamInfo(*transport_, uuid));
    TC_RETURN_IF_ERROR(DropApplied(s.queued, info.num_chunks));
    s.pending_retry = false;
    if (s.queued.empty()) return Status::Ok();
  }

  while (!s.queued.empty()) {
    if (s.inflight.size() >= kInflightBatches) {
      // Pipeline full: block on the oldest batch, then re-check — an error
      // re-queues everything and propagates here.
      TC_RETURN_IF_ERROR(ReapInflight(s, Reap::kWaitOne));
      continue;
    }
    BatchBody body = std::move(s.queued.front());
    s.queued.pop_front();
    net::PendingCall call =
        transport_->AsyncCall(MessageType::kInsertChunkBatch, body.request());
    s.inflight.push_back({std::move(call), std::move(body)});
  }
  if (drain) return ReapInflight(s, Reap::kWaitAll);
  return Status::Ok();
}

Status OwnerClient::InsertRecord(uint64_t uuid, const index::DataPoint& point) {
  StreamState* s = LookupStream(uuid);
  if (s == nullptr) {
    return NotFound("owner has no stream " + std::to_string(uuid));
  }
  chunk::ChunkBuilder& builder = *s->builder;
  // A point inside the open window goes straight into the builder.
  if (builder.window().Contains(point.timestamp_ms)) return builder.Add(point);
  TC_ASSIGN_OR_RETURN(uint64_t target_chunk,
                      s->config.clock().IndexOf(point.timestamp_ms));
  if (target_chunk < builder.index()) {
    return FailedPrecondition("point is older than the open chunk window");
  }
  // Seal every window up to the point's window (gaps become empty chunks).
  while (target_chunk > builder.index()) {
    TC_RETURN_IF_ERROR(SealAndUpload(uuid, *s));
  }
  return builder.Add(point);
}

Status OwnerClient::Flush(uint64_t uuid) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  TC_RETURN_IF_ERROR(SealAndUpload(uuid, *s));
  return FlushPending(uuid, *s);
}

StreamReader OwnerClient::ReaderFor(uint64_t uuid, StreamState& s) {
  return {*transport_, uuid, s.config,
          [&s](uint64_t chunk) -> Result<crypto::Key128> {
            TC_ASSIGN_OR_RETURN(uint64_t leaf, s.LeafIndexOf(chunk));
            return s.keys->Leaf(leaf);
          }};
}

Result<std::vector<index::DataPoint>> OwnerClient::GetRange(uint64_t uuid,
                                                            TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  return ReaderFor(uuid, *s).Range(range);
}

Result<StatResult> OwnerClient::GetStatRange(uint64_t uuid, TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  return ReaderFor(uuid, *s).StatRange(range);
}

Result<std::vector<StatResult>> OwnerClient::GetStatSeries(
    uint64_t uuid, TimeRange range, uint64_t granularity_chunks) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  return ReaderFor(uuid, *s).StatSeries(range, granularity_chunks);
}

Result<uint64_t> OwnerClient::RollupStream(uint64_t uuid,
                                           uint64_t granularity_chunks,
                                           TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  uint64_t target_uuid = crypto::RandomU64();
  net::RollupStreamRequest req{uuid, target_uuid, granularity_chunks, range};
  TC_ASSIGN_OR_RETURN(
      Bytes resp,
      transport_->Call(MessageType::kRollupStream, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto aligned, net::RollupStreamResponse::Decode(resp));

  // The derived stream reuses the source key material: rollup chunk j
  // aggregates source chunks [first + j*r, first + (j+1)*r), so its outer
  // keys are source leaves at first + j*r — the same keystream with indices
  // scaled by r. The HEAC telescoping makes every window boundary
  // decryptable without re-keying.
  StreamState derived;
  derived.config =
      net::RollupConfig(s->config, granularity_chunks, aligned.first_chunk);
  derived.keys =
      std::make_unique<StreamKeys>(s->keys->master_seed(), options_.keys);
  derived.leaf_scale = s->leaf_scale * granularity_chunks;
  TC_ASSIGN_OR_RETURN(derived.leaf_offset,
                      s->LeafIndexOf(aligned.first_chunk));
  derived.next_chunk =
      (aligned.last_chunk - aligned.first_chunk) / granularity_chunks;
  streams_.emplace(target_uuid, std::move(derived));
  return target_uuid;
}

Status OwnerClient::DeleteRange(uint64_t uuid, TimeRange range) {
  net::DeleteRangeRequest req{uuid, range};
  return CallVoid(*transport_, MessageType::kDeleteRange, req.Encode());
}

Status OwnerClient::GrantChunkRange(StreamState& s, uint64_t uuid,
                                    const std::string& principal_id,
                                    BytesView principal_public,
                                    uint64_t first_chunk, uint64_t last_chunk,
                                    uint64_t resolution_chunks) {
  AccessGrant grant;
  grant.stream_uuid = uuid;
  grant.first_chunk = first_chunk;
  grant.last_chunk = last_chunk;

  if (resolution_chunks <= 1) {
    grant.kind = GrantKind::kFullResolution;
    grant.tree_height = s.keys->tree_height();
    // Cover leaves [first, last] inclusive: chunk range [first, last) needs
    // outer keys up to leaf `last`.
    TC_ASSIGN_OR_RETURN(grant.tokens,
                        s.keys->tree().CoverRange(first_chunk, last_chunk));
  } else {
    if (first_chunk % resolution_chunks != 0 ||
        last_chunk % resolution_chunks != 0) {
      return InvalidArgument(
          "resolution grant range must align to the resolution (§4.4.1: "
          "resolutions are aligned at timestamps)");
    }
    grant.kind = GrantKind::kResolution;
    grant.resolution_chunks = resolution_chunks;
    grant.window_lower = first_chunk / resolution_chunks;
    grant.window_upper = last_chunk / resolution_chunks;
    auto& kr = s.keys->Resolution(resolution_chunks);
    TC_ASSIGN_OR_RETURN(auto view,
                        kr.Share(grant.window_lower, grant.window_upper));
    // Extract the two states from the view by re-deriving: Share returns
    // exactly the states we need to embed.
    grant.primary_state = view.primary_state();
    grant.secondary_state = view.secondary_state();

    // Publish the envelopes the consumer will need.
    net::PutEnvelopesRequest env_req;
    env_req.uuid = uuid;
    env_req.resolution_chunks = resolution_chunks;
    env_req.first_index = grant.window_lower;
    TC_ASSIGN_OR_RETURN(
        env_req.envelopes,
        s.keys->MakeEnvelopes(resolution_chunks, grant.window_lower,
                              grant.window_upper));
    TC_RETURN_IF_ERROR(
        CallVoid(*transport_, MessageType::kPutEnvelopes, env_req.Encode()));
  }

  TC_ASSIGN_OR_RETURN(Bytes sealed, grant.SealTo(principal_public));
  // Random grant ids: a restarted owner must not overwrite earlier grants
  // in the key store (a sequential counter would restart at 1).
  uint64_t grant_id = crypto::RandomU64();
  net::PutGrantRequest req{uuid, principal_id, grant_id, std::move(sealed)};
  TC_RETURN_IF_ERROR(
      CallVoid(*transport_, MessageType::kPutGrant, req.Encode()));
  issued_grants_.push_back(IssuedGrant{uuid, principal_id, grant_id,
                                       first_chunk, last_chunk});
  return Status::Ok();
}

Status OwnerClient::GrantAccess(uint64_t uuid, const std::string& principal_id,
                                BytesView principal_public, TimeRange range,
                                uint64_t resolution_chunks) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  TC_ASSIGN_OR_RETURN(auto idx_range, s->config.clock().IndexRange(range));
  return GrantChunkRange(*s, uuid, principal_id, principal_public,
                         idx_range.first, idx_range.second,
                         resolution_chunks);
}

Status OwnerClient::GrantOpenAccess(uint64_t uuid,
                                    const std::string& principal_id,
                                    BytesView principal_public,
                                    Timestamp start,
                                    uint64_t resolution_chunks) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  TC_ASSIGN_OR_RETURN(uint64_t start_chunk, s->config.clock().IndexOf(start));
  start_chunk -= start_chunk % std::max<uint64_t>(resolution_chunks, 1);
  open_grants_.push_back(OpenGrant{
      uuid, principal_id,
      Bytes(principal_public.begin(), principal_public.end()),
      std::max<uint64_t>(resolution_chunks, 1), start_chunk, true});
  return ExtendOpenGrants().status();
}

Result<int> OwnerClient::ExtendOpenGrants() {
  int issued = 0;
  for (auto& og : open_grants_) {
    if (!og.active) continue;
    TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(og.uuid));
    uint64_t epoch = options_.open_grant_epoch_chunks;
    epoch -= epoch % og.resolution_chunks;
    if (epoch == 0) epoch = og.resolution_chunks;
    while (og.next_chunk + epoch <= s->next_chunk) {
      TC_RETURN_IF_ERROR(GrantChunkRange(*s, og.uuid, og.principal_id,
                                         og.principal_public, og.next_chunk,
                                         og.next_chunk + epoch,
                                         og.resolution_chunks));
      og.next_chunk += epoch;
      ++issued;
    }
  }
  return issued;
}

Status OwnerClient::RevokeAccess(uint64_t uuid,
                                 const std::string& principal_id,
                                 Timestamp end) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  TC_ASSIGN_OR_RETURN(uint64_t end_chunk, s->config.clock().IndexOf(end));
  // Forward secrecy: stop extending subscriptions past `end`.
  for (auto& og : open_grants_) {
    if (og.uuid == uuid && og.principal_id == principal_id) {
      og.active = false;
    }
  }
  // Remove stored grants whose data lies at/after the revocation point;
  // grants wholly over old data stay — the revoked user keeps what it
  // could already access (§3.3: "The revoked user can, however, still
  // access old data"; revoking that is impossible anyway, it may be
  // cached). Straddling grants are also removed: the sealed blob cannot be
  // split, and the consumer keeps any keys it already downloaded.
  for (auto it = issued_grants_.begin(); it != issued_grants_.end();) {
    bool match = it->uuid == uuid && it->principal_id == principal_id &&
                 it->last_chunk > end_chunk;
    if (match) {
      net::RevokeGrantRequest req{uuid, principal_id, it->grant_id};
      TC_RETURN_IF_ERROR(
          CallVoid(*transport_, MessageType::kRevokeGrant, req.Encode()));
      it = issued_grants_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

Result<StreamKeys*> OwnerClient::KeysFor(uint64_t uuid) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  return s->keys.get();
}

Result<uint64_t> OwnerClient::NumChunks(uint64_t uuid) const {
  auto it = streams_.find(uuid);
  if (it == streams_.end()) return NotFound("unknown stream");
  return it->second.next_chunk;
}

Result<integrity::Attestation> OwnerClient::Attest(uint64_t uuid) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  if (!s->attestor) {
    return FailedPrecondition("stream was not created with integrity");
  }
  // The attestor witnesses at seal time; push any batched chunks still
  // buffered client-side so the signed head never covers chunks the
  // server's witness tree cannot prove.
  TC_RETURN_IF_ERROR(FlushPending(uuid, *s));
  TC_ASSIGN_OR_RETURN(integrity::Attestation att, s->attestor->Attest());
  net::PutAttestationRequest req{uuid, att.Encode()};
  TC_RETURN_IF_ERROR(
      CallVoid(*transport_, MessageType::kPutAttestation, req.Encode()));
  return att;
}

Result<StatResult> OwnerClient::GetVerifiedStatRange(uint64_t uuid,
                                                     TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamState * s, FindStream(uuid));
  if (!s->attestor) {
    return FailedPrecondition("stream was not created with integrity");
  }
  return ReaderFor(uuid, *s).VerifiedStatRange(range,
                                               options_.signing.public_key);
}

}  // namespace tc::client
