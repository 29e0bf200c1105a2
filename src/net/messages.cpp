#include "net/messages.hpp"

namespace tc::net {

std::string_view CipherKindName(CipherKind kind) {
  switch (kind) {
    case CipherKind::kPlain: return "Plaintext";
    case CipherKind::kHeac: return "TimeCrypt";
    case CipherKind::kPaillier: return "Paillier";
    case CipherKind::kEcElGamal: return "EC-ElGamal";
  }
  return "?";
}

namespace {
/// Shared helpers for the repetitive encode/decode bodies.
void EncodeRange(BinaryWriter& w, const TimeRange& r) {
  w.PutI64(r.start);
  w.PutI64(r.end);
}

Result<TimeRange> DecodeRange(BinaryReader& r) {
  TimeRange out;
  TC_ASSIGN_OR_RETURN(out.start, r.GetI64());
  TC_ASSIGN_OR_RETURN(out.end, r.GetI64());
  return out;
}

/// Validate a hostile element count before reserving: every element consumes
/// at least one input byte, so any claimed count beyond the remaining bytes
/// is an allocation bomb, not a well-formed message.
Result<size_t> CheckedCount(uint64_t claimed, const BinaryReader& r) {
  if (claimed > r.remaining()) return DataLoss("element count exceeds input");
  return static_cast<size_t>(claimed);
}
}  // namespace

void StreamConfig::Encode(BinaryWriter& w) const {
  w.PutString(name);
  w.PutI64(t0);
  w.PutI64(delta_ms);
  Bytes schema_bytes;
  schema.Serialize(schema_bytes);
  w.PutBytes(schema_bytes);
  w.PutU8(static_cast<uint8_t>(cipher));
  w.PutBytes(cipher_public);
  w.PutU32(fanout);
  w.PutU8(compression);
  w.PutU8(integrity ? 1 : 0);
}

Result<StreamConfig> StreamConfig::Decode(BinaryReader& r) {
  StreamConfig c;
  TC_ASSIGN_OR_RETURN(c.name, r.GetString());
  TC_ASSIGN_OR_RETURN(c.t0, r.GetI64());
  TC_ASSIGN_OR_RETURN(c.delta_ms, r.GetI64());
  TC_ASSIGN_OR_RETURN(Bytes schema_bytes, r.GetBytes());
  size_t pos = 0;
  TC_ASSIGN_OR_RETURN(c.schema, index::DigestSchema::Deserialize(schema_bytes, pos));
  TC_ASSIGN_OR_RETURN(uint8_t cipher, r.GetU8());
  c.cipher = static_cast<CipherKind>(cipher);
  TC_ASSIGN_OR_RETURN(c.cipher_public, r.GetBytes());
  TC_ASSIGN_OR_RETURN(c.fanout, r.GetU32());
  TC_ASSIGN_OR_RETURN(c.compression, r.GetU8());
  TC_ASSIGN_OR_RETURN(uint8_t integrity, r.GetU8());
  c.integrity = integrity != 0;
  return c;
}

Bytes CreateStreamRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  config.Encode(w);
  return std::move(w).Take();
}

Result<CreateStreamRequest> CreateStreamRequest::Decode(BytesView in) {
  BinaryReader r(in);
  CreateStreamRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.config, StreamConfig::Decode(r));
  return req;
}

Bytes DeleteStreamRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  return std::move(w).Take();
}

Result<DeleteStreamRequest> DeleteStreamRequest::Decode(BytesView in) {
  BinaryReader r(in);
  DeleteStreamRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  return req;
}

Bytes InsertChunkRequest::Encode() const {
  BinaryWriter w(digest_blob.size() + payload.size() + 32);
  w.PutU64(uuid);
  w.PutU64(chunk_index);
  w.PutBytes(digest_blob);
  w.PutBytes(payload);
  return std::move(w).Take();
}

Result<InsertChunkRequest> InsertChunkRequest::Decode(BytesView in) {
  BinaryReader r(in);
  InsertChunkRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.chunk_index, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.digest_blob, r.GetBytes());
  TC_ASSIGN_OR_RETURN(req.payload, r.GetBytes());
  return req;
}

Bytes InsertChunkBatchRequest::Encode() const {
  size_t payload_bytes = 0;
  for (const auto& e : entries) {
    payload_bytes += e.digest_blob.size() + e.payload.size() + 32;
  }
  BinaryWriter w(payload_bytes + 16);
  w.PutU64(uuid);
  w.PutVar(entries.size());
  for (const auto& e : entries) {
    w.PutU64(e.chunk_index);
    w.PutBytes(e.digest_blob);
    w.PutBytes(e.payload);
  }
  return std::move(w).Take();
}

Result<InsertChunkBatchRequest> InsertChunkBatchRequest::Decode(BytesView in) {
  BinaryReader r(in);
  InsertChunkBatchRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  req.entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Entry e;
    TC_ASSIGN_OR_RETURN(e.chunk_index, r.GetU64());
    TC_ASSIGN_OR_RETURN(e.digest_blob, r.GetBytes());
    TC_ASSIGN_OR_RETURN(e.payload, r.GetBytes());
    // Append-only invariant: indices strictly increase within a batch.
    // Overlapping or reordered entries are a malformed frame, not a
    // server-side state error.
    if (i > 0 && e.chunk_index <= req.entries.back().chunk_index) {
      return InvalidArgument("batch chunk indices must strictly increase");
    }
    req.entries.push_back(std::move(e));
  }
  return req;
}

Bytes ClusterInfoResponse::Encode() const {
  BinaryWriter w;
  w.PutVar(shards.size());
  for (const auto& s : shards) {
    w.PutU32(s.shard);
    w.PutU64(s.num_streams);
    w.PutU64(s.index_bytes);
    w.PutU32(s.replicas);
    w.PutU8(s.ack_mode);
    w.PutU64(s.max_lag_ops);
    w.PutU32(s.remote_followers);
    w.PutU8(s.auto_failover);
    w.PutU32(s.promotions);
    w.PutU64(s.snapshot_chunks);
    w.PutU64(s.store_dead_bytes);
    w.PutU32(s.store_compactions);
  }
  return std::move(w).Take();
}

Result<ClusterInfoResponse> ClusterInfoResponse::Decode(BytesView in) {
  BinaryReader r(in);
  ClusterInfoResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  resp.shards.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ClusterInfoResponse::ShardInfo s;
    TC_ASSIGN_OR_RETURN(s.shard, r.GetU32());
    TC_ASSIGN_OR_RETURN(s.num_streams, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.index_bytes, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.replicas, r.GetU32());
    TC_ASSIGN_OR_RETURN(s.ack_mode, r.GetU8());
    if (s.ack_mode > kAckQuorum) {
      return InvalidArgument("unknown replica ack mode");
    }
    TC_ASSIGN_OR_RETURN(s.max_lag_ops, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.remote_followers, r.GetU32());
    TC_ASSIGN_OR_RETURN(s.auto_failover, r.GetU8());
    if (s.auto_failover > 1) {
      return InvalidArgument("auto_failover is a boolean flag");
    }
    TC_ASSIGN_OR_RETURN(s.promotions, r.GetU32());
    TC_ASSIGN_OR_RETURN(s.snapshot_chunks, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.store_dead_bytes, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.store_compactions, r.GetU32());
    resp.shards.push_back(s);
  }
  return resp;
}

Bytes MetricsInfoResponse::Encode() const {
  size_t payload_bytes = 16;
  for (const auto& e : entries) {
    payload_bytes += e.name.size() + e.labels.size() + 80;
  }
  BinaryWriter w(payload_bytes);
  w.PutVar(entries.size());
  for (const auto& e : entries) {
    w.PutU8(e.kind);
    w.PutString(e.name);
    w.PutString(e.labels);
    w.PutU64(static_cast<uint64_t>(e.value));
    w.PutVar(e.count);
    w.PutVar(e.sum);
    w.PutVar(e.max);
    w.PutVar(e.p50);
    w.PutVar(e.p95);
    w.PutVar(e.p99);
  }
  return std::move(w).Take();
}

Result<MetricsInfoResponse> MetricsInfoResponse::Decode(BytesView in) {
  BinaryReader r(in);
  MetricsInfoResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  resp.entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Entry e;
    TC_ASSIGN_OR_RETURN(e.kind, r.GetU8());
    if (e.kind > kHistogram) return InvalidArgument("unknown metric kind");
    TC_ASSIGN_OR_RETURN(e.name, r.GetString());
    TC_ASSIGN_OR_RETURN(e.labels, r.GetString());
    TC_ASSIGN_OR_RETURN(uint64_t value, r.GetU64());
    e.value = static_cast<int64_t>(value);
    TC_ASSIGN_OR_RETURN(e.count, r.GetVar());
    TC_ASSIGN_OR_RETURN(e.sum, r.GetVar());
    TC_ASSIGN_OR_RETURN(e.max, r.GetVar());
    TC_ASSIGN_OR_RETURN(e.p50, r.GetVar());
    TC_ASSIGN_OR_RETURN(e.p95, r.GetVar());
    TC_ASSIGN_OR_RETURN(e.p99, r.GetVar());
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

Bytes TraceInfoRequest::Encode() const {
  BinaryWriter w(16);
  w.PutU64(trace_id);
  w.PutU8(slow_only);
  return std::move(w).Take();
}

Result<TraceInfoRequest> TraceInfoRequest::Decode(BytesView in) {
  BinaryReader r(in);
  TraceInfoRequest req;
  TC_ASSIGN_OR_RETURN(req.trace_id, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.slow_only, r.GetU8());
  if (req.slow_only > 1) {
    return InvalidArgument("slow_only is a boolean flag");
  }
  return req;
}

Bytes TraceInfoResponse::Encode() const {
  size_t payload_bytes = 16;
  for (const auto& s : spans) payload_bytes += s.op.size() + 64;
  BinaryWriter w(payload_bytes);
  w.PutVar(spans.size());
  for (const auto& s : spans) {
    w.PutU64(s.trace_id);
    w.PutU64(s.span_id);
    w.PutU64(s.parent_span_id);
    w.PutString(s.op);
    w.PutU8(s.msg_type);
    w.PutU32(s.shard);
    w.PutI64(s.start_us);
    w.PutVar(s.duration_us);
    w.PutU8(s.slow);
  }
  w.PutVar(dropped);
  return std::move(w).Take();
}

Result<TraceInfoResponse> TraceInfoResponse::Decode(BytesView in) {
  BinaryReader r(in);
  TraceInfoResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  resp.spans.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Span s;
    TC_ASSIGN_OR_RETURN(s.trace_id, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.span_id, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.parent_span_id, r.GetU64());
    TC_ASSIGN_OR_RETURN(s.op, r.GetString());
    TC_ASSIGN_OR_RETURN(s.msg_type, r.GetU8());
    TC_ASSIGN_OR_RETURN(s.shard, r.GetU32());
    TC_ASSIGN_OR_RETURN(s.start_us, r.GetI64());
    TC_ASSIGN_OR_RETURN(s.duration_us, r.GetVar());
    TC_ASSIGN_OR_RETURN(s.slow, r.GetU8());
    if (s.slow > 1) return InvalidArgument("slow is a boolean flag");
    resp.spans.push_back(std::move(s));
  }
  TC_ASSIGN_OR_RETURN(resp.dropped, r.GetVar());
  return resp;
}

Bytes EventsInfoRequest::Encode() const {
  BinaryWriter w(8);
  w.PutU64(min_seq);
  return std::move(w).Take();
}

Result<EventsInfoRequest> EventsInfoRequest::Decode(BytesView in) {
  BinaryReader r(in);
  EventsInfoRequest req;
  TC_ASSIGN_OR_RETURN(req.min_seq, r.GetU64());
  return req;
}

Bytes EventsInfoResponse::Encode() const {
  size_t payload_bytes = 16;
  for (const auto& e : events) {
    payload_bytes += e.kind.size() + e.detail.size() + 40;
  }
  BinaryWriter w(payload_bytes);
  w.PutVar(events.size());
  for (const auto& e : events) {
    w.PutU64(e.seq);
    w.PutI64(e.wall_ms);
    w.PutString(e.kind);
    w.PutU32(e.shard);
    w.PutString(e.detail);
  }
  w.PutVar(dropped);
  return std::move(w).Take();
}

Result<EventsInfoResponse> EventsInfoResponse::Decode(BytesView in) {
  BinaryReader r(in);
  EventsInfoResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  resp.events.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Event e;
    TC_ASSIGN_OR_RETURN(e.seq, r.GetU64());
    TC_ASSIGN_OR_RETURN(e.wall_ms, r.GetI64());
    TC_ASSIGN_OR_RETURN(e.kind, r.GetString());
    TC_ASSIGN_OR_RETURN(e.shard, r.GetU32());
    TC_ASSIGN_OR_RETURN(e.detail, r.GetString());
    resp.events.push_back(std::move(e));
  }
  TC_ASSIGN_OR_RETURN(resp.dropped, r.GetVar());
  return resp;
}

Bytes GetRangeRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  EncodeRange(w, range);
  return std::move(w).Take();
}

Result<GetRangeRequest> GetRangeRequest::Decode(BytesView in) {
  BinaryReader r(in);
  GetRangeRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  return req;
}

Bytes GetRangeResponse::Encode() const {
  BinaryWriter w;
  w.PutVar(chunks.size());
  for (const auto& c : chunks) {
    w.PutU64(c.chunk_index);
    w.PutBytes(c.payload);
  }
  return std::move(w).Take();
}

Result<GetRangeResponse> GetRangeResponse::Decode(BytesView in) {
  BinaryReader r(in);
  GetRangeResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  resp.chunks.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChunkData c;
    TC_ASSIGN_OR_RETURN(c.chunk_index, r.GetU64());
    TC_ASSIGN_OR_RETURN(c.payload, r.GetBytes());
    resp.chunks.push_back(std::move(c));
  }
  return resp;
}

Bytes StatRangeRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  EncodeRange(w, range);
  return std::move(w).Take();
}

Result<StatRangeRequest> StatRangeRequest::Decode(BytesView in) {
  BinaryReader r(in);
  StatRangeRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  return req;
}

Bytes StatRangeResponse::Encode() const {
  BinaryWriter w(aggregate_blob.size() + 24);
  w.PutU64(first_chunk);
  w.PutU64(last_chunk);
  w.PutBytes(aggregate_blob);
  return std::move(w).Take();
}

Result<StatRangeResponse> StatRangeResponse::Decode(BytesView in) {
  BinaryReader r(in);
  StatRangeResponse resp;
  TC_ASSIGN_OR_RETURN(resp.first_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(resp.last_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(resp.aggregate_blob, r.GetBytes());
  return resp;
}

Bytes StatSeriesRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  EncodeRange(w, range);
  w.PutU64(granularity_chunks);
  return std::move(w).Take();
}

Result<StatSeriesRequest> StatSeriesRequest::Decode(BytesView in) {
  BinaryReader r(in);
  StatSeriesRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  TC_ASSIGN_OR_RETURN(req.granularity_chunks, r.GetU64());
  return req;
}

Bytes StatSeriesResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(first_chunk);
  w.PutU64(last_chunk);
  w.PutU64(granularity_chunks);
  w.PutVar(aggregates.size());
  for (const auto& a : aggregates) w.PutBytes(a);
  return std::move(w).Take();
}

Result<StatSeriesResponse> StatSeriesResponse::Decode(BytesView in) {
  BinaryReader r(in);
  StatSeriesResponse resp;
  TC_ASSIGN_OR_RETURN(resp.first_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(resp.last_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(resp.granularity_chunks, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  resp.aggregates.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(Bytes blob, r.GetBytes());
    resp.aggregates.push_back(std::move(blob));
  }
  return resp;
}

Bytes MultiStatRangeRequest::Encode() const {
  BinaryWriter w;
  w.PutVar(uuids.size());
  for (uint64_t id : uuids) w.PutU64(id);
  EncodeRange(w, range);
  return std::move(w).Take();
}

Result<MultiStatRangeRequest> MultiStatRangeRequest::Decode(BytesView in) {
  BinaryReader r(in);
  MultiStatRangeRequest req;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  req.uuids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
    req.uuids.push_back(id);
  }
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  return req;
}

Bytes RollupStreamRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(source_uuid);
  w.PutU64(target_uuid);
  w.PutU64(granularity_chunks);
  EncodeRange(w, range);
  return std::move(w).Take();
}

Result<RollupStreamRequest> RollupStreamRequest::Decode(BytesView in) {
  BinaryReader r(in);
  RollupStreamRequest req;
  TC_ASSIGN_OR_RETURN(req.source_uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.target_uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.granularity_chunks, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  return req;
}

Bytes DeleteRangeRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  EncodeRange(w, range);
  return std::move(w).Take();
}

Result<DeleteRangeRequest> DeleteRangeRequest::Decode(BytesView in) {
  BinaryReader r(in);
  DeleteRangeRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.range, DecodeRange(r));
  return req;
}

Bytes StreamInfoResponse::Encode() const {
  BinaryWriter w;
  config.Encode(w);
  w.PutU64(num_chunks);
  return std::move(w).Take();
}

Result<StreamInfoResponse> StreamInfoResponse::Decode(BytesView in) {
  BinaryReader r(in);
  StreamInfoResponse resp;
  TC_ASSIGN_OR_RETURN(resp.config, StreamConfig::Decode(r));
  TC_ASSIGN_OR_RETURN(resp.num_chunks, r.GetU64());
  return resp;
}

Bytes PutGrantRequest::Encode() const {
  BinaryWriter w(sealed_grant.size() + 48);
  w.PutU64(uuid);
  w.PutString(principal_id);
  w.PutU64(grant_id);
  w.PutBytes(sealed_grant);
  return std::move(w).Take();
}

Result<PutGrantRequest> PutGrantRequest::Decode(BytesView in) {
  BinaryReader r(in);
  PutGrantRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.principal_id, r.GetString());
  TC_ASSIGN_OR_RETURN(req.grant_id, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.sealed_grant, r.GetBytes());
  return req;
}

Bytes FetchGrantsRequest::Encode() const {
  BinaryWriter w;
  w.PutString(principal_id);
  return std::move(w).Take();
}

Result<FetchGrantsRequest> FetchGrantsRequest::Decode(BytesView in) {
  BinaryReader r(in);
  FetchGrantsRequest req;
  TC_ASSIGN_OR_RETURN(req.principal_id, r.GetString());
  return req;
}

Bytes FetchGrantsResponse::Encode() const {
  BinaryWriter w;
  w.PutVar(grants.size());
  for (const auto& g : grants) {
    w.PutU64(g.uuid);
    w.PutU64(g.grant_id);
    w.PutBytes(g.sealed_grant);
  }
  return std::move(w).Take();
}

Result<FetchGrantsResponse> FetchGrantsResponse::Decode(BytesView in) {
  BinaryReader r(in);
  FetchGrantsResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  resp.grants.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry e;
    TC_ASSIGN_OR_RETURN(e.uuid, r.GetU64());
    TC_ASSIGN_OR_RETURN(e.grant_id, r.GetU64());
    TC_ASSIGN_OR_RETURN(e.sealed_grant, r.GetBytes());
    resp.grants.push_back(std::move(e));
  }
  return resp;
}

Bytes RevokeGrantRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  w.PutString(principal_id);
  w.PutU64(grant_id);
  return std::move(w).Take();
}

Result<RevokeGrantRequest> RevokeGrantRequest::Decode(BytesView in) {
  BinaryReader r(in);
  RevokeGrantRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.principal_id, r.GetString());
  TC_ASSIGN_OR_RETURN(req.grant_id, r.GetU64());
  return req;
}

Bytes PutEnvelopesRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  w.PutU64(resolution_chunks);
  w.PutU64(first_index);
  w.PutVar(envelopes.size());
  for (const auto& e : envelopes) w.PutBytes(e);
  return std::move(w).Take();
}

Result<PutEnvelopesRequest> PutEnvelopesRequest::Decode(BytesView in) {
  BinaryReader r(in);
  PutEnvelopesRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.resolution_chunks, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.first_index, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  req.envelopes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(Bytes e, r.GetBytes());
    req.envelopes.push_back(std::move(e));
  }
  return req;
}

Bytes GetEnvelopesRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  w.PutU64(resolution_chunks);
  w.PutU64(first_index);
  w.PutU64(last_index);
  return std::move(w).Take();
}

Result<GetEnvelopesRequest> GetEnvelopesRequest::Decode(BytesView in) {
  BinaryReader r(in);
  GetEnvelopesRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.resolution_chunks, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.first_index, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.last_index, r.GetU64());
  return req;
}

Bytes GetEnvelopesResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(first_index);
  w.PutVar(envelopes.size());
  for (const auto& e : envelopes) w.PutBytes(e);
  return std::move(w).Take();
}

Result<GetEnvelopesResponse> GetEnvelopesResponse::Decode(BytesView in) {
  BinaryReader r(in);
  GetEnvelopesResponse resp;
  TC_ASSIGN_OR_RETURN(resp.first_index, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  resp.envelopes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(Bytes e, r.GetBytes());
    resp.envelopes.push_back(std::move(e));
  }
  return resp;
}

Bytes PutAttestationRequest::Encode() const {
  BinaryWriter w(attestation.size() + 16);
  w.PutU64(uuid);
  w.PutBytes(attestation);
  return std::move(w).Take();
}

Result<PutAttestationRequest> PutAttestationRequest::Decode(BytesView in) {
  BinaryReader r(in);
  PutAttestationRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.attestation, r.GetBytes());
  return req;
}

Bytes GetAttestationRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  return std::move(w).Take();
}

Result<GetAttestationRequest> GetAttestationRequest::Decode(BytesView in) {
  BinaryReader r(in);
  GetAttestationRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  return req;
}

Bytes GetChunkWitnessedRequest::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  w.PutU64(first_chunk);
  w.PutU64(last_chunk);
  w.PutU64(at_size);
  return std::move(w).Take();
}

Result<GetChunkWitnessedRequest> GetChunkWitnessedRequest::Decode(
    BytesView in) {
  BinaryReader r(in);
  GetChunkWitnessedRequest req;
  TC_ASSIGN_OR_RETURN(req.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.first_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.last_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.at_size, r.GetU64());
  return req;
}

Bytes GetChunkWitnessedResponse::Encode() const {
  BinaryWriter w;
  w.PutVar(entries.size());
  for (const auto& e : entries) {
    w.PutU64(e.chunk_index);
    w.PutBytes(e.digest_blob);
    w.PutBytes(e.payload);
    w.PutBytes(e.proof);
  }
  return std::move(w).Take();
}

Result<GetChunkWitnessedResponse> GetChunkWitnessedResponse::Decode(
    BytesView in) {
  BinaryReader r(in);
  GetChunkWitnessedResponse resp;
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t n, CheckedCount(claimed, r));
  resp.entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry e;
    TC_ASSIGN_OR_RETURN(e.chunk_index, r.GetU64());
    TC_ASSIGN_OR_RETURN(e.digest_blob, r.GetBytes());
    TC_ASSIGN_OR_RETURN(e.payload, r.GetBytes());
    TC_ASSIGN_OR_RETURN(e.proof, r.GetBytes());
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

Bytes ReplicaOpsRequest::Encode() const {
  size_t bytes = 24;
  for (const auto& op : ops) bytes += op.key.size() + op.value.size() + 16;
  BinaryWriter w(bytes);
  w.PutU32(shard);
  w.PutU64(first_seq);
  w.PutVar(ops.size());
  for (const auto& op : ops) {
    w.PutU8(op.kind);
    w.PutString(op.key);
    if (op.kind == kReplicaOpAppend) w.PutU64(op.expected_size);
    w.PutBytes(op.value);
  }
  return std::move(w).Take();
}

Result<ReplicaOpsRequest> ReplicaOpsRequest::Decode(BytesView in) {
  BinaryReader r(in);
  ReplicaOpsRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.first_seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  req.ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Op op;
    TC_ASSIGN_OR_RETURN(op.kind, r.GetU8());
    if (op.kind != kReplicaOpPut && op.kind != kReplicaOpDelete &&
        op.kind != kReplicaOpAppend) {
      return InvalidArgument("unknown replica op kind");
    }
    TC_ASSIGN_OR_RETURN(op.key, r.GetString());
    if (op.kind == kReplicaOpAppend) {
      TC_ASSIGN_OR_RETURN(op.expected_size, r.GetU64());
    }
    TC_ASSIGN_OR_RETURN(op.value, r.GetBytes());
    if (op.kind == kReplicaOpDelete && !op.value.empty()) {
      return InvalidArgument("replica delete carries a value");
    }
    if (op.kind == kReplicaOpAppend && op.value.empty()) {
      return InvalidArgument("replica append carries no bytes");
    }
    req.ops.push_back(std::move(op));
  }
  return req;
}

Bytes ReplicaSnapshotBeginRequest::Encode() const {
  BinaryWriter w;
  w.PutU32(shard);
  w.PutU64(origin);
  w.PutU64(seq);
  return std::move(w).Take();
}

Result<ReplicaSnapshotBeginRequest> ReplicaSnapshotBeginRequest::Decode(
    BytesView in) {
  BinaryReader r(in);
  ReplicaSnapshotBeginRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.origin, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.seq, r.GetU64());
  return req;
}

Bytes ReplicaSnapshotChunkRequest::Encode() const {
  size_t bytes = 32;
  for (const auto& [key, value] : entries) {
    bytes += key.size() + value.size() + 16;
  }
  BinaryWriter w(bytes);
  w.PutU32(shard);
  w.PutU64(seq);
  w.PutU64(first_index);
  w.PutVar(entries.size());
  for (const auto& [key, value] : entries) {
    w.PutString(key);
    w.PutBytes(value);
  }
  return std::move(w).Take();
}

Result<ReplicaSnapshotChunkRequest> ReplicaSnapshotChunkRequest::Decode(
    BytesView in) {
  BinaryReader r(in);
  ReplicaSnapshotChunkRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.first_index, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  req.entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    TC_ASSIGN_OR_RETURN(key, r.GetString());
    TC_ASSIGN_OR_RETURN(Bytes value, r.GetBytes());
    req.entries.emplace_back(std::move(key), std::move(value));
  }
  return req;
}

Bytes ReplicaSnapshotEndRequest::Encode() const {
  BinaryWriter w;
  w.PutU32(shard);
  w.PutU64(seq);
  w.PutU64(total_entries);
  return std::move(w).Take();
}

Result<ReplicaSnapshotEndRequest> ReplicaSnapshotEndRequest::Decode(
    BytesView in) {
  BinaryReader r(in);
  ReplicaSnapshotEndRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.total_entries, r.GetU64());
  return req;
}

Bytes ReplicaSnapshotAckResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(entries);
  return std::move(w).Take();
}

Result<ReplicaSnapshotAckResponse> ReplicaSnapshotAckResponse::Decode(
    BytesView in) {
  BinaryReader r(in);
  ReplicaSnapshotAckResponse resp;
  TC_ASSIGN_OR_RETURN(resp.entries, r.GetU64());
  return resp;
}

Bytes ReplicaAckResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(applied_seq);
  return std::move(w).Take();
}

Result<ReplicaAckResponse> ReplicaAckResponse::Decode(BytesView in) {
  BinaryReader r(in);
  ReplicaAckResponse resp;
  TC_ASSIGN_OR_RETURN(resp.applied_seq, r.GetU64());
  return resp;
}

Bytes ReplicaHelloRequest::Encode() const {
  BinaryWriter w;
  w.PutU32(shard);
  w.PutU32(num_shards);
  w.PutU64(applied_seq);
  w.PutU64(store_fingerprint);
  w.PutString(host);
  w.PutU32(port);
  return std::move(w).Take();
}

Result<ReplicaHelloRequest> ReplicaHelloRequest::Decode(BytesView in) {
  BinaryReader r(in);
  ReplicaHelloRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.num_shards, r.GetU32());
  if (req.num_shards == 0 || req.shard >= req.num_shards) {
    return InvalidArgument("replica hello shard id outside its shard count");
  }
  TC_ASSIGN_OR_RETURN(req.applied_seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.store_fingerprint, r.GetU64());
  TC_ASSIGN_OR_RETURN(req.host, r.GetString());
  TC_ASSIGN_OR_RETURN(req.port, r.GetU32());
  if (req.port == 0 || req.port > 65535) {
    return InvalidArgument("replica hello carries an invalid port");
  }
  return req;
}

Bytes ReplicaHelloResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(head_seq);
  w.PutU32(heartbeat_ms);
  return std::move(w).Take();
}

Result<ReplicaHelloResponse> ReplicaHelloResponse::Decode(BytesView in) {
  BinaryReader r(in);
  ReplicaHelloResponse resp;
  TC_ASSIGN_OR_RETURN(resp.head_seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(resp.heartbeat_ms, r.GetU32());
  return resp;
}

Bytes ReplicaHeartbeatRequest::Encode() const {
  BinaryWriter w;
  w.PutU32(shard);
  w.PutU64(head_seq);
  w.PutVar(peers.size());
  for (const auto& peer : peers) {
    w.PutString(peer.host);
    w.PutU32(peer.port);
    w.PutU64(peer.applied_seq);
  }
  return std::move(w).Take();
}

Result<ReplicaHeartbeatRequest> ReplicaHeartbeatRequest::Decode(BytesView in) {
  BinaryReader r(in);
  ReplicaHeartbeatRequest req;
  TC_ASSIGN_OR_RETURN(req.shard, r.GetU32());
  TC_ASSIGN_OR_RETURN(req.head_seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t claimed, r.GetVar());
  TC_ASSIGN_OR_RETURN(size_t count, CheckedCount(claimed, r));
  req.peers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Peer peer;
    TC_ASSIGN_OR_RETURN(peer.host, r.GetString());
    TC_ASSIGN_OR_RETURN(peer.port, r.GetU32());
    TC_ASSIGN_OR_RETURN(peer.applied_seq, r.GetU64());
    req.peers.push_back(std::move(peer));
  }
  return req;
}

}  // namespace tc::net
