#include "client/stream_reader.hpp"

#include <algorithm>
#include <cstring>

#include "chunk/chunk.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/heac.hpp"
#include "index/digest_cipher.hpp"
#include "integrity/attestation.hpp"

namespace tc::client {

using net::MessageType;

Result<net::StreamInfoResponse> FetchStreamInfo(net::Transport& transport,
                                                uint64_t uuid) {
  net::StreamInfoRequest req{uuid};
  TC_ASSIGN_OR_RETURN(
      Bytes payload, transport.Call(MessageType::kGetStreamInfo, req.Encode()));
  return net::StreamInfoResponse::Decode(payload);
}

Result<std::vector<uint64_t>> DecryptStatBlob(
    const net::StreamConfig& config, BytesView blob,
    std::span<const std::pair<crypto::Key128, crypto::Key128>> leaf_pairs) {
  size_t fields = config.schema.num_fields();
  if (config.cipher != net::CipherKind::kHeac) {
    return FailedPrecondition("DecryptStatBlob expects a HEAC stream");
  }
  if (blob.size() != fields * 8) {
    return InvalidArgument("aggregate blob size mismatch");
  }
  std::vector<uint64_t> m(fields);
  std::memcpy(m.data(), blob.data(), blob.size());
  for (const auto& [first, last] : leaf_pairs) crypto::HeacOpen(m, first, last);
  return m;
}

Result<StatResult> OpenAggregate(const net::StreamConfig& config,
                                 BytesView blob, uint64_t first, uint64_t last,
                                 std::span<const LeafSource> leaves) {
  std::vector<uint64_t> fields;
  if (config.cipher == net::CipherKind::kPlain) {
    auto plain = index::MakePlainCipher(config.schema.num_fields());
    TC_ASSIGN_OR_RETURN(fields, plain->Decrypt(blob, first, last));
  } else {
    std::vector<std::pair<crypto::Key128, crypto::Key128>> leaf_pairs;
    leaf_pairs.reserve(leaves.size());
    for (const LeafSource& leaf : leaves) {
      TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_first, leaf(first));
      TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_last, leaf(last));
      leaf_pairs.emplace_back(leaf_first, leaf_last);
    }
    TC_ASSIGN_OR_RETURN(fields, DecryptStatBlob(config, blob, leaf_pairs));
  }
  return StatResult{first, last,
                    index::DigestStats(config.schema, std::move(fields))};
}

Result<StatResult> StreamReader::StatRange(TimeRange range) const {
  net::StatRangeRequest req{uuid, range};
  TC_ASSIGN_OR_RETURN(
      Bytes payload, transport.Call(MessageType::kGetStatRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatRangeResponse::Decode(payload));
  return OpenAggregate(config, resp.aggregate_blob, resp.first_chunk,
                       resp.last_chunk, {&leaf, 1});
}

Result<std::vector<StatResult>> StreamReader::StatSeries(
    TimeRange range, uint64_t granularity_chunks) const {
  net::StatSeriesRequest req{uuid, range, granularity_chunks};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport.Call(MessageType::kGetStatSeries, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatSeriesResponse::Decode(payload));

  std::vector<StatResult> results;
  results.reserve(resp.aggregates.size());
  uint64_t w = resp.first_chunk;
  for (const auto& blob : resp.aggregates) {
    // The final window clips to the server's end bound, not to local ingest
    // state. An underivable leaf is the (crypto-enforced) detector for
    // windows a grant's resolution cannot reach.
    uint64_t end = std::min(w + resp.granularity_chunks, resp.last_chunk);
    TC_ASSIGN_OR_RETURN(StatResult window,
                        OpenAggregate(config, blob, w, end, {&leaf, 1}));
    results.push_back(std::move(window));
    w = end;
  }
  return results;
}

Result<std::vector<index::DataPoint>> StreamReader::Range(
    TimeRange range) const {
  net::GetRangeRequest req{uuid, range};
  TC_ASSIGN_OR_RETURN(Bytes payload,
                      transport.Call(MessageType::kGetRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::GetRangeResponse::Decode(payload));

  std::vector<index::DataPoint> points;
  for (const auto& c : resp.chunks) {
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_i, leaf(c.chunk_index));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_n, leaf(c.chunk_index + 1));
    TC_ASSIGN_OR_RETURN(
        auto chunk_points,
        chunk::OpenPayload(crypto::ChunkPayloadKey(leaf_i, leaf_n),
                           c.chunk_index, c.payload));
    for (const auto& p : chunk_points) {
      if (range.Contains(p.timestamp_ms)) points.push_back(p);
    }
  }
  return points;
}

Result<StatResult> StreamReader::VerifiedStatRange(
    TimeRange range, BytesView owner_signing_public,
    const std::function<Status(uint64_t, uint64_t)>& check) const {
  if (config.cipher != net::CipherKind::kHeac) {
    return Unimplemented("verified queries require a HEAC stream");
  }

  net::GetAttestationRequest att_req{uuid};
  TC_ASSIGN_OR_RETURN(
      Bytes att_blob,
      transport.Call(MessageType::kGetAttestation, att_req.Encode()));
  TC_ASSIGN_OR_RETURN(auto attestation,
                      integrity::Attestation::Decode(att_blob));
  TC_RETURN_IF_ERROR(attestation.Verify(owner_signing_public));
  // The same owner signs all its streams: a server could pass another
  // stream's attestation and chunks off as this one's.
  if (attestation.uuid != uuid) {
    return PermissionDenied("attestation covers a different stream");
  }

  TC_ASSIGN_OR_RETURN(auto idx_range, config.clock().IndexRange(range));
  uint64_t first = idx_range.first;
  uint64_t last = std::min(idx_range.second, attestation.size);
  if (first >= last) return OutOfRange("range beyond attested prefix");
  if (check) TC_RETURN_IF_ERROR(check(first, last));

  net::GetChunkWitnessedRequest req{uuid, first, last, attestation.size};
  TC_ASSIGN_OR_RETURN(
      Bytes resp_blob,
      transport.Call(MessageType::kGetChunkWitnessed, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp,
                      net::GetChunkWitnessedResponse::Decode(resp_blob));
  if (resp.entries.size() != last - first) {
    return DataLoss("server returned wrong number of witnessed chunks");
  }

  // Verify every chunk against the signed root, then re-aggregate the
  // verified ciphertexts as the server does: HEAC addition is plaintext
  // addition in the uint64 ring. A verified chunk in the wrong slot would
  // still break the telescoping.
  auto adder = index::MakePlainCipher(config.schema.num_fields());
  Bytes acc = adder->ZeroBlob();
  for (size_t i = 0; i < resp.entries.size(); ++i) {
    const auto& entry = resp.entries[i];
    if (entry.chunk_index != first + i) {
      return DataLoss("witnessed chunks out of order");
    }
    BinaryReader pr(entry.proof);
    TC_ASSIGN_OR_RETURN(auto path, integrity::DecodeAuditPath(pr));
    TC_RETURN_IF_ERROR(integrity::VerifyChunk(
        attestation, owner_signing_public, entry.chunk_index,
        entry.digest_blob, entry.payload, path));
    if (!adder->Add(acc, entry.digest_blob).ok()) {
      return DataLoss("digest blob size mismatch");
    }
  }
  return OpenAggregate(config, acc, first, last, {&leaf, 1});
}

}  // namespace tc::client
