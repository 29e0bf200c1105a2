#include "client/consumer.hpp"

#include "client/key_manager.hpp"

namespace tc::client {

using net::MessageType;

ConsumerClient::ConsumerClient(std::shared_ptr<net::Transport> transport,
                               Principal principal)
    : transport_(std::move(transport)), principal_(std::move(principal)) {}

Result<int> ConsumerClient::FetchGrants() {
  net::FetchGrantsRequest req{principal_.id};
  TC_ASSIGN_OR_RETURN(
      Bytes payload, transport_->Call(MessageType::kFetchGrants, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::FetchGrantsResponse::Decode(payload));

  grants_.clear();
  token_sets_.clear();
  for (const auto& entry : resp.grants) {
    auto grant = AccessGrant::Open(principal_.keys, entry.sealed_grant);
    if (!grant.ok()) continue;  // not for us / corrupt — skip
    if (auto tokens = grant->MakeTokenSet(); tokens.ok()) {
      token_sets_.emplace(grant->stream_uuid, std::move(*tokens));
    }
    grants_.push_back(std::move(*grant));
  }
  return static_cast<int>(grants_.size());
}

Result<const net::StreamConfig*> ConsumerClient::ConfigFor(uint64_t uuid) {
  auto it = config_cache_.find(uuid);
  if (it == config_cache_.end()) {
    TC_ASSIGN_OR_RETURN(auto info, FetchStreamInfo(*transport_, uuid));
    it = config_cache_.emplace(uuid, std::move(info.config)).first;
  }
  return &it->second;
}

Result<const AccessGrant*> ConsumerClient::GrantFor(uint64_t uuid,
                                                    uint64_t first,
                                                    uint64_t last) const {
  for (const auto& g : grants_) {
    if (g.stream_uuid != uuid) continue;
    if (g.first_chunk <= first && last <= g.last_chunk) return &g;
  }
  return PermissionDenied("no grant covers chunks [" + std::to_string(first) +
                          ", " + std::to_string(last) + ") of stream " +
                          std::to_string(uuid));
}

Result<crypto::Key128> ConsumerClient::BoundaryLeaf(uint64_t uuid,
                                                    uint64_t chunk) {
  // Try full-resolution grants first (cheapest: pure local derivation).
  auto [first, end] = token_sets_.equal_range(uuid);
  for (auto it = first; it != end; ++it) {
    if (it->second.Covers(chunk)) return it->second.DeriveLeaf(chunk);
  }
  // Resolution grants: chunk must be a window boundary; recover the outer
  // leaf from the server-stored envelope.
  for (const auto& g : grants_) {
    if (g.stream_uuid != uuid || g.kind != GrantKind::kResolution) continue;
    if (chunk % g.resolution_chunks != 0) continue;
    uint64_t window = chunk / g.resolution_chunks;
    if (window < g.window_lower || window > g.window_upper) continue;

    TC_ASSIGN_OR_RETURN(auto view, g.MakeResolutionView());
    TC_ASSIGN_OR_RETURN(crypto::Key128 res_key, view.DeriveKey(window));

    net::GetEnvelopesRequest req{uuid, g.resolution_chunks, window, window};
    TC_ASSIGN_OR_RETURN(
        Bytes payload,
        transport_->Call(MessageType::kGetEnvelopes, req.Encode()));
    TC_ASSIGN_OR_RETURN(auto resp, net::GetEnvelopesResponse::Decode(payload));
    if (resp.envelopes.size() != 1) return DataLoss("missing envelope");
    return crypto::GcmOpenKey(res_key, resp.envelopes[0]);
  }
  return PermissionDenied(
      "no grant can derive the key for chunk boundary " +
      std::to_string(chunk) + " (wrong range or resolution)");
}

LeafSource ConsumerClient::LeavesOf(uint64_t uuid) {
  return [this, uuid](uint64_t chunk) { return BoundaryLeaf(uuid, chunk); };
}

Result<StreamReader> ConsumerClient::ReaderFor(uint64_t uuid) {
  TC_ASSIGN_OR_RETURN(const net::StreamConfig* config, ConfigFor(uuid));
  return StreamReader{*transport_, uuid, *config, LeavesOf(uuid)};
}

Result<StatResult> ConsumerClient::GetStatRange(uint64_t uuid,
                                                TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamReader reader, ReaderFor(uuid));
  return reader.StatRange(range);
}

Result<std::vector<StatResult>> ConsumerClient::GetStatSeries(
    uint64_t uuid, TimeRange range, uint64_t granularity_chunks) {
  TC_ASSIGN_OR_RETURN(StreamReader reader, ReaderFor(uuid));
  return reader.StatSeries(range, granularity_chunks);
}

Result<std::vector<index::DataPoint>> ConsumerClient::GetRange(
    uint64_t uuid, TimeRange range) {
  TC_ASSIGN_OR_RETURN(StreamReader reader, ReaderFor(uuid));
  return reader.Range(range);
}

Result<StatResult> ConsumerClient::GetVerifiedStatRange(
    uint64_t uuid, TimeRange range, BytesView owner_signing_public) {
  TC_ASSIGN_OR_RETURN(StreamReader reader, ReaderFor(uuid));
  // Grant check before fetching: the decrypt would fail anyway
  // (crypto-enforced), but failing early gives a cleaner error.
  return reader.VerifiedStatRange(
      range, owner_signing_public, [&](uint64_t first, uint64_t last) {
        return GrantFor(uuid, first, last).status();
      });
}

Result<StatResult> ConsumerClient::GetMultiStatRange(
    const std::vector<uint64_t>& uuids, TimeRange range) {
  if (uuids.empty()) return InvalidArgument("no streams");
  TC_ASSIGN_OR_RETURN(const net::StreamConfig* config, ConfigFor(uuids[0]));

  net::MultiStatRangeRequest req{uuids, range};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kMultiStatRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatRangeResponse::Decode(payload));

  // Need outer keys for every stream: the grant requirement of §4.3.
  std::vector<LeafSource> leaves;
  for (uint64_t uuid : uuids) leaves.push_back(LeavesOf(uuid));
  return OpenAggregate(*config, resp.aggregate_blob, resp.first_chunk,
                       resp.last_chunk, leaves);
}

}  // namespace tc::client
