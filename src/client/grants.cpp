#include "client/grants.hpp"

#include "common/io.hpp"

namespace tc::client {

Bytes AccessGrant::Encode() const {
  BinaryWriter w;
  w.PutU64(stream_uuid);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU64(first_chunk);
  w.PutU64(last_chunk);
  w.PutU32(tree_height);
  w.PutVar(tokens.size());
  for (const auto& t : tokens) {
    w.PutU32(t.depth);
    w.PutU64(t.index);
    w.PutRaw(t.node_key);
  }
  w.PutU64(resolution_chunks);
  w.PutU64(window_lower);
  w.PutU64(window_upper);
  w.PutRaw(primary_state);
  w.PutRaw(secondary_state);
  return std::move(w).Take();
}

Result<AccessGrant> AccessGrant::Decode(BytesView in) {
  BinaryReader r(in);
  AccessGrant g;
  TC_ASSIGN_OR_RETURN(g.stream_uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  g.kind = static_cast<GrantKind>(kind);
  TC_ASSIGN_OR_RETURN(g.first_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(g.last_chunk, r.GetU64());
  TC_ASSIGN_OR_RETURN(g.tree_height, r.GetU32());
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVar());
  // Each token consumes ≥ 28 input bytes; any larger count is a hostile
  // allocation bomb, not a well-formed grant.
  if (n > r.remaining() / 28) return DataLoss("token count exceeds input");
  g.tokens.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    crypto::AccessToken t;
    TC_ASSIGN_OR_RETURN(t.depth, r.GetU32());
    TC_ASSIGN_OR_RETURN(t.index, r.GetU64());
    // A token must name a node of the tree: token sets walk from it.
    if (g.tree_height > 63 || t.depth > g.tree_height || t.index >> t.depth) {
      return DataLoss("token outside the key tree");
    }
    TC_ASSIGN_OR_RETURN(BytesView key, r.GetRaw(t.node_key.size()));
    std::copy(key.begin(), key.end(), t.node_key.begin());
    g.tokens.push_back(t);
  }
  TC_ASSIGN_OR_RETURN(g.resolution_chunks, r.GetU64());
  TC_ASSIGN_OR_RETURN(g.window_lower, r.GetU64());
  TC_ASSIGN_OR_RETURN(g.window_upper, r.GetU64());
  TC_ASSIGN_OR_RETURN(BytesView p, r.GetRaw(g.primary_state.size()));
  std::copy(p.begin(), p.end(), g.primary_state.begin());
  TC_ASSIGN_OR_RETURN(BytesView s, r.GetRaw(g.secondary_state.size()));
  std::copy(s.begin(), s.end(), g.secondary_state.begin());
  return g;
}

Result<Bytes> AccessGrant::SealTo(BytesView principal_public) const {
  return crypto::SealToPublicKey(principal_public, Encode());
}

Result<AccessGrant> AccessGrant::Open(const crypto::BoxKeyPair& principal,
                                      BytesView sealed) {
  TC_ASSIGN_OR_RETURN(Bytes plain, crypto::OpenSealed(principal, sealed));
  return Decode(plain);
}

Result<crypto::TokenSet> AccessGrant::MakeTokenSet() const {
  if (kind != GrantKind::kFullResolution) {
    return FailedPrecondition("not a full-resolution grant");
  }
  return crypto::TokenSet(tokens, tree_height);
}

Result<crypto::DualKeyRegressionView> AccessGrant::MakeResolutionView() const {
  if (kind != GrantKind::kResolution) {
    return FailedPrecondition("not a resolution grant");
  }
  return crypto::DualKeyRegressionView(
      crypto::KeyRegressionState{primary_state, window_upper},
      crypto::KeyRegressionState{secondary_state, window_lower});
}

}  // namespace tc::client
