#include "client/grants.hpp"

namespace tc::client {

bool AccessGrant::TokensInTree() const {
  for (const auto& t : tokens) {
    if (tree_height > 63 || t.depth > tree_height || t.index >> t.depth) {
      return false;
    }
  }
  return true;
}

// The plaintext encodings carry every token and both regression states:
// they live in scrubbed storage until sealed or decoded.
Result<Bytes> AccessGrant::SealTo(BytesView principal_public) const {
  SecretBuffer plain(Encode());
  return crypto::SealToPublicKey(principal_public, plain.secret_bytes());
}

Result<AccessGrant> AccessGrant::Open(const crypto::BoxKeyPair& principal,
                                      BytesView sealed) {
  TC_ASSIGN_OR_RETURN(Bytes opened, crypto::OpenSealed(principal, sealed));
  SecretBuffer plain(std::move(opened));
  return Decode(plain.secret_bytes());
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
