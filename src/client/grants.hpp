// Access grants (§4.3-§4.4): the owner-to-principal key material bundles.
//
// Two kinds:
//  - Full-resolution grant: GGM subtree tokens covering leaves [a, b+1] for
//    chunk range [a, b+1) — the principal can decrypt every chunk digest,
//    every in-range aggregate, and the raw chunk payloads in the window.
//  - Resolution grant: a dual-key-regression view over the resolution
//    keystream for windows [lower, upper]; the principal opens the
//    server-stored envelopes to recover only the *outer* GGM leaves at
//    window boundaries (every r-th key, §4.4.1) and can therefore decrypt
//    only r-aligned aggregates, never finer.
//
// Grants travel sealed to the principal's X25519 key and are stored at the
// server key store (§3.2); the server cannot open them.
#pragma once

#include "common/secret.hpp"
#include "common/time.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/key_regression.hpp"
#include "crypto/sealed_box.hpp"
#include "net/codec.hpp"

namespace tc::client {

/// A principal's identity: the id registered with the identity provider
/// plus their X25519 keypair (consumers hold the secret half).
struct Principal {
  std::string id;
  crypto::BoxKeyPair keys;
};

enum class GrantKind : uint8_t {
  kFullResolution = 1,
  kResolution = 2,
};

struct AccessGrant {
  uint64_t stream_uuid = 0;
  GrantKind kind = GrantKind::kFullResolution;

  // Chunk range [first_chunk, last_chunk) this grant covers.
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;

  // kFullResolution: GGM tokens over leaves [first_chunk, last_chunk].
  uint32_t tree_height = 0;
  std::vector<crypto::AccessToken> tokens;

  // kResolution: windows of `resolution_chunks` chunks; dual-key-regression
  // view states for window indices [window_lower, window_upper].
  uint64_t resolution_chunks = 0;
  uint64_t window_lower = 0;
  uint64_t window_upper = 0;
  Scrubbed<crypto::Key128> primary_state;
  Scrubbed<crypto::Key128> secondary_state;

  // A decoded token must name a node of the tree: token sets walk from it.
  // The codec bounds the token count by the remaining input first.
  static void Visit(auto& g, auto& v) {
    v(g.stream_uuid, g.kind, g.first_chunk, g.last_chunk, g.tree_height,
      g.tokens);
    v.Check(g.TokensInTree(), "token outside the key tree");
    v(g.resolution_chunks, g.window_lower, g.window_upper, g.primary_state,
      g.secondary_state);
  }
  TC_WIRE_MESSAGE(AccessGrant)

  /// Seal to / open with a principal key (X25519 + AES-GCM hybrid).
  Result<Bytes> SealTo(BytesView principal_public) const;
  static Result<AccessGrant> Open(const crypto::BoxKeyPair& principal,
                                  BytesView sealed);

  /// Consumer-side views over the key material.
  Result<crypto::TokenSet> MakeTokenSet() const;
  Result<crypto::DualKeyRegressionView> MakeResolutionView() const;

 private:
  bool TokensInTree() const;
};

}  // namespace tc::client
