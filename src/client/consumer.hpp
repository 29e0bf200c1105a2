// Data-consumer client (§3.2): a principal that fetches its sealed grants
// from the server key store, opens them with its X25519 key, and decrypts
// query results strictly within the granted scope — access control is
// enforced by key derivability, not server policy (§4.2.3 "true end-to-end
// encryption"). Its queries run on the read path it shares with the owner
// (client/stream_reader.hpp), with boundary leaves taken from its grants.
#pragma once

#include <map>
#include <memory>

#include "client/grants.hpp"
#include "client/stream_reader.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::client {

class ConsumerClient {
 public:
  ConsumerClient(std::shared_ptr<net::Transport> transport,
                 Principal principal);

  /// Pull and open all sealed grants addressed to this principal. Returns
  /// the number of grants now held.
  Result<int> FetchGrants();

  const std::vector<AccessGrant>& grants() const { return grants_; }

  /// Statistical range query (§4.5). The chunk window is clipped to the
  /// intersection with this principal's grants; PermissionDenied when no
  /// grant overlaps or the range boundaries require underivable keys.
  /// Plaintext (kPlain) streams need no keys: their aggregates are read
  /// as the server stores them.
  Result<StatResult> GetStatRange(uint64_t uuid, TimeRange range);

  /// Fixed-granularity series (visualization, Fig 8). Granularity must be a
  /// multiple of the grant resolution.
  Result<std::vector<StatResult>> GetStatSeries(uint64_t uuid,
                                                TimeRange range,
                                                uint64_t granularity_chunks);

  /// Raw data retrieval — needs a full-resolution grant (payload keys are
  /// H(k_i - k_{i+1}), underivable from outer keys alone).
  Result<std::vector<index::DataPoint>> GetRange(uint64_t uuid,
                                                 TimeRange range);

  /// Inter-stream aggregate (§4.3): decryptable only because this principal
  /// holds grants on every stream involved.
  Result<StatResult> GetMultiStatRange(const std::vector<uint64_t>& uuids,
                                       TimeRange range);

  /// Verified statistical query (StreamReader::VerifiedStatRange) within
  /// this principal's grant; `owner_signing_public` comes out of band from
  /// the identity provider.
  Result<StatResult> GetVerifiedStatRange(uint64_t uuid, TimeRange range,
                                          BytesView owner_signing_public);

 private:
  /// Outer leaf for chunk boundary `chunk` of stream `uuid`, via whichever
  /// grant can derive it (tree token or resolution envelope).
  Result<crypto::Key128> BoundaryLeaf(uint64_t uuid, uint64_t chunk);
  LeafSource LeavesOf(uint64_t uuid);

  /// The stream's public config, fetched once and cached.
  Result<const net::StreamConfig*> ConfigFor(uint64_t uuid);
  Result<StreamReader> ReaderFor(uint64_t uuid);

  /// Find a grant on `uuid` overlapping [first, last) chunks.
  Result<const AccessGrant*> GrantFor(uint64_t uuid, uint64_t first,
                                      uint64_t last) const;

  std::shared_ptr<net::Transport> transport_;
  Principal principal_;
  std::vector<AccessGrant> grants_;
  // Full-resolution grants' token sets by stream; each holds a leaf path.
  std::multimap<uint64_t, crypto::TokenSet> token_sets_;
  std::map<uint64_t, net::StreamConfig> config_cache_;
};

}  // namespace tc::client
