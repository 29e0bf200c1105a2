// The query read path shared by the data owner and data consumers (§3.2,
// §4.5). Both make the same requests and decode, decrypt and verify the
// same responses; they differ only in where the outer leaves of a chunk
// range come from: the owner's GGM tree, or a consumer's grant tokens and
// resolution envelopes. OwnerClient and ConsumerClient forward every read
// to a StreamReader built on their LeafSource.
#pragma once

#include <functional>
#include <span>

#include "common/time.hpp"
#include "crypto/rand.hpp"
#include "index/digest.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::client {

/// Decoded statistical query result.
struct StatResult {
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;
  index::DigestStats stats;
};

/// The leaf at chunk boundary `chunk`. Readers ask in ascending order, so
/// the owner's sequential leaf iterator keeps its place.
using LeafSource = std::function<Result<crypto::Key128>(uint64_t chunk)>;

/// GetStreamInfo: the stream's public config and chunk count.
Result<net::StreamInfoResponse> FetchStreamInfo(net::Transport& transport,
                                                uint64_t uuid);

/// Decode + decrypt a HEAC aggregate with explicit outer leaves; the pairs
/// accumulate for multi-stream aggregates, whose key sums span streams.
Result<std::vector<uint64_t>> DecryptStatBlob(
    const net::StreamConfig& config, BytesView blob,
    std::span<const std::pair<crypto::Key128, crypto::Key128>> leaf_pairs);

/// Open an aggregate over chunks [first, last), summed over one stream per
/// entry of `leaves` (§4.3). HEAC needs each stream's leaves at `first` and
/// `last`; kPlain aggregates need none and get no cryptographic access
/// control.
Result<StatResult> OpenAggregate(const net::StreamConfig& config,
                                 BytesView blob, uint64_t first, uint64_t last,
                                 std::span<const LeafSource> leaves);

/// Reads of one stream, with its leaves from `leaf`. Holds references:
/// build one per query.
struct StreamReader {
  net::Transport& transport;
  uint64_t uuid;
  const net::StreamConfig& config;
  LeafSource leaf;

  Result<StatResult> StatRange(TimeRange range) const;
  Result<std::vector<StatResult>> StatSeries(TimeRange range,
                                             uint64_t granularity_chunks) const;
  /// Raw points. A payload key needs the leaves on both sides of its chunk,
  /// so only full-resolution leaf sources open them.
  Result<std::vector<index::DataPoint>> Range(TimeRange range) const;

  /// Verified aggregate (integrity extension): checks the published
  /// attestation and every attested chunk's audit path against
  /// `owner_signing_public`, re-aggregates client-side and decrypts. It
  /// catches tampered, reordered or transplanted chunks that StatRange
  /// would mis-decrypt, at O(chunks) work (Verena-style verified reads).
  /// `check` vets the chunk range before it is fetched.
  Result<StatResult> VerifiedStatRange(
      TimeRange range, BytesView owner_signing_public,
      const std::function<Status(uint64_t first, uint64_t last)>& check =
          nullptr) const;
};

}  // namespace tc::client
