// Data-owner / data-producer client (§3.2, Table 1): creates streams, runs
// the serialization pipeline (chunking -> digest -> HEAC encrypt -> compress
// -> AES-GCM), uploads chunks, and manages grants (time-range,
// resolution-restricted, open-ended) and revocation. Its queries run on the
// read path it shares with consumers (client/stream_reader.hpp), with
// boundary leaves taken from its own key tree.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "chunk/chunk.hpp"
#include "client/grants.hpp"
#include "client/key_manager.hpp"
#include "client/stream_reader.hpp"
#include "crypto/ed25519.hpp"
#include "index/digest.hpp"
#include "index/digest_cipher.hpp"
#include "integrity/attestation.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::client {

struct OwnerOptions {
  StreamKeysConfig keys;
  /// Open-ended grants are extended one epoch at a time (chunks per epoch).
  uint64_t open_grant_epoch_chunks = 360;
  /// Upload sealed chunks in InsertChunkBatch messages of this many chunks.
  /// With 1, each chunk goes out alone and InsertRecord/Flush return once
  /// the server holds it. Larger batches amortize framing, round trips and
  /// the server's per-stream lock and log sync, and go out pipelined (a few
  /// frames in flight at once); until a batch fills (or Flush() is called)
  /// its chunks are not yet visible to server-side queries. A pending batch
  /// is the request body itself: each chunk is sealed straight into one
  /// growing buffer per stream, as the encoded entry the server decodes,
  /// and the uuid and count go in front when the batch is sent. A failed
  /// send surfaces on a later call or at Flush(); the bodies still
  /// unacknowledged are kept and re-sent after a position resync, less the
  /// chunks the server already holds.
  uint64_t upload_batch_chunks = 1;
  /// Signing identity for stream attestations (integrity extension). A
  /// fresh keypair is generated when left empty and an integrity stream is
  /// created; pass long-term keys for identities that outlive the process.
  crypto::SigningKeyPair signing;
};

class OwnerClient {
 public:
  OwnerClient(std::shared_ptr<net::Transport> transport,
              OwnerOptions options = {});

  /// (1) CreateStream — registers the stream server-side and provisions the
  /// local key material. Returns the stream uuid.
  Result<uint64_t> CreateStream(const net::StreamConfig& config);

  /// Re-attach to an existing server-side stream from exported key material
  /// (a producer re-opening its stream after restart). Fetches the config
  /// and chunk position from the server and resumes ingest at the next
  /// chunk. The master seed is the one KeysFor(uuid)->master_seed() exported
  /// before shutdown; all keys re-derive deterministically from it.
  Status AttachStream(uint64_t uuid, const crypto::Key128& master_seed);

  /// (2) DeleteStream.
  Status DeleteStream(uint64_t uuid);

  /// (4) InsertRecord — buffers into the current chunk; when the point
  /// crosses the chunk boundary the finished chunk is sealed and uploaded.
  /// Gaps produce empty chunks so the index stays contiguous.
  Status InsertRecord(uint64_t uuid, const index::DataPoint& point);

  /// Seal and upload the current partial chunk, and push any batched
  /// chunks still buffered client-side (call at stream end, before
  /// querying freshly ingested data, or to bound ingest latency — §4.6
  /// client-side batching).
  Status Flush(uint64_t uuid);

  /// (5) GetRange — fetch and decrypt raw points.
  Result<std::vector<index::DataPoint>> GetRange(uint64_t uuid,
                                                 TimeRange range);

  /// (6) GetStatRange — server-side aggregate, owner-side decrypt.
  Result<StatResult> GetStatRange(uint64_t uuid, TimeRange range);

  /// (6) at fixed granularity: one decoded aggregate per window.
  Result<std::vector<StatResult>> GetStatSeries(uint64_t uuid, TimeRange range,
                                                uint64_t granularity_chunks);

  /// (3) RollupStream — server-side re-aggregation into a derived stream.
  /// Returns the new stream's uuid. The derived stream shares this stream's
  /// keys (aggregates of HEAC ciphertexts stay decryptable at window
  /// boundaries).
  Result<uint64_t> RollupStream(uint64_t uuid, uint64_t granularity_chunks,
                                TimeRange range = {0, 0});

  /// (7) DeleteRange — drop raw chunks, keep digests.
  Status DeleteRange(uint64_t uuid, TimeRange range);

  /// (8) GrantAccess — resolution_chunks == 1 grants full resolution
  /// (tree tokens); r > 1 grants r-chunk aggregates only (dual key
  /// regression + envelopes). Time range must align to r chunks.
  Status GrantAccess(uint64_t uuid, const std::string& principal_id,
                     BytesView principal_public, TimeRange range,
                     uint64_t resolution_chunks = 1);

  /// (9) GrantOpenAccess — subscription extended epoch-by-epoch until
  /// revoked. Call ExtendOpenGrants() as ingest progresses.
  Status GrantOpenAccess(uint64_t uuid, const std::string& principal_id,
                         BytesView principal_public, Timestamp start,
                         uint64_t resolution_chunks = 1);

  /// Publish grants for epochs that ingest has reached. Returns the number
  /// of new epoch grants issued.
  Result<int> ExtendOpenGrants();

  /// (10) RevokeAccess — forward secrecy: the subscription stops extending
  /// at `end`; sealed grants covering data after `end` are removed from the
  /// key store. Already-shared keys for old data remain usable (§3.3).
  Status RevokeAccess(uint64_t uuid, const std::string& principal_id,
                      Timestamp end);

  /// Owner key handle (tests/benchmarks need leaf access).
  Result<StreamKeys*> KeysFor(uint64_t uuid);

  /// Number of chunks fully uploaded for a stream.
  Result<uint64_t> NumChunks(uint64_t uuid) const;

  // ------------------------------------------------- integrity extension

  /// Sign the current stream head and publish the attestation to the
  /// server's key store. Returns the attestation (consumers also fetch it
  /// from the server). Requires config.integrity.
  Result<integrity::Attestation> Attest(uint64_t uuid);

  /// The public signing key consumers verify attestations against (share
  /// through the identity provider alongside the X25519 key).
  const Bytes& signing_public() const { return options_.signing.public_key; }

  /// Verified statistical query (StreamReader::VerifiedStatRange) against
  /// this owner's signing key.
  Result<StatResult> GetVerifiedStatRange(uint64_t uuid, TimeRange range);

 private:
  /// An InsertChunkBatch request body; the request starts at `start`.
  struct BatchBody {
    Bytes bytes;
    size_t start = 0;

    BytesView request() const { return BytesView(bytes).subspan(start); }
  };

  struct StreamState {
    net::StreamConfig config;
    std::unique_ptr<StreamKeys> keys;
    std::unique_ptr<chunk::ChunkBuilder> builder;
    std::unique_ptr<integrity::StreamAttestor> attestor;  // iff integrity
    uint64_t next_chunk = 0;
    // Rollup streams share the source keystream: their chunk j spans source
    // chunks [offset + j*scale, offset + (j+1)*scale), so outer leaves are
    // source leaves at affine-mapped indices.
    uint64_t leaf_scale = 1;
    uint64_t leaf_offset = 0;
    // Seal storage reused from group to group: the digest fields, and the
    // HEAC field keys. field_keys[0] holds leaf `carried_chunk`'s, kept
    // from the group before (so sequential chunks derive each leaf's keys
    // once), and a group of n chunks derives the n leaves after it into
    // field_keys[1..n].
    std::vector<uint64_t> fields;
    std::vector<crypto::FieldKeys> field_keys;
    uint64_t carried_chunk = 0;
    // The closed chunks of the open batch not yet sealed, oldest first: at
    // most kCryptoLanes consecutive chunks, sealed together in lanes. Each
    // one's entry is already in `open` with its plaintext digest fields and
    // compressed points in place, which its seal encrypts where they lie.
    struct PendingSeal {
      uint64_t chunk = 0;
      size_t digest_at = 0;     // the digest blob's offset in `open`
      size_t payload_at = 0;    // the sealed payload's (its nonce's) offset
      size_t payload_size = 0;  // compressed points; 0 for an empty chunk
    };
    std::vector<PendingSeal> group;
    // The open batch: room for the request header, then the encoded
    // entries of the `open_chunks` chunks sealed into it so far.
    Bytes open;
    size_t open_chunks = 0;
    // Closed batches not yet on the wire, oldest first.
    std::deque<BatchBody> queued;
    // Pipelined batches already on the wire, oldest first. Bodies are
    // retained until their response lands: a failure puts every
    // unacknowledged body back at the front of `queued` for a resynced
    // retry.
    struct InflightBatch {
      net::PendingCall call;
      BatchBody body;
    };
    std::deque<InflightBatch> inflight;
    // The buffer of the last acknowledged body, for the next open batch.
    Bytes spare;
    // A previous batch send failed; the server may have applied a prefix
    // (the batch is not atomic), so the retry must re-sync first.
    bool pending_retry = false;

    /// The leaf at chunk boundary `chunk`; OutOfRange past the keystream.
    Result<uint64_t> LeafIndexOf(uint64_t chunk) const {
      uint64_t leaf;
      if (__builtin_mul_overflow(chunk, leaf_scale, &leaf) ||
          __builtin_add_overflow(leaf, leaf_offset, &leaf) ||
          leaf >= keys->tree().num_leaves()) {
        return OutOfRange("chunk is past the stream's keystream");
      }
      return leaf;
    }
  };

  struct OpenGrant {
    uint64_t uuid;
    std::string principal_id;
    Bytes principal_public;
    uint64_t resolution_chunks;
    uint64_t next_chunk;   // first chunk of the next epoch to grant
    bool active = true;
  };

  /// Every grant put to the key store, with its chunk range — revocation
  /// needs to distinguish grants over old data (kept, §3.3) from grants
  /// over data after the revocation point (removed).
  struct IssuedGrant {
    uint64_t uuid;
    std::string principal_id;
    uint64_t grant_id;
    uint64_t first_chunk;
    uint64_t last_chunk;  // exclusive
  };

  Result<StreamState*> FindStream(uint64_t uuid);
  /// The stream, or null; remembers the last one found.
  StreamState* LookupStream(uint64_t uuid);
  /// Reads of `s`, with leaves from its key tree (affine for rollups).
  StreamReader ReaderFor(uint64_t uuid, StreamState& s);
  /// Close the builder's chunk, add it to the pending group, and seal the
  /// group when it is full or its batch closes. A chunk refused here still
  /// lets the chunks before it drain.
  Status SealAndUpload(uint64_t uuid, StreamState& s);
  /// Write the builder's chunk into the open batch as one encoded entry,
  /// still in plaintext, and add it to the pending group. Every check that
  /// can refuse the chunk runs here, before anything is written.
  Status CloseChunk(StreamState& s);
  /// Encrypt the pending group's digests and seal its payloads in place,
  /// each kernel once for the whole group, then witness its chunks.
  Status SealGroup(StreamState& s);
  /// Seal the pending group, write the request header in front of the
  /// open batch and queue it.
  Status CloseBatch(uint64_t uuid, StreamState& s);
  /// Drain the upload pipeline: send everything buffered and wait for every
  /// in-flight batch (no-op when empty).
  Status FlushPending(uint64_t uuid, StreamState& s);
  /// Advance the upload pipeline: reap completed batches, resync after a
  /// failure, and issue full batches up to the in-flight window. With
  /// `drain` it also sends a short final batch and waits everything out.
  Status PumpPending(uint64_t uuid, StreamState& s, bool drain);
  enum class Reap { kPoll, kWaitOne, kWaitAll };
  /// Retire in-flight batches from the front; on the first error, re-queue
  /// every unacknowledged body at the front of `queued` and arm the resync.
  Status ReapInflight(StreamState& s, Reap mode);
  /// Drop from `queued` every chunk the server already holds (index below
  /// `applied`), reading each body back with the server's decoder. Entries
  /// increase within a body, so each loses at most a prefix; a body that
  /// keeps only a suffix is re-encoded.
  static Status DropApplied(std::deque<BatchBody>& queued, uint64_t applied);
  Status GrantChunkRange(StreamState& s, uint64_t uuid,
                         const std::string& principal_id,
                         BytesView principal_public, uint64_t first_chunk,
                         uint64_t last_chunk, uint64_t resolution_chunks);

  std::shared_ptr<net::Transport> transport_;
  OwnerOptions options_;
  std::map<uint64_t, StreamState> streams_;
  uint64_t last_uuid_ = 0;  // 0 is never a stream's uuid
  StreamState* last_stream_ = nullptr;
  std::vector<OpenGrant> open_grants_;
  std::vector<IssuedGrant> issued_grants_;
};

}  // namespace tc::client
