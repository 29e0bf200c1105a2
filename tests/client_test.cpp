// Client-layer unit tests: grant serialization/sealing, StreamKeys
// determinism and envelope round trips, multi-stream decrypt helper, and
// the owner's sealed uploads against reference encryption and compression
// (including the HEAC field keys it carries from chunk to chunk).
#include <gtest/gtest.h>
#include <zlib.h>

#include <map>

#include "client/grants.hpp"
#include "client/key_manager.hpp"
#include "client/owner.hpp"
#include "crypto/sha256.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "tests/kernel_arms.hpp"
#include "tests/key_testing.hpp"
#include "workload/mhealth.hpp"

namespace tc::client {
namespace {

AccessGrant SampleFullGrant() {
  AccessGrant g;
  g.stream_uuid = 42;
  g.kind = GrantKind::kFullResolution;
  g.first_chunk = 100;
  g.last_chunk = 200;
  g.tree_height = 30;
  g.tokens = {crypto::AccessToken{5, 3, crypto::RandomKey128()},
              crypto::AccessToken{7, 99, crypto::RandomKey128()}};
  return g;
}

AccessGrant SampleResolutionGrant() {
  AccessGrant g;
  g.stream_uuid = 7;
  g.kind = GrantKind::kResolution;
  g.first_chunk = 0;
  g.last_chunk = 600;
  g.resolution_chunks = 6;
  g.window_lower = 0;
  g.window_upper = 100;
  g.primary_state = crypto::RandomKey128();
  g.secondary_state = crypto::RandomKey128();
  return g;
}

TEST(AccessGrantCodec, FullGrantRoundTrip) {
  AccessGrant g = SampleFullGrant();
  auto back = AccessGrant::Decode(g.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->stream_uuid, 42u);
  EXPECT_EQ(back->kind, GrantKind::kFullResolution);
  ASSERT_EQ(back->tokens.size(), 2u);
  EXPECT_EQ(back->tokens[1], g.tokens[1]);
}

TEST(AccessGrantCodec, ResolutionGrantRoundTrip) {
  AccessGrant g = SampleResolutionGrant();
  auto back = AccessGrant::Decode(g.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->resolution_chunks, 6u);
  EXPECT_EQ(back->primary_state, g.primary_state);
  EXPECT_EQ(back->secondary_state, g.secondary_state);
}

// A key of 16 copies of one byte.
crypto::Key128 FilledKey(uint8_t fill) {
  crypto::Key128 key{};
  std::memset(&key, fill, sizeof(key));
  return key;
}

// The grant encoding is what owners seal to principals and servers store:
// its bytes must not move. uuid, kind, chunk range, tree height, a varint
// token count and each token (depth, index, node key), then the resolution
// fields and the two regression states.
TEST(AccessGrantCodec, FullGrantBytesArePinned) {
  AccessGrant g;
  g.stream_uuid = 42;
  g.kind = GrantKind::kFullResolution;
  g.first_chunk = 3;
  g.last_chunk = 9;
  g.tree_height = 30;
  g.tokens = {crypto::AccessToken{5, 3, FilledKey(0x11)},
              crypto::AccessToken{7, 99, FilledKey(0x22)}};
  EXPECT_EQ(ToHex(g.Encode()),
            "2a0000000000000001030000000000000009000000000000001e000000020500"
            "0000030000000000000011111111111111111111111111111111070000006300"
            "0000000000002222222222222222222222222222222200000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000");
}

TEST(AccessGrantCodec, ResolutionGrantBytesArePinned) {
  AccessGrant g;
  g.stream_uuid = 7;
  g.kind = GrantKind::kResolution;
  g.last_chunk = 600;
  g.resolution_chunks = 6;
  g.window_upper = 100;
  g.primary_state = FilledKey(0x33);
  g.secondary_state = FilledKey(0x44);
  EXPECT_EQ(ToHex(g.Encode()),
            "0700000000000000020000000000000000580200000000000000000000000600"
            "0000000000000000000000000000640000000000000033333333333333333333"
            "33333333333344444444444444444444444444444444");
}

TEST(AccessGrantCodec, TruncatedFails) {
  Bytes enc = SampleFullGrant().Encode();
  enc.resize(enc.size() - 10);
  EXPECT_FALSE(AccessGrant::Decode(enc).ok());
}

TEST(AccessGrantSealing, OnlyRecipientOpens) {
  AccessGrant g = SampleFullGrant();
  auto alice = crypto::GenerateBoxKeyPair();
  auto eve = crypto::GenerateBoxKeyPair();
  auto sealed = g.SealTo(alice.public_key);
  ASSERT_TRUE(sealed.ok());
  auto opened = AccessGrant::Open(alice, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->stream_uuid, g.stream_uuid);
  EXPECT_FALSE(AccessGrant::Open(eve, *sealed).ok());
}

TEST(AccessGrantViews, KindMismatchIsError) {
  EXPECT_FALSE(SampleFullGrant().MakeResolutionView().ok());
  EXPECT_FALSE(SampleResolutionGrant().MakeTokenSet().ok());
}

TEST(StreamKeysTest, DeterministicFromMasterSeed) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys a(seed), b(seed);
  for (uint64_t i : {0ull, 1ull, 77ull, 1000ull}) {
    EXPECT_EQ(a.Leaf(i), b.Leaf(i)) << i;
  }
  EXPECT_EQ(a.PayloadKey(5), b.PayloadKey(5));
}

TEST(StreamKeysTest, SequentialAndRandomAccessAgree) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys seq(seed), rnd(seed);
  // Sequential walk.
  std::vector<crypto::Key128> walked;
  for (uint64_t i = 0; i < 50; ++i) walked.push_back(seq.Leaf(i));
  // Random access in shuffled order.
  crypto::DeterministicRng rng(5);
  for (int t = 0; t < 50; ++t) {
    uint64_t i = rng.NextBelow(50);
    EXPECT_EQ(rnd.Leaf(i), walked[i]) << i;
  }
}

TEST(StreamKeysTest, LeafMatchesGgmTreeDirectly) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys keys(seed);
  for (uint64_t i : {3ull, 4ull, 100ull}) {
    EXPECT_EQ(keys.Leaf(i), keys.tree().DeriveLeaf(i).value());
  }
}

TEST(StreamKeysTest, ResolutionKeystreamsAreIndependent) {
  StreamKeys keys(crypto::RandomKey128());
  auto k6 = keys.Resolution(6).DeriveKey(0).value();
  auto k60 = keys.Resolution(60).DeriveKey(0).value();
  EXPECT_NE(k6, k60);
}

// Envelopes for windows [lo, hi] with lo > 0. Between consecutive windows
// StreamKeys::Leaf seeks its path 6 or 60 leaves on.
class StreamKeysEnvelopes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamKeysEnvelopes, EachOpensOnlyUnderItsWindowKey) {
  const uint64_t r = GetParam();
  constexpr uint64_t kLo = 3, kHi = 12;
  StreamKeys keys(crypto::RandomKey128());
  auto envelopes = keys.MakeEnvelopes(r, kLo, kHi);
  ASSERT_TRUE(envelopes.ok()) << envelopes.status().ToString();
  ASSERT_EQ(envelopes->size(), kHi - kLo + 1);
  auto& kr = keys.Resolution(r);
  for (uint64_t j = kLo; j <= kHi; ++j) {
    SCOPED_TRACE(::testing::Message() << "window " << j);
    const Bytes& envelope = (*envelopes)[j - kLo];
    auto leaf = crypto::GcmOpenKey(kr.DeriveKey(j).value(), envelope);
    ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
    EXPECT_EQ(*leaf, keys.tree().DeriveLeaf(j * r).value());
    for (uint64_t neighbour : {j - 1, j + 1}) {
      EXPECT_FALSE(
          crypto::GcmOpenKey(kr.DeriveKey(neighbour).value(), envelope).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, StreamKeysEnvelopes,
                         ::testing::Values(6, 60));

TEST(DecryptStatBlobTest, MultiStreamKeySums) {
  // Two HEAC streams aggregated by the server = field-wise sum; decryption
  // subtracts both first-keys and adds both last-keys.
  net::StreamConfig config;
  config.schema.with_sum = true;
  config.schema.with_count = false;
  config.cipher = net::CipherKind::kHeac;

  StreamKeys a(crypto::RandomKey128()), b(crypto::RandomKey128());
  crypto::HeacCodec codec(1);
  auto ca = codec.Encrypt(std::vector<uint64_t>{10}, 0, a.Leaf(0), a.Leaf(1));
  auto cb = codec.Encrypt(std::vector<uint64_t>{32}, 0, b.Leaf(0), b.Leaf(1));
  Bytes blob(8);
  uint64_t sum = ca.fields[0] + cb.fields[0];
  std::memcpy(blob.data(), &sum, 8);

  std::vector<std::pair<crypto::Key128, crypto::Key128>> pairs = {
      {a.Leaf(0), a.Leaf(1)}, {b.Leaf(0), b.Leaf(1)}};
  auto fields = DecryptStatBlob(config, blob, pairs);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], 42u);
}

TEST(DecryptStatBlobTest, RejectsNonHeacAndBadSizes) {
  net::StreamConfig config;
  config.schema.with_sum = true;
  config.cipher = net::CipherKind::kPlain;
  EXPECT_FALSE(DecryptStatBlob(config, Bytes(8, 0), {}).ok());
  config.cipher = net::CipherKind::kHeac;
  EXPECT_FALSE(DecryptStatBlob(config, Bytes(7, 0), {}).ok());
}

/// One uploaded chunk, copied out of its request body.
struct UploadedChunk {
  uint64_t chunk_index = 0;
  Bytes digest_blob;
  Bytes payload;
};

/// Passes requests to the engine and keeps a copy of every uploaded chunk
/// and of every InsertChunkBatch body.
class UploadRecorder final : public net::RequestHandler {
 public:
  explicit UploadRecorder(std::shared_ptr<net::RequestHandler> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    if (type == net::MessageType::kInsertChunkBatch) {
      auto req = net::InsertChunkBatchRequest::Decode(body);
      if (req.ok() && !req->entries.empty() &&
          req->entries.front().chunk_index == fail_once_at) {
        fail_once_at = ~uint64_t{0};
        return Unavailable("injected upload failure");
      }
      if (req.ok()) {
        bodies.emplace_back(body.begin(), body.end());
        for (const auto& e : req->entries) {
          chunks.push_back({e.chunk_index,
                            Bytes(e.digest_blob.begin(), e.digest_blob.end()),
                            Bytes(e.payload.begin(), e.payload.end())});
        }
      }
    }
    return inner_->Handle(type, body);
  }

  std::vector<UploadedChunk> chunks;
  std::vector<Bytes> bodies;
  // The first upload batch that starts at this chunk fails without reaching
  // the engine.
  uint64_t fail_once_at = ~uint64_t{0};

 private:
  std::shared_ptr<net::RequestHandler> inner_;
};

/// An engine behind an UploadRecorder, and a HEAC + zlib stream config.
class OwnerSealTest : public ::testing::Test {
 protected:
  OwnerSealTest() {
    config.name = "seal/test";
    config.t0 = 0;
    config.delta_ms = 1000;
    config.schema.with_sumsq = true;
    config.cipher = net::CipherKind::kHeac;
    config.compression = static_cast<uint8_t>(chunk::Compression::kZlib);
  }

  std::shared_ptr<UploadRecorder> recorder = std::make_shared<UploadRecorder>(
      std::make_shared<server::ServerEngine>(
          std::make_shared<store::MemKvStore>(), server::ServerOptions{}));
  std::shared_ptr<net::InProcTransport> transport =
      std::make_shared<net::InProcTransport>(recorder);
  net::StreamConfig config;
};

/// Upload batch size and points per chunk: 50-point chunks deflate, 10-point
/// chunks are stored raw (their bodies are under kMinDeflateBody).
struct SealShape {
  uint64_t batch_chunks;
  int64_t points;
};

class OwnerSealShapes : public OwnerSealTest,
                        public ::testing::WithParamInterface<SealShape> {};

TEST_P(OwnerSealShapes, UploadsMatchTheReferenceCipherAndCompress2) {
  const SealShape shape = GetParam();
  std::map<uint64_t, std::vector<index::DataPoint>> points;
  auto ingest = [&](OwnerClient& owner, uint64_t uuid, uint64_t chunk) {
    for (int64_t i = 0; i < shape.points; ++i) {
      index::DataPoint p{static_cast<int64_t>(chunk) * 1000 + i * 20,
                         static_cast<int64_t>(chunk) * 3 + i % 7};
      points[chunk].push_back(p);
      ASSERT_TRUE(owner.InsertRecord(uuid, p).ok());
    }
  };

  // Chunks 5-7 and 12-13 are gap fillers (digest only); chunks 10 onward
  // come from a producer that re-attached with the exported seed.
  OwnerOptions options;
  options.upload_batch_chunks = shape.batch_chunks;
  OwnerClient owner(transport, options);
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  for (uint64_t c : {0, 1, 2, 3, 4, 8, 9}) ingest(owner, *uuid, c);
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  crypto::Key128 master = (*owner.KeysFor(*uuid))->master_seed();

  OwnerClient resumed(transport, options);
  ASSERT_TRUE(resumed.AttachStream(*uuid, master).ok());
  for (uint64_t c : {10, 11, 14}) ingest(resumed, *uuid, c);
  ASSERT_TRUE(resumed.Flush(*uuid).ok());

  StreamKeys reference(master);
  auto cipher = index::MakeHeacCipher(config.schema.num_fields(),
                                      reference.shared_tree());
  ASSERT_EQ(recorder->chunks.size(), 15u);
  for (uint64_t i = 0; i < recorder->chunks.size(); ++i) {
    const auto& uploaded = recorder->chunks[i];
    ASSERT_EQ(uploaded.chunk_index, i);
    const std::vector<index::DataPoint>& pts = points[i];
    EXPECT_EQ(uploaded.digest_blob,
              *cipher->Encrypt(config.schema.Compute(pts), i))
        << "chunk " << i;
    if (pts.empty()) {
      EXPECT_TRUE(uploaded.payload.empty()) << "chunk " << i;
      continue;
    }
    crypto::Key128 key =
        crypto::ChunkPayloadKey(*reference.tree().DeriveLeaf(i),
                                *reference.tree().DeriveLeaf(i + 1));
    auto plain = crypto::GcmOpen(key, uploaded.payload, chunk::ChunkAad(i));
    ASSERT_TRUE(plain.ok()) << "chunk " << i;
    EXPECT_EQ(*chunk::DecompressPoints(*plain), pts);
    // Format byte, codec byte, then the raw body or exactly the stream
    // compress2 makes of it.
    ASSERT_GT(plain->size(), 2u);
    const bool deflated = shape.points > 10;
    const auto codec =
        deflated ? chunk::Compression::kZlib : chunk::Compression::kNone;
    ASSERT_EQ((*plain)[1], static_cast<uint8_t>(codec));
    BytesView stored = BytesView(*plain).subspan(2);
    if (!deflated) {
      auto raw = chunk::CompressPoints(pts, chunk::Compression::kNone);
      ASSERT_TRUE(raw.ok());
      EXPECT_EQ(*plain, *raw) << "chunk " << i;
      continue;
    }
    auto body = chunk::ZlibInflate(stored);
    ASSERT_TRUE(body.ok());
    uLongf len = compressBound(static_cast<uLong>(body->size()));
    Bytes expected(len);
    ASSERT_EQ(compress2(expected.data(), &len, body->data(),
                        static_cast<uLong>(body->size()),
                        Z_DEFAULT_COMPRESSION),
              Z_OK);
    expected.resize(len);
    EXPECT_EQ(Bytes(stored.begin(), stored.end()), expected)
        << "chunk " << i;
  }
  // Every body is exactly the codec's encoding of the chunks it carries.
  for (const Bytes& body : recorder->bodies) {
    auto req = net::InsertChunkBatchRequest::Decode(body);
    ASSERT_TRUE(req.ok());
    EXPECT_LE(req->entries.size(), std::max<uint64_t>(shape.batch_chunks, 1));
    EXPECT_EQ(req->Encode(), body);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OwnerSealShapes,
    ::testing::Values(SealShape{1, 50}, SealShape{4, 50}, SealShape{256, 50},
                      SealShape{1, 10}, SealShape{4, 10}, SealShape{256, 10}),
    [](const auto& info) {
      return "batch" + std::to_string(info.param.batch_chunks) + "_points" +
             std::to_string(info.param.points);
    });

TEST_F(OwnerSealTest, BatchedBodyIsTheCodecEncodingOfItsEntries) {
  // A three-chunk HEAC batch from a producer with a fixed master seed: the
  // body on the wire is byte for byte codec::Encode of the entries it
  // carries, and the digests are the reference cipher's.
  OwnerClient creator(transport);
  auto uuid = creator.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  crypto::Key128 master;
  for (size_t i = 0; i < sizeof(master); ++i) {
    master.secret_bytes()[i] = static_cast<uint8_t>(0xa0 + i);
  }
  OwnerOptions options;
  options.upload_batch_chunks = 3;
  OwnerClient owner(transport, options);
  ASSERT_TRUE(owner.AttachStream(*uuid, master).ok());
  std::map<uint64_t, std::vector<index::DataPoint>> points;
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t i = 0; i < 1 + c; ++i) {
      index::DataPoint p{c * 1000 + i * 100, c * 11 - i};
      if (c < 3) points[static_cast<uint64_t>(c)].push_back(p);
      ASSERT_TRUE(owner.InsertRecord(*uuid, p).ok());
    }
  }
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  ASSERT_EQ(recorder->bodies.size(), 2u);
  const Bytes& body = recorder->bodies.front();

  StreamKeys reference(master);
  auto cipher = index::MakeHeacCipher(config.schema.num_fields(),
                                      reference.shared_tree());
  net::InsertChunkBatchRequest expected;
  expected.uuid = *uuid;
  std::vector<Bytes> digests;
  for (uint64_t i = 0; i < 3; ++i) {
    digests.push_back(*cipher->Encrypt(config.schema.Compute(points[i]), i));
  }
  for (uint64_t i = 0; i < 3; ++i) {
    const UploadedChunk& uploaded = recorder->chunks[i];
    ASSERT_EQ(uploaded.chunk_index, i);
    EXPECT_EQ(uploaded.digest_blob, digests[i]) << "chunk " << i;
    expected.entries.push_back({i, digests[i], uploaded.payload});
  }
  EXPECT_EQ(ToHex(net::codec::Encode(expected)), ToHex(body));
}

// The pin holds on both kernel arms: the AES-NI, SHA-NI and native GCM
// kernels, and the bitsliced software AES, portable SHA-256 and portable
// GCM.
class OwnerSealPins : public test::KernelArms, public OwnerSealTest {};
TC_INSTANTIATE_KERNEL_ARMS(OwnerSealPins);

TEST_P(OwnerSealPins, DigestBlobsArePinned) {
  // The first 130 chunks of a 19-field HEAC vitals stream from a fixed
  // master seed, ten points each: a SHA-256 over every chunk's digest blob
  // and payload key. The walk crosses the iterator's 2^k boundaries up to
  // 128, and the blobs depend on every leaf's field keys.
  constexpr uint64_t kChunks = 130;
  config.schema = workload::MHealthGenerator::VitalsSchema();
  ASSERT_EQ(config.schema.num_fields(), 19u);
  OwnerClient creator(transport);
  auto uuid = creator.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  crypto::Key128 master;
  for (size_t i = 0; i < sizeof(master); ++i) {
    master.secret_bytes()[i] = static_cast<uint8_t>(0x5a ^ (13 * i));
  }
  OwnerOptions options;
  options.upload_batch_chunks = 16;
  OwnerClient owner(transport, options);
  ASSERT_TRUE(owner.AttachStream(*uuid, master).ok());
  for (uint64_t c = 0; c < kChunks; ++c) {
    for (int64_t i = 0; i < 10; ++i) {
      const auto n = static_cast<int64_t>(c) * 10 + i;
      index::DataPoint p{n * 100, 60 + (n * 37) % 90};
      ASSERT_TRUE(owner.InsertRecord(*uuid, p).ok());
    }
  }
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  ASSERT_EQ(recorder->chunks.size(), kChunks);

  StreamKeys keys(master);
  Bytes pinned;
  for (uint64_t i = 0; i < kChunks; ++i) {
    const UploadedChunk& uploaded = recorder->chunks[i];
    ASSERT_EQ(uploaded.chunk_index, i);
    ASSERT_EQ(uploaded.digest_blob.size(), 19 * sizeof(uint64_t));
    Append(pinned, uploaded.digest_blob);
    Append(pinned, keys.PayloadKey(i).secret_bytes());
  }
  EXPECT_EQ(ToHex(crypto::Sha256(pinned)),
            "0087b57dfbdf18b4ab72566d6d3d307b114af8c815b9ab65ae63bd373f53c378");
}

class OwnerSealBatches : public OwnerSealTest,
                         public ::testing::WithParamInterface<uint64_t> {};

TEST_P(OwnerSealBatches, CarriedFieldKeysMatchFreshLeavesOverALongStream) {
  // The owner seals chunks in groups of up to four and carries the last
  // leaf's HEAC field keys into the next group. Every digest must still
  // equal one encrypted under leaves derived afresh: across gap fillers, a
  // failed upload that is re-sent, and a producer that re-attaches
  // mid-stream, with one-chunk uploads, batches of three (groups cut short
  // by every batch) and batches of sixteen.
  const uint64_t batch = GetParam();
  constexpr uint64_t kChunks = 1000;
  constexpr uint64_t kAttachAt = 500;
  recorder->fail_once_at = 123 / batch * batch;  // a batch's first chunk
  auto is_gap = [](uint64_t c) { return c % 37 == 5 || c % 101 == 50; };
  std::map<uint64_t, std::vector<index::DataPoint>> points;
  auto ingest = [&](OwnerClient& owner, uint64_t uuid, uint64_t first,
                    uint64_t last) {
    for (uint64_t c = first; c < last; ++c) {
      if (is_gap(c)) continue;
      for (int64_t i = 0; i < 2; ++i) {
        index::DataPoint p{static_cast<int64_t>(c) * 1000 + i * 400,
                           static_cast<int64_t>(c * 7 + i)};
        Status st = owner.InsertRecord(uuid, p);
        if (!st.ok()) st = owner.InsertRecord(uuid, p);  // the injected one
        ASSERT_TRUE(st.ok()) << "chunk " << c << ": " << st.ToString();
        points[c].push_back(p);
      }
    }
  };

  OwnerOptions batched;
  batched.upload_batch_chunks = batch;
  OwnerClient owner(transport, batched);
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  ingest(owner, *uuid, 0, kAttachAt);
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  crypto::Key128 master = (*owner.KeysFor(*uuid))->master_seed();

  OwnerClient resumed(transport, batched);
  ASSERT_TRUE(resumed.AttachStream(*uuid, master).ok());
  ingest(resumed, *uuid, kAttachAt, kChunks);
  ASSERT_TRUE(resumed.Flush(*uuid).ok());
  ASSERT_EQ(recorder->fail_once_at, ~uint64_t{0}) << "no upload failed";

  const size_t num_fields = config.schema.num_fields();
  StreamKeys keys(master);
  const crypto::GgmTree& reference = keys.tree();
  ASSERT_EQ(recorder->chunks.size(), kChunks);
  for (uint64_t i = 0; i < kChunks; ++i) {
    const auto& uploaded = recorder->chunks[i];
    ASSERT_EQ(uploaded.chunk_index, i);
    EXPECT_EQ(uploaded.payload.empty(), is_gap(i)) << "chunk " << i;
    Bytes expected(num_fields * sizeof(uint64_t));
    crypto::HeacCodec(num_fields)
        .EncryptTo(config.schema.Compute(points[i]),
                   crypto::FieldKeys(*reference.DeriveLeaf(i), num_fields),
                   crypto::FieldKeys(*reference.DeriveLeaf(i + 1), num_fields),
                   expected.data());
    ASSERT_EQ(uploaded.digest_blob, expected) << "chunk " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, OwnerSealBatches,
                         ::testing::Values(1, 3, 16),
                         [](const auto& info) {
                           return "batch" + std::to_string(info.param);
                         });

TEST_F(OwnerSealTest, AttestAfterAPartialGroupCoversEverySealedChunk) {
  // Integrity streams whose chunk counts (seeded) leave one to three chunks
  // in the pending group: Attest seals and sends them first, so its head
  // covers every chunk the owner closed, and the server holds exactly
  // those. The root equals one rebuilt from the uploaded bytes, and a
  // second round of chunks continues the same witness tree.
  config.integrity = true;
  OwnerOptions options;
  options.upload_batch_chunks = 16;
  OwnerClient owner(transport, options);
  crypto::DeterministicRng rng(38);
  for (int stream = 0; stream < 4; ++stream) {
    auto uuid = owner.CreateStream(config);
    ASSERT_TRUE(uuid.ok());
    const size_t uploaded_before = recorder->chunks.size();
    integrity::StreamAttestor rebuilt(*uuid, crypto::GenerateSigningKeyPair());
    uint64_t closed = 0;
    for (int round = 0; round < 2; ++round) {
      // Chunks [closed, closed + n) close, n never a multiple of four, and
      // chunk closed + n stays open (round 0 opens chunk 0 first).
      const uint64_t n = 4 * rng.NextBelow(6) + 1 + rng.NextBelow(3);
      for (uint64_t c = round == 0 ? 0 : closed + 1; c <= closed + n; ++c) {
        const auto points = 1 + static_cast<int64_t>(rng.NextBelow(12));
        for (int64_t i = 0; i < points; ++i) {
          index::DataPoint p{static_cast<int64_t>(c) * 1000 + i * 50,
                             static_cast<int64_t>(rng.NextBelow(200))};
          ASSERT_TRUE(owner.InsertRecord(*uuid, p).ok());
        }
      }
      closed += n;
      auto att = owner.Attest(*uuid);
      ASSERT_TRUE(att.ok()) << att.status().ToString();
      ASSERT_EQ(att->size, closed) << "stream " << stream;
      EXPECT_TRUE(att->Verify(owner.signing_public()).ok());
      ASSERT_EQ(recorder->chunks.size() - uploaded_before, closed);
      for (uint64_t i = rebuilt.size(); i < closed; ++i) {
        const UploadedChunk& c = recorder->chunks[uploaded_before + i];
        ASSERT_EQ(c.chunk_index, i);
        ASSERT_TRUE(rebuilt.Add(i, c.digest_blob, c.payload).ok());
      }
      auto head = rebuilt.Attest();
      ASSERT_TRUE(head.ok());
      EXPECT_EQ(head->root, att->root) << "stream " << stream;
    }
  }
}

TEST_F(OwnerSealTest, SealRefusesChunksPastTheLastLeaf) {
  // A height-4 key tree has 16 leaves and chunk i needs leaves i and i+1:
  // chunks 0-14 seal, and chunk 15 is refused before any key is derived,
  // in every build type (the key path's range assert is debug-only).
  OwnerOptions options;
  options.keys.tree_height = 4;
  OwnerClient owner(transport, options);
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  for (int64_t c = 0; c <= 15; ++c) {
    ASSERT_TRUE(owner.InsertRecord(*uuid, {c * 1000, c}).ok()) << c;
  }
  Status refused = owner.Flush(*uuid);
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange) << refused.ToString();
  ASSERT_EQ(recorder->chunks.size(), 15u);
  EXPECT_EQ(recorder->chunks.back().chunk_index, 14u);
}

TEST_F(OwnerSealTest, RefusedSealStillSendsTheBatchBeforeIt) {
  // The same refusal in a 16-chunk batch: chunks 0-14 wait in the open
  // batch when chunk 15 is refused. Each Flush reports the refusal, and the
  // chunks before it still reach the server, once.
  OwnerOptions options;
  options.keys.tree_height = 4;
  options.upload_batch_chunks = 16;
  OwnerClient owner(transport, options);
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  for (int64_t c = 0; c <= 15; ++c) {
    ASSERT_TRUE(owner.InsertRecord(*uuid, {c * 1000, c}).ok()) << c;
  }
  for (int flush = 0; flush < 2; ++flush) {
    Status refused = owner.Flush(*uuid);
    EXPECT_EQ(refused.code(), StatusCode::kOutOfRange)
        << "flush " << flush << ": " << refused.ToString();
  }
  ASSERT_EQ(recorder->chunks.size(), 15u);
  for (uint64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(recorder->chunks[i].chunk_index, i);
  }
}

TEST_F(OwnerSealTest, StrawmanCreateStreamSurfacesTheServersRefusal) {
  // Cipher kind 2 (the paper's Paillier strawman) is reserved: the server
  // hosts HEAC and plaintext streams only, whatever key bytes come along.
  config.cipher = static_cast<net::CipherKind>(2);
  config.cipher_public = ToBytes("modulus");
  OwnerClient owner(transport);
  auto uuid = owner.CreateStream(config);
  EXPECT_EQ(uuid.status().code(), StatusCode::kInvalidArgument)
      << uuid.status().ToString();
  EXPECT_TRUE(recorder->bodies.empty());
}

/// Passes every request to the engine, but reports every stream's cipher
/// as kind 3 (EC-ElGamal) in GetStreamInfo.
class StrawmanInfoHandler final : public net::RequestHandler {
 public:
  explicit StrawmanInfoHandler(std::shared_ptr<net::RequestHandler> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    TC_ASSIGN_OR_RETURN(Bytes resp, inner_->Handle(type, body));
    if (type != net::MessageType::kGetStreamInfo) return resp;
    TC_ASSIGN_OR_RETURN(auto info, net::StreamInfoResponse::Decode(resp));
    info.config.cipher = static_cast<net::CipherKind>(3);
    return info.Encode();
  }

 private:
  std::shared_ptr<net::RequestHandler> inner_;
};

TEST_F(OwnerSealTest, EcElGamalIngestIsUnimplementedAndSendsNothing) {
  // AttachStream trusts the server's config, so the owner refuses a
  // strawman stream itself: the record that closes the first chunk is
  // refused, and no chunk reaches the server.
  OwnerClient creator(transport);
  auto uuid = creator.CreateStream(config);
  ASSERT_TRUE(uuid.ok()) << uuid.status().ToString();
  OwnerClient owner(std::make_shared<net::InProcTransport>(
      std::make_shared<StrawmanInfoHandler>(recorder)));
  ASSERT_TRUE(owner.AttachStream(*uuid, crypto::RandomKey128()).ok());
  ASSERT_TRUE(owner.InsertRecord(*uuid, {0, 1}).ok());
  Status refused = owner.InsertRecord(*uuid, {config.delta_ms, 2});
  EXPECT_EQ(refused.code(), StatusCode::kUnimplemented) << refused.ToString();
  EXPECT_EQ(owner.Flush(*uuid).code(), StatusCode::kUnimplemented);

  net::StreamInfoRequest req{*uuid};
  auto info_blob =
      transport->Call(net::MessageType::kGetStreamInfo, req.Encode());
  ASSERT_TRUE(info_blob.ok()) << info_blob.status().ToString();
  auto info = net::StreamInfoResponse::Decode(*info_blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_chunks, 0u);
  EXPECT_TRUE(recorder->chunks.empty());
}

TEST_F(OwnerSealTest, VerifiedStatRangeOnAPlainStreamIsUnimplemented) {
  config.cipher = net::CipherKind::kPlain;
  config.integrity = true;
  OwnerClient owner(transport);
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok()) << uuid.status().ToString();
  ASSERT_TRUE(owner.InsertRecord(*uuid, {0, 1}).ok());
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  auto verified = owner.GetVerifiedStatRange(*uuid, {0, config.delta_ms});
  EXPECT_EQ(verified.status().code(), StatusCode::kUnimplemented)
      << verified.status().ToString();
}

/// Answers GetStatRange over chunks [0, 2^40), past the end of any key tree,
/// and passes every other request to the engine.
class FarRangeHandler final : public net::RequestHandler {
 public:
  explicit FarRangeHandler(std::shared_ptr<net::RequestHandler> inner)
      : inner_(std::move(inner)) {}

  Result<Bytes> Handle(net::MessageType type, BytesView body) override {
    if (type != net::MessageType::kGetStatRange) {
      return inner_->Handle(type, body);
    }
    net::StatRangeResponse resp;
    resp.last_chunk = uint64_t{1} << 40;
    resp.aggregate_blob = Bytes(blob_size, 0);
    return resp.Encode();
  }

  size_t blob_size = 0;

 private:
  std::shared_ptr<net::RequestHandler> inner_;
};

TEST_F(OwnerSealTest, ServerChunkPastTheKeystreamIsAnError) {
  auto handler = std::make_shared<FarRangeHandler>(recorder);
  handler->blob_size = config.schema.num_fields() * sizeof(uint64_t);
  OwnerClient owner(std::make_shared<net::InProcTransport>(handler));
  auto uuid = owner.CreateStream(config);
  ASSERT_TRUE(uuid.ok());
  ASSERT_TRUE(owner.InsertRecord(*uuid, {0, 1}).ok());
  ASSERT_TRUE(owner.Flush(*uuid).ok());
  auto stats = owner.GetStatRange(*uuid, {0, 1000});
  EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange)
      << stats.status().ToString();
}

}  // namespace
}  // namespace tc::client
