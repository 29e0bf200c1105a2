// Restart durability tests: both sides of the deployment must survive a
// process restart when state lives in a durable store — the server rebuilds
// its stream registry, index positions, and witness trees from the KV; the
// producer re-attaches with its exported master seed and keeps ingesting
// the *same* keystream (decryption across the restart boundary must
// telescope seamlessly). Recovery of streams, grants and witnesses under a
// seeded workload, sharded too, is tests/scenario_test.cpp.
#include <gtest/gtest.h>

#include <map>

#include "client/owner.hpp"
#include "common/logging.hpp"
#include "server/server_engine.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"
#include "tests/support/helpers.hpp"
#include "tests/temp_logs.hpp"

namespace tc {
namespace {

using client::OwnerClient;
using testing::IngestChunks;
using testing::kDelta;
using testing::OracleSum;

net::StreamConfig RestartConfig() {
  return testing::HeacConfig("restart/stream");
}

TEST(Restart, WitnessTreeRebuiltForIntegrityStreams) {
  testing::TempLogs logs;
  uint64_t uuid = 0;
  Bytes signing_public;
  Bytes attestation_blob;

  {
    auto transport = testing::ServeInProc(logs.Open("log"));
    OwnerClient owner(transport);
    auto created = owner.CreateStream(
        testing::HeacConfig("restart/stream", /*integrity=*/true));
    ASSERT_TRUE(created.ok());
    uuid = *created;
    ASSERT_TRUE(IngestChunks(owner, uuid, 0, 9).ok());
    auto att = owner.Attest(uuid);
    ASSERT_TRUE(att.ok());
    signing_public = owner.signing_public();
    attestation_blob = att->Encode();
  }

  // The recovered engine recomputes the witness tree from stored
  // ciphertexts; proofs against the pre-restart attestation must verify.
  auto transport = testing::ServeInProc(logs.Open("log"));

  auto attestation = integrity::Attestation::Decode(attestation_blob);
  ASSERT_TRUE(attestation.ok());
  net::GetChunkWitnessedRequest req{uuid, 0, 9, attestation->size};
  auto resp_blob = transport->Call(net::MessageType::kGetChunkWitnessed,
                                   req.Encode());
  ASSERT_TRUE(resp_blob.ok()) << resp_blob.status().ToString();
  auto resp = net::GetChunkWitnessedResponse::Decode(*resp_blob);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->entries.size(), 9u);
  for (const auto& e : resp->entries) {
    BinaryReader pr(e.proof);
    auto proof = integrity::DecodeAuditPath(pr);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(integrity::VerifyChunk(*attestation, signing_public,
                                       e.chunk_index, e.digest_blob,
                                       e.payload, *proof)
                    .ok())
        << "chunk " << e.chunk_index;
  }
}

TEST(Restart, ReattachedProducerCanStillAttest) {
  // A producer restarting must rebuild its witness history (proof-less
  // bulk read, cross-checked against its previous attestation) so that
  // new attestations keep covering the whole stream.
  testing::TempLogs logs;
  uint64_t uuid = 0;
  crypto::Key128 seed{};
  crypto::SigningKeyPair signing = crypto::GenerateSigningKeyPair();

  {
    auto transport = testing::ServeInProc(logs.Open("log"));
    client::OwnerOptions options;
    options.signing = signing;
    OwnerClient owner(transport, options);
    auto created = owner.CreateStream(
        testing::HeacConfig("restart/stream", /*integrity=*/true));
    ASSERT_TRUE(created.ok());
    uuid = *created;
    ASSERT_TRUE(IngestChunks(owner, uuid, 0, 7).ok());
    ASSERT_TRUE(owner.Attest(uuid).ok());
    seed = owner.KeysFor(uuid).value()->master_seed();
  }

  auto transport = testing::ServeInProc(logs.Open("log"));
  client::OwnerOptions options;
  options.signing = signing;  // the SAME long-term identity
  OwnerClient owner(transport, options);
  ASSERT_TRUE(owner.AttachStream(uuid, seed).ok());

  // Ingest more, attest again: the new attestation covers old + new.
  ASSERT_TRUE(IngestChunks(owner, uuid, 7, 5).ok());
  auto att = owner.Attest(uuid);
  ASSERT_TRUE(att.ok()) << att.status().ToString();
  EXPECT_EQ(att->size, 12u);

  // And the verified read path works over the restart boundary.
  auto verified = owner.GetVerifiedStatRange(uuid, {0, 12 * kDelta});
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->stats.Sum().value(), OracleSum(0, 12));
}

TEST(Restart, ReattachRejectsTamperedWitnessHistory) {
  // If the server's stored ciphertexts contradict the owner's previous
  // attestation, AttachStream must refuse instead of signing a bogus head.
  auto kv = std::make_shared<store::MemKvStore>();
  auto server = std::make_shared<server::ServerEngine>(kv);
  auto transport = std::make_shared<net::InProcTransport>(server);
  crypto::SigningKeyPair signing = crypto::GenerateSigningKeyPair();
  client::OwnerOptions options;
  options.signing = signing;

  uint64_t uuid = 0;
  crypto::Key128 seed{};
  {
    OwnerClient owner(transport, options);
    auto created = owner.CreateStream(
        testing::HeacConfig("restart/stream", /*integrity=*/true));
    ASSERT_TRUE(created.ok());
    uuid = *created;
    ASSERT_TRUE(IngestChunks(owner, uuid, 0, 4).ok());
    ASSERT_TRUE(owner.Attest(uuid).ok());
    seed = owner.KeysFor(uuid).value()->master_seed();
  }

  // Tamper with a stored chunk payload (the server "loses" a byte).
  // Store keys are internal; flip via direct put on the known layout: the
  // payloads of chunks 0-63 are `varint length ‖ payload` entries in one
  // block. Flip a byte inside chunk 2's payload, not a length prefix.
  const std::string block_key = "pay/" + std::to_string(uuid) + "/0";
  auto block = kv->Get(block_key);
  ASSERT_TRUE(block.ok());
  Bytes tampered = *block;
  BinaryReader entries(tampered);
  for (int chunk = 0; chunk < 2; ++chunk) {
    auto length = entries.GetVar();
    ASSERT_TRUE(length.ok());
    ASSERT_TRUE(entries.GetRaw(*length).ok());
  }
  auto length = entries.GetVar();
  ASSERT_TRUE(length.ok());
  ASSERT_GT(*length, 0u);
  tampered[entries.position() + *length / 2] ^= 0x01;
  ASSERT_TRUE(kv->Put(block_key, tampered).ok());

  // Reattach on a FRESH engine (so the witness tree is rebuilt from the
  // tampered store rather than served from memory).
  auto server2 = std::make_shared<server::ServerEngine>(kv);
  auto transport2 = std::make_shared<net::InProcTransport>(server2);
  OwnerClient owner2(transport2, options);
  Status attach = owner2.AttachStream(uuid, seed);
  EXPECT_EQ(attach.code(), StatusCode::kPermissionDenied)
      << attach.ToString();
}

/// Why recovery cannot open a stored stream: its payloads in the old
/// layout, one key per chunk (chunk/<uuid>/<index>), or a stored config of
/// cipher kind 2 (the Paillier strawman, no longer served).
enum class Refusal { kOldPayloadLayout, kStrawmanCipher };

class RefusedStream : public ::testing::TestWithParam<Refusal> {};

TEST_P(RefusedStream, IsSkippedKeptInTheDirectoryAndServedOnceRepaired) {
  auto kv = std::make_shared<store::MemKvStore>();
  uint64_t uuid = 0;
  {
    auto server = std::make_shared<server::ServerEngine>(kv);
    OwnerClient owner(std::make_shared<net::InProcTransport>(server));
    auto created = owner.CreateStream(RestartConfig());
    ASSERT_TRUE(created.ok());
    uuid = *created;
    ASSERT_TRUE(IngestChunks(owner, uuid, 0, 3).ok());
  }
  const std::string layout_key = "chunk/" + std::to_string(uuid) + "/0";
  const std::string config_key = "meta/cfg/" + std::to_string(uuid);
  const auto stored_config = kv->Get(config_key);
  ASSERT_TRUE(stored_config.ok());
  if (GetParam() == Refusal::kOldPayloadLayout) {
    ASSERT_TRUE(kv->Put(layout_key, ToBytes("sealed")).ok());
  } else {
    auto config = net::codec::Decode<net::StreamConfig>(*stored_config);
    ASSERT_TRUE(config.ok());
    config->cipher = static_cast<net::CipherKind>(2);
    config->cipher_public = ToBytes("modulus");
    ASSERT_TRUE(kv->Put(config_key, net::codec::Encode(*config)).ok());
  }

  // Recovery skips the stream and logs why.
  SetLogLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  auto server = std::make_shared<server::ServerEngine>(kv);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(server->NumStreams(), 0u);
  const std::vector<std::string> reasons =
      GetParam() == Refusal::kOldPayloadLayout
          ? std::vector<std::string>{"DATA_LOSS", "chunk/<uuid>/<index>"}
          : std::vector<std::string>{"INVALID_ARGUMENT", "cipher kind 2"};
  for (const auto& why : reasons) {
    EXPECT_NE(log.find(why), std::string::npos) << log;
  }
  EXPECT_EQ(server->GetIndexForTesting(uuid).status().code(),
            StatusCode::kNotFound);

  // Creating another stream keeps the refused one in the stream directory,
  // and its uuid stays taken: a new stream there would sit on its index.
  OwnerClient owner(std::make_shared<net::InProcTransport>(server));
  auto other = owner.CreateStream(RestartConfig());
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  net::CreateStreamRequest reuse{uuid, RestartConfig()};
  EXPECT_EQ(server->Handle(net::MessageType::kCreateStream, reuse.Encode())
                .status()
                .code(),
            StatusCode::kAlreadyExists);

  // Repaired, the stream is served after a Refresh and after a restart.
  if (GetParam() == Refusal::kOldPayloadLayout) {
    ASSERT_TRUE(kv->Delete(layout_key).ok());
  } else {
    ASSERT_TRUE(kv->Put(config_key, *stored_config).ok());
  }
  ASSERT_TRUE(server->Refresh().ok());
  EXPECT_EQ(server->NumStreams(), 2u);
  auto restarted = std::make_shared<server::ServerEngine>(kv);
  EXPECT_EQ(restarted->NumStreams(), 2u);
  auto index = restarted->GetIndexForTesting(uuid);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_chunks(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Causes, RefusedStream,
                         ::testing::Values(Refusal::kOldPayloadLayout,
                                           Refusal::kStrawmanCipher),
                         [](const auto& info) {
                           return info.param == Refusal::kOldPayloadLayout
                                      ? "OldPayloadLayout"
                                      : "StrawmanCipher";
                         });

TEST(Restart, DeletedStreamsStayDeletedAfterRestart) {
  testing::TempLogs logs;
  uint64_t kept = 0, dropped = 0;
  {
    auto transport = testing::ServeInProc(logs.Open("log"));
    OwnerClient owner(transport);
    auto a = owner.CreateStream(RestartConfig());
    auto config_b = RestartConfig();
    config_b.name = "restart/other";
    auto b = owner.CreateStream(config_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    kept = *a;
    dropped = *b;
    ASSERT_TRUE(IngestChunks(owner, kept, 0, 3).ok());
    ASSERT_TRUE(owner.DeleteStream(dropped).ok());
  }

  std::shared_ptr<store::KvStore> kv = logs.Open("log");
  auto server = std::make_shared<server::ServerEngine>(kv);
  EXPECT_EQ(server->NumStreams(), 1u);
  EXPECT_TRUE(server->GetIndexForTesting(kept).ok());
  EXPECT_FALSE(server->GetIndexForTesting(dropped).ok());
}

TEST(Restart, AggTreeRecoverFindsExactAppendPosition) {
  // Sweep positions around fanout boundaries — the probe must find the
  // exact next index for complete and partial level-0 nodes alike.
  for (uint64_t chunks : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 64u, 65u}) {
    auto kv = std::make_shared<store::MemKvStore>();
    auto cipher = std::shared_ptr<const index::DigestCipher>(
        index::MakePlainCipher(1));
    index::AggTreeOptions opts{4, 1 << 20};
    {
      index::AggTree tree(kv, "t", cipher, opts);
      Bytes blob(8, 0);
      for (uint64_t i = 0; i < chunks; ++i) {
        blob[0] = static_cast<uint8_t>(i);
        ASSERT_TRUE(tree.Append(i, blob).ok());
      }
    }
    index::AggTree recovered(kv, "t", cipher, opts);
    ASSERT_TRUE(recovered.Recover().ok());
    EXPECT_EQ(recovered.num_chunks(), chunks) << "chunks=" << chunks;
    // Appending continues seamlessly.
    Bytes blob(8, 0xee);
    EXPECT_TRUE(recovered.Append(chunks, blob).ok());
  }
}

TEST(Restart, AggTreeOverLogStoreRecoversAppendedNodes) {
  // Fanout 64, 100 chunks: one complete level-0 node, a second node grown
  // to 36 entries by in-place appends, and a level-1 node holding the first
  // node's aggregate. The reopened tree must see exactly what was appended.
  testing::TempLogs logs;
  constexpr uint64_t kChunks = 100;
  auto cipher = std::shared_ptr<const index::DigestCipher>(
      index::MakePlainCipher(1));
  index::AggTreeOptions opts{64, 1 << 20};
  auto blob_of = [&](uint64_t i) {
    return *cipher->Encrypt(std::vector<uint64_t>{i * 7 + 3}, i);
  };
  std::map<std::pair<uint64_t, uint64_t>, Bytes> answers;
  {
    auto kv = logs.Open("log");
    index::AggTree tree(kv, "t", cipher, opts);
    for (uint64_t i = 0; i < kChunks; ++i) {
      ASSERT_TRUE(tree.Append(i, blob_of(i)).ok()) << i;
    }
    for (uint64_t a = 0; a < kChunks; ++a) {
      for (uint64_t b = a + 1; b <= kChunks; ++b) {
        answers[{a, b}] = *tree.Query(a, b);
      }
    }
    // Entries after a node's first one are appended, never rewritten.
    EXPECT_EQ(kv->Compaction().dead_bytes, 0u);
    ASSERT_TRUE(kv->Sync().ok());
  }
  std::shared_ptr<store::KvStore> kv = logs.Open("log");
  index::AggTree recovered(kv, "t", cipher, opts);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.num_chunks(), kChunks);
  for (const auto& [range, blob] : answers) {
    auto got = recovered.Query(range.first, range.second);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, blob) << "[" << range.first << "," << range.second << ")";
  }
  ASSERT_TRUE(recovered.Append(kChunks, blob_of(kChunks)).ok());
  uint64_t total = 0;
  for (uint64_t i = 0; i <= kChunks; ++i) total += i * 7 + 3;
  EXPECT_EQ((*cipher->Decrypt(*recovered.Query(0, kChunks + 1), 0,
                              kChunks + 1))[0],
            total);
}

}  // namespace
}  // namespace tc
