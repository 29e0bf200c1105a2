// TimeCrypt runs without OpenSSL's libcrypto. This binary links only
// timecrypt_core, and after an owner and a consumer have used every
// primitive of the product it checks, by walking the loaded objects with
// dl_iterate_phdr, that no libcrypto is in the process: nothing linked one
// in and nothing loaded one since. The owner creates an integrity stream,
// ingests, queries, reads raw points, rolls up, attests (Ed25519) and
// issues a full-resolution and a resolution grant (X25519, HKDF, AES-GCM);
// the consumer fetches its grants and runs plain and verified queries. The
// walk runs on every kernel arm (tests/kernel_arms.hpp), so the portable
// AES, GCM and SHA-256 are covered as well as the native ones. The server
// refuses a stream of a strawman cipher kind before it reads the key bytes.
//
// The `no_libcrypto_linked` CTest entry checks the same for tcserver and
// tccli from the other side: their dynamic sections need no libcrypto.
#include <gtest/gtest.h>
#include <link.h>

#include <memory>
#include <string>
#include <vector>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "crypto/sealed_box.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "tests/kernel_arms.hpp"
#include "tests/support/helpers.hpp"

namespace tc::client {
namespace {

using testing::kDelta;

/// The file names of the objects loaded into this process.
std::vector<std::string> LoadedObjects() {
  std::vector<std::string> names;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* out) {
        if (info->dlpi_name != nullptr && info->dlpi_name[0] != '\0') {
          static_cast<std::vector<std::string>*>(out)->push_back(
              info->dlpi_name);
        }
        return 0;
      },
      &names);
  return names;
}

bool Loaded(const std::string& library) {
  for (const std::string& name : LoadedObjects()) {
    if (name.find(library) != std::string::npos) return true;
  }
  return false;
}

TEST(LibcryptoGuard, ServerRefusesStrawmanStreams) {
  server::ServerEngine engine(std::make_shared<store::MemKvStore>());
  // Kind 2 (Paillier) with arbitrary bytes, kind 3 (EC-ElGamal) with the
  // compressed P-256 generator, a well-formed public point.
  const std::pair<uint8_t, Bytes> requests[] = {
      {2, ToBytes("arbitrary modulus bytes")},
      {3, *FromHex("036b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945"
                   "d898c296")}};
  for (const auto& [kind, key] : requests) {
    net::StreamConfig config;
    config.name = "guard/strawman";
    config.delta_ms = kDelta;
    config.cipher = static_cast<net::CipherKind>(kind);
    config.cipher_public = key;
    net::CreateStreamRequest create{kind, config};
    auto created = engine.Handle(net::MessageType::kCreateStream,
                                 create.Encode());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << created.status().ToString();
  }
  EXPECT_EQ(engine.NumStreams(), 0u);
  EXPECT_FALSE(Loaded("libcrypto"));
}

class LibcryptoGuardPaths : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(LibcryptoGuardPaths);

TEST_P(LibcryptoGuardPaths, OwnerAndConsumerRunWithoutLibcrypto) {
  // Positive control: the walk sees the objects the binary does link.
  ASSERT_TRUE(Loaded("libz")) << "dl_iterate_phdr saw no libz";

  auto transport = testing::ServeInProc();
  OwnerClient owner(transport);

  auto uuid = owner.CreateStream(
      testing::HeacConfig("guard/stream", /*integrity=*/true));
  ASSERT_TRUE(uuid.ok()) << uuid.status().ToString();
  for (int i = 0; i < 40; ++i) {
    const auto ts = static_cast<Timestamp>(i * kDelta / 4);
    ASSERT_TRUE(owner.InsertRecord(*uuid, {ts, i}).ok());
  }
  ASSERT_TRUE(owner.Flush(*uuid).ok());

  auto stats = owner.GetStatRange(*uuid, {0, 10 * kDelta});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.Sum().value(), 39 * 40 / 2);
  EXPECT_EQ(stats->stats.Count().value(), 40u);
  auto points = owner.GetRange(*uuid, {0, 10 * kDelta});
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points->size(), 40u);
  auto rollup = owner.RollupStream(*uuid, 5);
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  auto rolled = owner.GetStatRange(*rollup, {0, 10 * kDelta});
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled->stats.Sum().value(), 39 * 40 / 2);

  // Attestation: an Ed25519 signature over the stream head.
  auto attestation = owner.Attest(*uuid);
  ASSERT_TRUE(attestation.ok()) << attestation.status().ToString();
  EXPECT_TRUE(attestation->Verify(owner.signing_public()).ok());

  // Grants: sealed to each principal's X25519 key, opened by the consumer.
  const Principal full{"guard/full", crypto::GenerateBoxKeyPair()};
  const Principal coarse{"guard/coarse", crypto::GenerateBoxKeyPair()};
  ASSERT_TRUE(owner
                  .GrantAccess(*uuid, full.id, full.keys.public_key,
                               {0, 10 * kDelta})
                  .ok());
  ASSERT_TRUE(owner
                  .GrantAccess(*uuid, coarse.id, coarse.keys.public_key,
                               {0, 10 * kDelta}, /*resolution_chunks=*/5)
                  .ok());
  for (const Principal* principal : {&full, &coarse}) {
    ConsumerClient consumer(transport, *principal);
    auto grants = consumer.FetchGrants();
    ASSERT_TRUE(grants.ok()) << grants.status().ToString();
    EXPECT_EQ(*grants, 1) << principal->id;
    auto window = consumer.GetStatRange(*uuid, {5 * kDelta, 10 * kDelta});
    ASSERT_TRUE(window.ok()) << principal->id << ": "
                             << window.status().ToString();
    EXPECT_EQ(window->stats.Sum().value(), (20 + 39) * 20 / 2);
  }
  ConsumerClient consumer(transport, full);
  ASSERT_TRUE(consumer.FetchGrants().ok());
  auto verified = consumer.GetVerifiedStatRange(*uuid, {0, 10 * kDelta},
                                                owner.signing_public());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->stats.Sum().value(), 39 * 40 / 2);

  for (const std::string& name : LoadedObjects()) {
    EXPECT_EQ(name.find("libcrypto"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace tc::client
