// An owner and a consumer never initialize OpenSSL's libcrypto: the owner
// creates a HEAC stream, ingests, queries, reads raw points, rolls up and
// issues a full-resolution and a resolution grant, and the consumer fetches
// its grants and queries, with native SHA-256, HMAC, HKDF, AES-GCM, X25519
// and getrandom(2). Nor does the server when a client asks it for a stream
// of a strawman cipher kind: it refuses before it reads the key bytes. In
// the product, libcrypto serves only Ed25519 (stream attestations) and
// AES-GCM on CPUs without AES-NI; the strawman ciphers are bench-only.
//
// The executable defines OPENSSL_init_crypto, which every libcrypto entry
// point that needs its library context calls first. The dynamic linker
// binds libcrypto's own calls to this definition, which counts the call and
// forwards it to libcrypto's. The suite has its own binary so that no other
// test can have started OpenSSL before this one looks.
#include <dlfcn.h>
#include <gtest/gtest.h>
#include <openssl/crypto.h>

#include <atomic>
#include <memory>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sealed_box.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"

namespace {

std::atomic<int> init_calls{0};

}  // namespace

extern "C" int OPENSSL_init_crypto(uint64_t opts,
                                   const OPENSSL_INIT_SETTINGS* settings) {
  init_calls.fetch_add(1, std::memory_order_relaxed);
  using InitFn = int (*)(uint64_t, const OPENSSL_INIT_SETTINGS*);
  static const auto real =
      reinterpret_cast<InitFn>(dlsym(RTLD_NEXT, "OPENSSL_init_crypto"));
  return real != nullptr ? real(opts, settings) : 0;
}

namespace tc::client {
namespace {

constexpr uint64_t kDelta = 1000;

// Defined first, so it runs before the other test's positive control has
// started libcrypto.
TEST(LibcryptoGuard, ServerRefusesStrawmanStreamsWithoutLibcrypto) {
  const int before = init_calls.load();
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
  EXPECT_EQ(init_calls.load(), before);
}

TEST(LibcryptoGuard, OwnerAndConsumerPathsNeverInitializeLibcrypto) {
  if (!crypto::GcmIsNative()) {
    GTEST_SKIP() << "AES-GCM runs on OpenSSL's EVP path on this CPU";
  }
  auto server = std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>());
  auto transport = std::make_shared<net::InProcTransport>(server);
  OwnerClient owner(transport);

  net::StreamConfig config;
  config.name = "guard/stream";
  config.delta_ms = kDelta;
  config.cipher = net::CipherKind::kHeac;
  auto uuid = owner.CreateStream(config);
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

  EXPECT_EQ(init_calls.load(), 0);

  // Positive control: a public-key operation must register, or the probe
  // itself has stopped working and the check above proves nothing.
  const crypto::SigningKeyPair pair = crypto::GenerateSigningKeyPair();
  EXPECT_FALSE(pair.public_key.empty());
  EXPECT_GT(init_calls.load(), 0);
}

}  // namespace
}  // namespace tc::client
