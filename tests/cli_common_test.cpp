// Tests for the CLI plumbing (tools/cli_common.hpp): flag parsing edge
// cases and the on-disk key-state files tccli depends on — corrupting or
// losing these means losing access to encrypted data, so they deserve the
// same rigor as the wire codecs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "tools/cli_common.hpp"

namespace tc::tools {
namespace {

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Flags, ParsesValuesBooleansAndPositionals) {
  std::vector<std::string> args = {"create", "--name",      "hr",
                                   "--sumsq", "--delta-ms", "5000"};
  auto argv = Argv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data(), {"sumsq"});

  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "create");
  EXPECT_EQ(flags.Get("name"), "hr");
  EXPECT_TRUE(flags.Has("sumsq"));
  EXPECT_EQ(flags.GetInt("delta-ms", 0), 5000);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.Get("missing", "fallback"), "fallback");
}

TEST(Flags, BooleanFlagDoesNotSwallowNextToken) {
  std::vector<std::string> args = {"--integrity", "create"};
  auto argv = Argv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data(), {"integrity"});
  EXPECT_TRUE(flags.Has("integrity"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "create");
}

TEST(Flags, TrailingValueFlagWithoutValueActsBoolean) {
  std::vector<std::string> args = {"--port"};
  auto argv = Argv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data(), {});
  EXPECT_TRUE(flags.Has("port"));
  EXPECT_EQ(flags.GetInt("port", 4433), 1);  // "1" sentinel parses as 1
}

TEST(Flags, Uint64FullRange) {
  std::vector<std::string> args = {"--uuid", "17834164730926769409"};
  auto argv = Argv(args);
  Flags flags(static_cast<int>(argv.size()), argv.data(), {});
  // Above INT64_MAX: GetInt would clamp, GetUint must not.
  EXPECT_EQ(flags.GetUint("uuid", 0), 17834164730926769409ull);
}

TEST(StreamStateFile, RoundTripsSeedAndConfig) {
  std::string dir = ::testing::TempDir() + "/cli_state_rt";
  std::filesystem::remove_all(dir);

  StreamState s;
  s.uuid = 0xfeedfacecafebeefull;
  s.master_seed = crypto::RandomKey128();
  s.config.name = "hr/device";
  s.config.delta_ms = 10'000;
  s.config.schema.with_sumsq = true;
  s.config.schema.hist_bins = 8;
  s.config.integrity = true;

  ASSERT_TRUE(SaveStreamState(dir, s).ok());
  auto back = LoadStreamState(dir, s.uuid);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->uuid, s.uuid);
  EXPECT_EQ(back->master_seed, s.master_seed);
  EXPECT_EQ(back->config, s.config);

  // Unknown stream: clean error.
  EXPECT_FALSE(LoadStreamState(dir, 12345).ok());
  std::filesystem::remove_all(dir);
}

TEST(IdentityFile, CreateOnceThenStable) {
  std::string dir = ::testing::TempDir() + "/cli_identity";
  std::filesystem::remove_all(dir);

  // Without create: clean error guiding the user to keygen.
  EXPECT_FALSE(LoadOrCreateIdentity(dir, /*create=*/false).ok());

  auto first = LoadOrCreateIdentity(dir, /*create=*/true);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->public_key.size(), crypto::kX25519KeySize);

  // Second load returns the SAME identity (stability is the whole point).
  auto second = LoadOrCreateIdentity(dir, /*create=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->public_key, first->public_key);
  EXPECT_EQ(second->secret_key, first->secret_key);
  std::filesystem::remove_all(dir);
}

TEST(SigningFile, CreateOnceThenStable) {
  std::string dir = ::testing::TempDir() + "/cli_signing";
  std::filesystem::remove_all(dir);
  auto first = LoadOrCreateSigning(dir);
  ASSERT_TRUE(first.ok());
  auto second = LoadOrCreateSigning(dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->public_key, first->public_key);
  // Attestations signed by the first load verify against the second's key.
  auto sig = crypto::SignMessage(first->secret_key, ToBytes("head"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(
      crypto::VerifySignature(second->public_key, ToBytes("head"), *sig)
          .ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- key file layouts
// Losing a key file's layout loses every stream it unlocks: these pin the
// bytes a state dir holds.

Bytes ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::filesystem::path& path, std::string_view hex) {
  Bytes data = FromHex(hex).value();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(StreamStateFile, BytesArePinned) {
  std::string dir = ::testing::TempDir() + "/cli_state_pinned";
  std::filesystem::remove_all(dir);
  StreamState s;
  s.uuid = 7;
  for (size_t i = 0; i < s.master_seed.size(); ++i) {
    s.master_seed[i] = static_cast<uint8_t>(i);
  }
  s.config.name = "hr";
  ASSERT_TRUE(SaveStreamState(dir, s).ok());
  // uuid (u64), the raw 16-byte seed, then the stream config as it goes on
  // the wire.
  const std::string pinned =
      "0700000000000000" "000102030405060708090a0b0c0d0e0f"
      "026872" "0000000000000000" "1027000000000000"  // name, t0, delta
      "28" "01010000" "0000000000000000" "60ea000000000000" "00000000"
      "0000000000000000" "0100000000000000"  // schema
      "01" "00" "40000000" "01" "00";  // cipher, public, fanout, codec, flag
  EXPECT_EQ(ToHex(ReadFileBytes(StreamStatePath(dir, 7))), pinned);

  WriteFileBytes(StreamStatePath(dir, 7), pinned.substr(0, 40));
  EXPECT_EQ(LoadStreamState(dir, 7).status().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

TEST(KeyPairFiles, IdentityAndSigningKeyBytesArePinned) {
  // Both files hold the public key, then the secret key, each behind a
  // varint length.
  std::string dir = ::testing::TempDir() + "/cli_keys_pinned";
  struct KeyFile {
    const char* name;
    std::function<Result<std::pair<Bytes, Bytes>>()> load;
  };
  const KeyFile files[] = {
      {"identity.key",
       [&]() -> Result<std::pair<Bytes, Bytes>> {
         TC_ASSIGN_OR_RETURN(auto kp, LoadOrCreateIdentity(dir, true));
         return std::pair(kp.public_key, Bytes(kp.secret_key.view().begin(),
                                               kp.secret_key.view().end()));
       }},
      {"signing.key",
       [&]() -> Result<std::pair<Bytes, Bytes>> {
         TC_ASSIGN_OR_RETURN(auto kp, LoadOrCreateSigning(dir));
         return std::pair(kp.public_key, Bytes(kp.secret_key.view().begin(),
                                               kp.secret_key.view().end()));
       }},
  };
  for (const KeyFile& file : files) {
    std::filesystem::remove_all(dir);
    const auto path = std::filesystem::path(dir) / file.name;
    auto created = file.load();
    ASSERT_TRUE(created.ok()) << file.name;
    ASSERT_EQ(created->first.size(), 32u);
    ASSERT_EQ(created->second.size(), 32u);
    EXPECT_EQ(ToHex(ReadFileBytes(path)),
              "20" + ToHex(created->first) + "20" + ToHex(created->second))
        << file.name;

    WriteFileBytes(path, "03010203" "020405");
    auto loaded = file.load();
    ASSERT_TRUE(loaded.ok()) << file.name;
    EXPECT_EQ(loaded->first, (Bytes{1, 2, 3})) << file.name;
    EXPECT_EQ(loaded->second, (Bytes{4, 5})) << file.name;

    for (const char* bad : {
             "03010203" "0204",        // truncated secret key
             "ffffffff0f" "010203",    // length beyond the input
         }) {
      WriteFileBytes(path, bad);
      EXPECT_EQ(file.load().status().code(), StatusCode::kDataLoss)
          << file.name << " " << bad;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tc::tools
