// Tests for the CLI plumbing (tools/cli_common.hpp): flag parsing edge
// cases and the on-disk key-state files tccli depends on — corrupting or
// losing these means losing access to encrypted data, so they deserve the
// same rigor as the wire codecs.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "tests/key_testing.hpp"
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

TEST(ParsePort, AcceptsOnlyDigitsInRange) {
  EXPECT_EQ(*ParsePort("4433"), 4433);
  EXPECT_EQ(*ParsePort("0"), 0);  // an ephemeral listen port
  EXPECT_EQ(*ParsePort("65535"), 65535);
  // 70000 must not wrap to 4464, and trailing junk must not be dropped.
  for (const char* bad : {"70000", "65536", "4433x", "", "-1", " 80", "+80",
                          "99999999999999999999"}) {
    auto port = ParsePort(bad);
    EXPECT_EQ(port.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseHostPort, SplitsAtTheLastColonAndRejectsPortZero) {
  auto target = ParseHostPort("127.0.0.1:4433");
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  EXPECT_EQ(target->host, "127.0.0.1");
  EXPECT_EQ(target->port, 4433);
  for (const char* bad : {"h:70000", "h:4433x", "h:", ":1", "h:0", "h",
                          ""}) {
    auto parsed = ParseHostPort(bad);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
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
  for (size_t i = 0; i < sizeof(s.master_seed); ++i) {
    s.master_seed.secret_bytes()[i] = static_cast<uint8_t>(i);
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
         BytesView secret = kp.secret_key.secret_bytes();
         return std::pair(kp.public_key, Bytes(secret.begin(), secret.end()));
       }},
      {"signing.key",
       [&]() -> Result<std::pair<Bytes, Bytes>> {
         TC_ASSIGN_OR_RETURN(auto kp, LoadOrCreateSigning(dir));
         BytesView secret = kp.secret_key.secret_bytes();
         return std::pair(kp.public_key, Bytes(secret.begin(), secret.end()));
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

    // Each file must hold two matching 32-byte keys
    // (KeyPairFiles.RejectAnInvalidKeyPair).
    for (const char* bad : {
             "03010203" "020405",      // well-formed, but short halves
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

// A consumer whose identity file is damaged would register a key that its
// grants' boxes cannot be opened with, and FetchGrants would skip every
// one; an owner whose signing file is damaged would sign attestations that
// all fail verification as tampering. The load fails instead, naming the
// file.
void ExpectInvalidKeyPairsRejected(
    const std::string& dir, const char* name, const Bytes& public_key,
    BytesView secret_key, const Bytes& other_public,
    const std::function<Status()>& load) {
  const auto path = std::filesystem::path(dir) / name;
  const std::string pub = ToHex(public_key);
  const std::string secret = ToHex(secret_key);
  const std::string other = ToHex(other_public);
  for (const std::string& bad : {
           "1f" + pub.substr(2) + "20" + secret,       // truncated public
           "20" + pub + "1f" + secret.substr(2),       // truncated secret
           "21" + pub + "00" + "20" + secret,          // 33-byte public
           "20" + other + "20" + secret,               // another's public
           "20" + secret + "20" + pub,                 // halves swapped
       }) {
    WriteFileBytes(path, bad);
    const Status loaded = load();
    EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << name << " " << bad;
    EXPECT_NE(loaded.message().find(path.string()), std::string::npos)
        << loaded.ToString();
  }
  WriteFileBytes(path, "20" + pub + "20" + secret);
  EXPECT_TRUE(load().ok()) << name;
}

TEST(KeyPairFiles, RejectAnInvalidKeyPair) {
  std::string dir = ::testing::TempDir() + "/cli_keys_invalid";
  std::filesystem::remove_all(dir);
  auto identity = LoadOrCreateIdentity(dir, /*create=*/true);
  ASSERT_TRUE(identity.ok());
  ExpectInvalidKeyPairsRejected(
      dir, "identity.key", identity->public_key,
      identity->secret_key.secret_bytes(),
      crypto::GenerateBoxKeyPair().public_key,
      [&] { return LoadOrCreateIdentity(dir, /*create=*/false).status(); });

  auto signing = LoadOrCreateSigning(dir);
  ASSERT_TRUE(signing.ok());
  ExpectInvalidKeyPairsRejected(
      dir, "signing.key", signing->public_key,
      signing->secret_key.secret_bytes(),
      crypto::GenerateSigningKeyPair().public_key,
      [&] { return LoadOrCreateSigning(dir).status(); });
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ key file writes
// A state file holds a stream's master seed or a private key: only its
// owner may read it, and a write replaces it whole or not at all.

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

mode_t ModeOf(const std::filesystem::path& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_mode & 0777;
}

TEST(StateFileWrite, KeyFilesAreOwnerOnlyUnderUmask022) {
  const std::string dir = FreshDir("cli_state_mode");
  const mode_t old_umask = ::umask(022);
  StreamState s;
  s.uuid = 9;
  s.master_seed = crypto::RandomKey128();
  const bool saved = SaveStreamState(dir, s).ok() &&
                     LoadOrCreateIdentity(dir, true).ok() &&
                     LoadOrCreateSigning(dir).ok();
  ::umask(old_umask);
  ASSERT_TRUE(saved);
  for (const char* name : {"stream-9.key", "identity.key", "signing.key"}) {
    EXPECT_EQ(ModeOf(std::filesystem::path(dir) / name), 0600u) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(StateFileWrite, ReplacesAnExistingFileWhole) {
  // A reader that opened the file before the write keeps reading the old
  // bytes whole: the new file arrives by rename, never by truncating and
  // rewriting the old one in place.
  const std::string dir = FreshDir("cli_state_replace");
  const auto path = std::filesystem::path(dir) / "stream-1.key";
  ASSERT_TRUE(WriteStateFile(path, Bytes(64, 0xAA)).ok());
  const int old_fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(old_fd, 0);
  ASSERT_TRUE(WriteStateFile(path, Bytes(3, 0xBB)).ok());
  Bytes old_bytes(128);
  const ssize_t n = ::read(old_fd, old_bytes.data(), old_bytes.size());
  ::close(old_fd);
  EXPECT_EQ(n, 64);
  old_bytes.resize(n < 0 ? 0 : static_cast<size_t>(n));
  EXPECT_EQ(old_bytes, Bytes(64, 0xAA));
  EXPECT_EQ(ReadFileBytes(path), Bytes(3, 0xBB));
  std::filesystem::remove_all(dir);
}

TEST(StateFileWrite, RewriteLeavesOnlyTheOwnerOnlyTarget) {
  // Rewriting a file an older tool left world-readable leaves exactly one
  // file behind, the target, and it is owner-only now.
  const std::string dir = FreshDir("cli_state_rewrite");
  const auto path = std::filesystem::path(dir) / "identity.key";
  std::filesystem::create_directories(dir);
  WriteFileBytes(path, "0102");
  ASSERT_EQ(::chmod(path.c_str(), 0644), 0);
  ASSERT_TRUE(WriteStateFile(path, Bytes(32, 0x11)).ok());
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"identity.key"});
  EXPECT_EQ(ModeOf(path), 0600u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tc::tools
