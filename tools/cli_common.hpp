// Shared helpers for the command-line tools: a tiny flag parser and the
// client-side key-state files (TimeCrypt keeps all key material client-side,
// so a usable CLI must persist it between invocations).
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/rand.hpp"
#include "crypto/sealed_box.hpp"
#include "net/messages.hpp"

namespace tc::tools {

/// "--flag value" and "--flag" (boolean) parser. Positional args (the
/// command word) come back in order.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<const char*> bool_flags) {
    std::vector<std::string> booleans(bool_flags.begin(), bool_flags.end());
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        bool is_bool =
            std::find(booleans.begin(), booleans.end(), name) != booleans.end();
        if (!is_bool && i + 1 < argc) {
          values_[name] = argv[++i];
        } else {
          values_[name] = "1";
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  std::string Get(const std::string& name, std::string def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoll(it->second.c_str(),
                                                    nullptr, 10);
  }

  /// Full-range uint64 (stream uuids are random 64-bit values; strtoll
  /// would clamp anything above INT64_MAX).
  uint64_t GetUint(const std::string& name, uint64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(),
                                                     nullptr, 10);
  }

  bool Has(const std::string& name) const { return values_.contains(name); }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every --flag the user actually passed (for unknown-flag validation:
  /// a typo like --replcias must be a usage error, not a silent default).
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(values_.size());
    for (const auto& [name, value] : values_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Strict integer flag: absent → default; present but non-numeric (or out
/// of range) → usage error. `Flags::GetInt` silently maps garbage to 0,
/// which is exactly how "--replicas two" used to mean "no replication".
inline int64_t RequireInt(const Flags& flags, const std::string& name,
                          int64_t def) {
  if (!flags.Has(name)) return def;
  std::string value = flags.Get(name);
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "error: --%s expects an integer, got '%s'\n",
                 name.c_str(), value.c_str());
    std::exit(1);
  }
  return parsed;
}

/// A port number: digits only, in [0, 65535]. 0 asks for an ephemeral
/// listen port. (A cast of a wider integer would wrap 70000 to 4464.)
inline Result<uint16_t> ParsePort(const std::string& text) {
  auto bad = [&] {
    return InvalidArgument("expected a port in [0, 65535], got '" + text +
                           "'");
  };
  if (text.empty()) return bad();
  uint32_t port = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return bad();
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) return bad();
  }
  return static_cast<uint16_t>(port);
}

struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// A dial target, HOST:PORT. Port 0 names no peer, so it is rejected.
inline Result<HostPort> ParseHostPort(const std::string& text) {
  auto colon = text.rfind(':');
  if (colon != std::string::npos && colon > 0) {
    auto port = ParsePort(text.substr(colon + 1));
    if (port.ok() && *port != 0) {
      return HostPort{text.substr(0, colon), *port};
    }
  }
  return InvalidArgument("expected HOST:PORT with a port in [1, 65535], got '" +
                         text + "'");
}

// State files hold key material, so they are read straight into scrubbed
// storage (no stream buffer keeps a copy) and written only by their owner.

/// Reads a whole state file; NotFound when it does not exist.
inline Result<SecretBuffer> ReadStateFile(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFound("no file " + path.string());
  struct stat st {};
  SecretBuffer data;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) data.resize(static_cast<size_t>(st.st_size));
  for (size_t done = 0; ok && done < data.size();) {
    const ssize_t n = ::read(fd, data.secret_bytes().data() + done,
                             data.size() - done);
    ok = n > 0 || (n < 0 && errno == EINTR);
    if (n > 0) done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (!ok) return Unavailable("cannot read " + path.string());
  return data;
}

/// Replaces a state file whole, creating the state dir first. The bytes go
/// to a temp file created 0600, which is fsync'd and renamed over `path`:
/// no other user can read the keys, and a crash leaves the old file or the
/// new one, never a torn one.
inline Status WriteStateFile(const std::filesystem::path& path,
                             BytesView data) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  const std::string tmp = path.string() + ".tmp";
  ::unlink(tmp.c_str());  // O_EXCL below: the mode is ours, not a leftover's
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) {
    return Unavailable("cannot write " + tmp + ": " + std::strerror(errno));
  }
  bool ok = true;
  for (size_t done = 0; ok && done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    ok = n > 0 || (n < 0 && errno == EINTR);
    if (n > 0) done += static_cast<size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Unavailable("cannot write " + path.string() + ": " + why);
  }
  return Status::Ok();
}

/// On-disk producer state for one stream: uuid + master seed + config.
struct StreamState {
  uint64_t uuid = 0;
  Scrubbed<crypto::Key128> master_seed;
  net::StreamConfig config;

  static void Visit(auto& m, auto& v) { v(m.uuid, m.master_seed, m.config); }
};

inline std::filesystem::path StreamStatePath(const std::string& state_dir,
                                             uint64_t uuid) {
  return std::filesystem::path(state_dir) /
         ("stream-" + std::to_string(uuid) + ".key");
}

inline Status SaveStreamState(const std::string& state_dir,
                              const StreamState& s) {
  SecretBuffer encoded(net::codec::Encode(s));
  return WriteStateFile(StreamStatePath(state_dir, s.uuid),
                        encoded.secret_bytes());
}

inline Result<StreamState> LoadStreamState(const std::string& state_dir,
                                           uint64_t uuid) {
  auto data = ReadStateFile(StreamStatePath(state_dir, uuid));
  if (!data.ok()) {
    return NotFound("no local key state for stream " + std::to_string(uuid) +
                    " (created on another machine?)");
  }
  return net::codec::Decode<StreamState>(data->secret_bytes());
}

/// The layout of the identity and signing-key files: the public key, then
/// the secret key.
struct KeyPairFile {
  Bytes public_key;
  SecretBuffer secret_key;

  static void Visit(auto& m, auto& v) { v(m.public_key, m.secret_key); }
};

/// The public half of a keypair, derived from its secret half.
using DerivePublicKey = Result<Bytes> (*)(const SecretBuffer&);

/// Loads the keypair in `state_dir`/`name`, or, when there is none and
/// `generate` is set, creates one with it and saves it. A loaded file must
/// hold a 32-byte public and a 32-byte secret key, the first the `derive`
/// of the second; DataLoss, naming the file and saying `what` a pair is,
/// otherwise.
template <typename KeyPair>
Result<KeyPair> LoadOrCreateKeyPair(const std::string& state_dir,
                                    const char* name, const char* what,
                                    KeyPair (*generate)(),
                                    DerivePublicKey derive) {
  constexpr size_t kKeySize = 32;
  const auto path = std::filesystem::path(state_dir) / name;
  auto data = ReadStateFile(path);
  KeyPair kp;
  if (data.ok()) {
    TC_ASSIGN_OR_RETURN(auto file, net::codec::Decode<KeyPairFile>(
                                       data->secret_bytes()));
    kp.public_key = std::move(file.public_key);
    kp.secret_key = std::move(file.secret_key);
    if (kp.public_key.size() != kKeySize || kp.secret_key.size() != kKeySize) {
      return DataLoss(path.string() + ": " + what);
    }
    if (*derive(kp.secret_key) != kp.public_key) {
      return DataLoss(path.string() +
                      ": the public key is not the secret key's");
    }
    return kp;
  }
  if (generate == nullptr) return data.status();
  kp = generate();
  SecretBuffer encoded(
      net::codec::Encode(KeyPairFile{kp.public_key, kp.secret_key}));
  TC_RETURN_IF_ERROR(WriteStateFile(path, encoded.secret_bytes()));
  return kp;
}

/// Consumer identity (X25519 keypair) persisted in the state dir. A
/// consumer registered under any public key but its secret key's could
/// open none of its grants, so a mismatched file is DataLoss.
inline Result<crypto::BoxKeyPair> LoadOrCreateIdentity(
    const std::string& state_dir, bool create) {
  auto kp = LoadOrCreateKeyPair(
      state_dir, "identity.key",
      "an identity is a 32-byte public and a 32-byte secret X25519 key",
      create ? &crypto::GenerateBoxKeyPair : nullptr, &crypto::BoxPublicKey);
  if (kp.status().code() == StatusCode::kNotFound) {
    return NotFound("no identity; run `tccli keygen` first");
  }
  return kp;
}

/// Owner signing identity (Ed25519) persisted in the state dir — the same
/// keypair must sign every attestation of a stream, across invocations.
/// Every attestation signed under a mismatched pair would fail
/// verification as tampering, so such a file is DataLoss.
inline Result<crypto::SigningKeyPair> LoadOrCreateSigning(
    const std::string& state_dir) {
  return LoadOrCreateKeyPair(
      state_dir, "signing.key",
      "a signing key is a 32-byte public and a 32-byte secret Ed25519 key",
      &crypto::GenerateSigningKeyPair, &crypto::SigningPublicKey);
}

[[noreturn]] inline void Die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

inline void CheckOk(const Status& status) {
  if (!status.ok()) Die(status);
}

}  // namespace tc::tools
