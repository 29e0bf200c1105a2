// Log stores for tests: every LogKvStore a test opens lives in one private
// directory (store::TempLogDir) that is removed with the TempLogs, and the
// byte-prefix check that replication keeps: a follower's log file is a
// prefix of its primary's.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "store/log_kv.hpp"

namespace tc::testing {

class TempLogs {
 public:
  TempLogs() {
    auto made = store::TempLogDir::Make();
    if (!made.ok()) std::abort();
    dir_ = std::move(*made);
  }

  /// Opens (creating) the log `name`.
  std::shared_ptr<store::LogKvStore> Open(const std::string& name) const {
    auto log = store::LogKvStore::Open(Path(name));
    if (!log.ok()) std::abort();
    return std::move(*log);
  }

  std::string Path(const std::string& name) const { return dir_->Path(name); }

  /// The bytes of the log file `name`, as far as they reached the file.
  std::string Bytes(const std::string& name) const {
    std::ifstream in(Path(name), std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// True when logs `a` and `b` hold the same bytes in their files: a
  /// follower caught up with its primary, which then answers every read
  /// the same.
  bool Same(const std::string& a, const std::string& b) const {
    return Bytes(a) == Bytes(b);
  }

  /// True when log `follower`'s file is a byte prefix of log `primary`'s.
  bool IsPrefix(const std::string& follower, const std::string& primary) const {
    std::string f = Bytes(follower);
    return Bytes(primary).compare(0, f.size(), f) == 0;
  }

 private:
  std::unique_ptr<store::TempLogDir> dir_;
};

}  // namespace tc::testing
