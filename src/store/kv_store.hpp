// Key-value storage abstraction — TimeCrypt's persistence layer (§4.6:
// "TimeCrypt can be plugged-in with any scalable key-value store"). The
// paper's prototype uses Cassandra; this library ships two stores behind
// this interface: MemKvStore keeps every value in memory, and LogKvStore
// keeps values in an append-only file with only a key directory of file
// offsets in memory. Index node and chunk identifiers are computed on the
// fly from (stream, level, index) so no scans are ever needed — exactly the
// paper's storage model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace tc::store {

/// KvStore::Append's precondition: FailedPrecondition unless the value
/// under `key` currently holds exactly `expected_size` bytes.
inline Status CheckAppendSize(const std::string& key, size_t actual,
                              size_t expected_size) {
  if (actual == expected_size) return Status::Ok();
  return FailedPrecondition("append to " + key + ": value holds " +
                            std::to_string(actual) + " bytes, expected " +
                            std::to_string(expected_size));
}

/// Minimal KV contract. Implementations must be thread-safe.
class KvStore {
 public:
  /// Compaction pressure of a log-structured store (cluster-info
  /// observability). Stores without a compaction cycle report zeros;
  /// decorators forward to the store they wrap.
  struct CompactionStats {
    uint64_t compactions = 0;  // compaction passes run (explicit + auto)
    uint64_t dead_bytes = 0;   // dead value bytes awaiting compaction
  };

  virtual ~KvStore() = default;

  virtual Status Put(const std::string& key, BytesView value) = 0;
  virtual Result<Bytes> Get(const std::string& key) const = 0;
  virtual Status Delete(const std::string& key) = 0;
  virtual bool Contains(const std::string& key) const = 0;

  /// Append `suffix` to the value under `key` if that value is exactly
  /// `expected_size` bytes long; returns the new length. NotFound when the
  /// key is absent, FailedPrecondition (nothing written) on a length
  /// mismatch. This is how the index grows its open node by a run of
  /// entries without rewriting it. The default is Get + check + Put, atomic
  /// only against writers that serialize per key (the index writes under
  /// its stream lock); stores that can write just the suffix override it.
  virtual Result<size_t> Append(const std::string& key, size_t expected_size,
                                BytesView suffix) {
    TC_ASSIGN_OR_RETURN(Bytes value, Get(key));
    TC_RETURN_IF_ERROR(CheckAppendSize(key, value.size(), expected_size));
    tc::Append(value, suffix);
    TC_RETURN_IF_ERROR(Put(key, value));
    return value.size();
  }

  /// Number of stored entries (approximate under concurrency).
  virtual size_t Size() const = 0;

  /// Total bytes of stored values (approximate; for memory accounting).
  virtual size_t ValueBytes() const = 0;

  /// Flush buffered writes toward stable storage. No-op for volatile
  /// stores. LogKvStore overrides it with a group-committing flush, so many
  /// callers share one flush of the same appends. That flush is an fflush
  /// into the OS page cache, not an fsync: the records outlive a crash of
  /// the process, not of the machine (ROADMAP item 4 adds the fdatasync).
  /// Blocking: the flush is a write(2) — never call it with a tc::Mutex
  /// held (B1 in common/thread_annotations.hpp).
  virtual Status Sync() {
    AssertBlockingAllowed();
    return Status::Ok();
  }

  /// Visit every (key, value) pair. No store implements it: identifiers
  /// are computed, not discovered, and replication ships log bytes. It
  /// stays only because bench/tcbench's timing decorator overrides it; it
  /// goes when that decorator next changes (ROADMAP).
  virtual Status Scan(
      const std::function<void(const std::string& key, BytesView value)>&)
      const {
    return Unimplemented("store does not support Scan");
  }

  /// Compaction pressure; zeros unless the backing store is log-structured.
  virtual CompactionStats Compaction() const { return {}; }
};

}  // namespace tc::store
