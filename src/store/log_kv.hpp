// File-backed KV store: an append-only log file holds every value, and
// memory holds only a key directory saying where each live value sits in
// that log. This is the repository's durable storage engine (the paper's
// Cassandra layer persists to disk; this is our single-node equivalent).
// Because values are read back from the file, a server over this store
// holds the key directory plus its index cache, which is the part the
// cache budget bounds.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"
#include "store/kv_store.hpp"

namespace tc::store {

struct LogKvOptions {
  /// Auto-compact when dead value bytes exceed this fraction of the total
  /// (live + dead) value bytes. 0 disables auto-compaction (the default:
  /// explicit Compact() only). Checked after every Put/Delete, so a
  /// long-running shard's log stays bounded without an external trigger.
  double compact_dead_fraction = 0.0;
  /// Never auto-compact below this many dead bytes — rewriting a tiny log
  /// on every overwrite would trade one wasted byte for a full rewrite.
  size_t compact_min_dead_bytes = 1 << 20;
};

/// Log-structured store. Writes append `type keylen key vallen value`
/// records to a single log file. Deletes append a tombstone. Get reads a
/// value's log extents (offset, length) with pread on a read-only
/// descriptor, outside the store's lock; it flushes the write buffer first
/// only when the value's bytes are not yet in the file. Compact() rewrites
/// the log dropping dead records (each value becomes one put) and swaps in
/// a descriptor on the new file; a Get racing it finishes on the old,
/// renamed-over file. With LogKvOptions::compact_dead_fraction set,
/// compaction also triggers automatically once dead bytes dominate.
///
/// Memory holds only the key directory, which is flat. Each key has a
/// 32-byte record holding where its bytes sit in an arena of fixed-size
/// blocks, its value's size and the value's first extent; an
/// open-addressing table of 32-bit record ids finds the record. A put
/// records one extent and needs no side table. An append, whose log record
/// holds only the suffix, adds one extent to a side table, so growing a
/// value (an index node, a payload block) leaves no dead bytes behind. The
/// server engine writes each level-0 index node's and each 64-chunk
/// payload block's share of an upload batch as one record, so a value
/// filled by one large batch is one put with no side-table entry, while a
/// value filled by one-chunk batches costs one side-table extent (16 bytes)
/// per entry after the first. A key costs its length plus 38 to 44 bytes
/// (record, length prefix, and a table slot at between 3/8 and 3/4 load):
/// about 70 bytes for a payload block key, where a hash map of strings to
/// extent vectors takes about 190. With one such key per 64 chunks for
/// payloads and one for index nodes, a chunk of a large batch costs the
/// directory about 2 bytes, and one sent alone about 35 (its two extents).
/// Records and keys are only added, in blocks, so growth never copies
/// them; a deleted key's record and bytes stay until Compact() rebuilds
/// the directory densely.
class LogKvStore final : public KvStore {
 public:
  /// Replay reads the log through a buffer of this size, so opening a
  /// store holds this much of the log in memory, not all of it.
  static constexpr size_t kReplayBufferBytes = size_t{1} << 20;

  /// Opens (or creates) the log at `path` and replays it into the key
  /// directory.
  static Result<std::unique_ptr<LogKvStore>> Open(const std::string& path,
                                                  LogKvOptions options = {});

  ~LogKvStore() override;

  Status Put(const std::string& key, BytesView value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;
  size_t Size() const override;
  size_t ValueBytes() const override;
  /// Copies the key directory under the store's lock, then reads the
  /// values from the log without it, so a scan is an atomic snapshot that
  /// blocks writes only for the copy.
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override;

  /// Rewrite the log keeping only live records. Returns bytes reclaimed.
  Result<size_t> Compact();

  /// Flush buffered writes to the OS. Group-committed: a Sync whose
  /// appends were already covered by a concurrent caller's flush (or a Get
  /// that had to read them) returns without touching the file — N ingest
  /// threads share one flush per batch window.
  Status Sync() override;

  /// Dead (overwritten/tombstoned) value bytes awaiting compaction.
  size_t DeadBytes() const;
  /// Number of compactions run (explicit + automatic) — observability for
  /// the auto-compaction trigger.
  uint64_t CompactionCount() const;
  /// Both of the above in one locked read (kClusterInfo reporting).
  CompactionStats Compaction() const override;

 private:
  /// `length` bytes of a value at log offset `offset`.
  struct Extent {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// The key directory (see the class comment) and its per-key record,
  /// both defined in log_kv.cpp.
  class Directory;
  struct Record;
  /// A read-only descriptor on one log file, closed by its last holder.
  class ReadFile;

  LogKvStore(std::string path, LogKvOptions options);

  /// Read `extents` (in log order, totalling the size of `out`) from
  /// `file` into `out`. Extents a small gap apart share one pread.
  static Status ReadValue(const ReadFile& file,
                          std::span<const Extent> extents, Bytes& out);

  /// Directory and byte accounting for a put, an append and a delete
  /// whose records are in the log; shared by the write paths and Replay.
  void ApplyPut(std::string_view key, uint64_t offset, uint64_t size)
      REQUIRES(mu_);
  void ApplyAppend(Record& record, uint64_t offset, uint64_t length)
      REQUIRES(mu_);
  void ApplyDelete(std::string_view key) REQUIRES(mu_);

  Status Replay() REQUIRES(mu_);
  /// Drop a torn tail discovered during replay (crash-recovery path).
  Status TruncateTo(size_t size);
  /// `type` is one of the record types in log_kv.cpp; tombstones carry no
  /// value. Returns the log offset at which the value's bytes start.
  Result<uint64_t> AppendRecord(uint8_t type, const std::string& key,
                                BytesView value) REQUIRES(mu_);
  /// Make the log's bytes up to offset `end` readable through the file:
  /// flush the write buffer unless an earlier flush already covered them.
  /// Unavailable if they were lost with a failed append (see AppendRecord).
  Status FlushThrough(uint64_t end) const REQUIRES(mu_);
  /// Compact() body.
  Result<size_t> CompactLocked() REQUIRES(mu_);
  /// Run CompactLocked() if the dead-byte threshold is crossed.
  void MaybeAutoCompactLocked() REQUIRES(mu_);

  std::string path_;
  LogKvOptions options_;
  mutable Mutex mu_;
  std::FILE* log_ GUARDED_BY(mu_) = nullptr;
  std::shared_ptr<const ReadFile> reader_ GUARDED_BY(mu_);
  std::unique_ptr<Directory> dir_ GUARDED_BY(mu_);
  size_t value_bytes_ GUARDED_BY(mu_) = 0;
  size_t dead_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t compactions_ GUARDED_BY(mu_) = 0;
  // After a failed auto-compaction, don't retry until dead bytes reach
  // this level (0 = no backoff; reset by any successful compaction).
  size_t compact_backoff_dead_bytes_ GUARDED_BY(mu_) = 0;
  // Log size counting records still in the write buffer, and the prefix of
  // it known to be in the file. Sync() and FlushThrough() skip the flush
  // when another caller's already covered what they need (group commit).
  uint64_t log_end_ GUARDED_BY(mu_) = 0;
  mutable uint64_t flushed_end_ GUARDED_BY(mu_) = 0;
};

}  // namespace tc::store
