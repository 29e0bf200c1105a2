// File-backed KV store: append-only value log with an in-memory index.
// Gives the repository a durable storage engine so examples and tests can
// exercise persistence/restart paths (the paper's Cassandra layer persists
// to disk; this is our single-node equivalent).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

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
/// records to a single log file; Get serves from an in-memory map populated
/// at open. Deletes append a tombstone; Append writes a record holding only
/// the suffix, which replay concatenates onto the key's value, so growing a
/// value leaves no dead bytes behind. Compact() rewrites the log dropping
/// dead records (merged values become plain puts); with
/// LogKvOptions::compact_dead_fraction set it also triggers automatically
/// once dead bytes dominate.
class LogKvStore final : public KvStore {
 public:
  /// Opens (or creates) the log at `path` and replays it.
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
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override;

  /// Rewrite the log keeping only live records. Returns bytes reclaimed.
  Result<size_t> Compact();

  /// Flush buffered writes to the OS. Group-committed: appends carry a
  /// sequence number, and a Sync whose appends were already covered by a
  /// concurrent caller's flush returns without touching the file — N
  /// ingest threads share one flush per batch window.
  TC_BLOCKING Status Sync() override;

  /// Dead (overwritten/tombstoned) value bytes awaiting compaction.
  size_t DeadBytes() const;
  /// Number of compactions run (explicit + automatic) — observability for
  /// the auto-compaction trigger.
  uint64_t CompactionCount() const;
  /// Both of the above in one locked read (kClusterInfo reporting).
  CompactionStats Compaction() const override;

 private:
  LogKvStore(std::string path, LogKvOptions options);

  Status Replay() REQUIRES(mu_);
  /// Drop a torn tail discovered during replay (crash-recovery path).
  Status TruncateTo(size_t size);
  /// `type` is one of the record types in log_kv.cpp; tombstones carry no
  /// value.
  Status AppendRecord(uint8_t type, const std::string& key, BytesView value)
      REQUIRES(mu_);
  /// Compact() body.
  Result<size_t> CompactLocked() REQUIRES(mu_);
  /// Run CompactLocked() if the dead-byte threshold is crossed.
  void MaybeAutoCompactLocked() REQUIRES(mu_);

  std::string path_;
  LogKvOptions options_;
  mutable Mutex mu_;
  std::FILE* log_ GUARDED_BY(mu_) = nullptr;
  std::unordered_map<std::string, Bytes> map_ GUARDED_BY(mu_);
  size_t value_bytes_ GUARDED_BY(mu_) = 0;
  size_t dead_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t compactions_ GUARDED_BY(mu_) = 0;
  // After a failed auto-compaction, don't retry until dead bytes reach
  // this level (0 = no backoff; reset by any successful compaction).
  size_t compact_backoff_dead_bytes_ GUARDED_BY(mu_) = 0;
  // Group-commit bookkeeping: records appended vs records covered by the
  // last flush. Sync() is a no-op when another caller already flushed past
  // our appends.
  uint64_t append_seq_ GUARDED_BY(mu_) = 0;
  uint64_t flushed_seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace tc::store
