// File-backed KV store: an append-only log file holds every value, and
// memory holds only a key directory saying where each live value sits in
// that log. This is the repository's durable storage engine (the paper's
// Cassandra layer persists to disk; this is our single-node equivalent).
// Because values are read back from the file, a server over this store
// holds the key directory plus its index cache, which is the part the
// cache budget bounds.
//
// The log is also what replication ships (src/replica): a primary's
// ReadLog hands out whole records from any offset, and a follower's
// AppendLog writes them at its own log end and indexes them with the
// parser Replay uses, so a follower's log is a byte prefix of its
// primary's. A copy from offset 0 is written beside the follower's log
// and replaces it only once whole. A generation, recorded as a put of
// kGenerationKey, tells two logs with a common past from two that forked
// (see LogGeneration).
#pragma once

#include <memory>
#include <string>

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

/// The key whose puts record a log's generation: a run of the log that one
/// writer appended with no fork in its history. A replicated primary
/// starts one whenever it opens the log as a writer, and Compact starts one
/// in a log that has one, as the rewritten log's last record. It is an
/// ordinary put, so a log holding it replays in any build; a log no
/// replication opened never holds it.
inline constexpr char kGenerationKey[] = "meta/log/generation";

/// A log's current generation.
struct LogGeneration {
  uint64_t id = 0;      // random and nonzero; 0 when the log has none
  uint64_t parent = 0;  // the generation it replaced; 0 for a log's first
  uint64_t begin = 0;   // log offset of the record that started it
  /// 0 when it forked from its parent at `begin`, sharing the parent's
  /// bytes before that; after a Compact, the length of the parent's log
  /// it rewrote, none of whose bytes it shares.
  uint64_t replaced = 0;
};

/// Where a log stands: its generation id and its length in bytes. Two logs
/// at the same position in one generation hold the same bytes.
struct LogPosition {
  uint64_t generation = 0;
  uint64_t length = 0;

  friend bool operator==(const LogPosition&, const LogPosition&) = default;
};

/// A log's generation and length, read together.
struct LogHead {
  LogGeneration generation;
  uint64_t length = 0;

  LogPosition position() const { return {generation.id, length}; }
  /// How far the log's history has come, in bytes: its length, plus the
  /// length of the log a Compact rewrote into this generation. A log in
  /// the parent generation ranks below every log past this one's start.
  uint64_t progress() const { return generation.replaced + length; }
};

/// Log-structured store: what a log's records mean. Its LogFile
/// (log_file.hpp) alone knows their bytes; this class owns the key
/// directory, the live and dead value bytes, the generation, a follower's
/// copy in progress, and compaction with its trigger. Get reads a value's
/// log extents with pread outside the store's lock, after flushing the
/// write buffer only if the value's bytes are not yet in the file. The
/// live log, a compaction's output and a follower's copy are each a
/// LogFile and the directory of its records, indexed as they are written:
/// Compact() writes each live value as one put to a new file, and it and a
/// finished copy replace the log by a rename, so a Get racing either
/// finishes on the old file. LogKvOptions::compact_dead_fraction also
/// triggers compaction automatically once dead bytes dominate.
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

  /// Rewrite the log keeping only live records. Returns bytes reclaimed.
  Result<size_t> Compact();

  /// Flush buffered writes to the OS. Group-committed: a Sync whose
  /// appends were already covered by a concurrent caller's flush (or a Get
  /// that had to read them) returns without touching the file — N ingest
  /// threads share one flush per batch window.
  Status Sync() override;

  /// The log's generation and length.
  LogHead Head() const;

  /// Start a new generation: append a kGenerationKey put naming a fresh id
  /// and the current generation as its parent. A replicated primary does
  /// this whenever it opens the log as a writer.
  Status StartGeneration();

  /// Whole records of the log from `offset`, which must be a record
  /// boundary: as many as fit in `max_bytes`, or the first alone if it is
  /// larger. Empty at the log's end. FailedPrecondition once the log is no
  /// longer in generation `generation` (a Compact rewrote it), so offsets
  /// taken in one generation never read another's bytes.
  Result<Bytes> ReadLog(uint64_t generation, uint64_t offset,
                        size_t max_bytes) const;

  /// Write `records`, whole records read from another log, at position
  /// `at` of this one, and index them; returns the new position. Empty
  /// `records` only read the position. At this log's own position they
  /// are appended to it. At length 0 of generation G they start a copy of
  /// G's log from its start, in a file beside this log, and at the copy's
  /// position (G, copied length) they extend it: the reply is the copy's
  /// position, while Head() and position queries still report this log.
  /// Once the copy holds the record that started G, it replaces this log,
  /// so a log is only ever a whole copy, never part of one. Anywhere else
  /// nothing is written (FailedPrecondition). Bytes that do not parse
  /// into whole records, or append to a key that does not exist, are
  /// DataLoss and change nothing. A store written this way is a
  /// follower's: it never compacts itself, as it never takes a Put or
  /// Delete.
  Result<LogPosition> AppendLog(LogPosition at, BytesView records);

  /// Compactions run (explicit + automatic) and dead value bytes, in one
  /// locked read (kClusterInfo reporting).
  CompactionStats Compaction() const override;

 private:
  /// The key directory (see the class comment), its per-key record, and a
  /// LogFile with the directory of its records; all in log_kv.cpp.
  class Directory;
  struct Record;
  struct Log;

  LogKvStore(std::string path, LogKvOptions options,
             std::unique_ptr<Log> live);

  /// Where AppendLog writes a copy of another log.
  std::string CopyPath() const { return path_ + ".copy"; }
  /// Rename `log`'s file over path_ and make it the live log.
  Status InstallLocked(std::unique_ptr<Log> log) REQUIRES(mu_);
  /// Compact() body.
  Result<size_t> CompactLocked() REQUIRES(mu_);
  /// Run CompactLocked() if the dead-byte threshold is crossed.
  void MaybeAutoCompactLocked() REQUIRES(mu_);

  const std::string path_;
  const LogKvOptions options_;
  mutable Mutex mu_;
  std::unique_ptr<Log> live_ GUARDED_BY(mu_);
  // A copy of generation copy_generation_'s log that AppendLog is writing
  // beside the live one; null when there is none.
  std::unique_ptr<Log> copy_ GUARDED_BY(mu_);
  uint64_t copy_generation_ GUARDED_BY(mu_) = 0;
  uint64_t compactions_ GUARDED_BY(mu_) = 0;
  // After a failed auto-compaction, don't retry until dead bytes reach
  // this level (0 = no backoff; reset by any successful compaction).
  size_t compact_backoff_dead_bytes_ GUARDED_BY(mu_) = 0;
};

/// A private directory for logs that no restart reads: made under the
/// system's temporary directory, and removed with every file in it when
/// destroyed. Replicated stores are LogKvStores, so `tcserver --store mem`
/// with replicas or as a follower keeps its logs in one.
class TempLogDir {
 public:
  static Result<std::unique_ptr<TempLogDir>> Make();
  ~TempLogDir();
  TempLogDir(const TempLogDir&) = delete;
  TempLogDir& operator=(const TempLogDir&) = delete;

  /// The path of the file `name` in the directory.
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  explicit TempLogDir(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
};

}  // namespace tc::store
