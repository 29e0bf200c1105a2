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

#include <cstdio>
#include <memory>
#include <optional>
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
  /// One record's header, parsed by ParseRecord in log_kv.cpp.
  struct RecordHead;

  LogKvStore(std::string path, LogKvOptions options);

  /// Parses the record at log offset `pos` of a log `end` bytes long,
  /// reading through `window(at, n)`, which returns the bytes [at, at + n)
  /// clipped at `end`. nullopt when the bytes there are no whole record:
  /// garbage, or a record running past `end`. Replay, ReadLog and
  /// AppendLog all read records through it.
  template <typename Window>
  static Result<std::optional<RecordHead>> ParseRecord(Window&& window,
                                                       uint64_t pos,
                                                       uint64_t end);

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
  /// All three, by the record's type, for a record at log offset `at`.
  /// DataLoss for an append to an absent key.
  Status ApplyRecord(const RecordHead& head, uint64_t at) REQUIRES(mu_);
  /// Adopt the generation recorded by a kGenerationKey put at offset `at`.
  void NoteGeneration(BytesView value, uint64_t at) REQUIRES(mu_);

  Status Replay() REQUIRES(mu_);
  /// Drop a torn tail discovered during replay (crash-recovery path).
  Status TruncateTo(size_t size);
  /// `type` is one of the record types in log_kv.cpp; tombstones carry no
  /// value. Returns the log offset at which the value's bytes start.
  Result<uint64_t> AppendRecord(uint8_t type, const std::string& key,
                                BytesView value) REQUIRES(mu_);
  /// Append `bytes` (whole records) at the log end. On a failed write the
  /// append handle closes and writes are refused (see AppendRecord).
  Status WriteLocked(BytesView bytes) REQUIRES(mu_);
  /// After a failed write or flush: close the append handle, so writes
  /// are refused until a Compact or a reopen, and count as flushed only
  /// the records the file is seen to hold.
  void DropAppendHandleLocked() const REQUIRES(mu_);
  /// AppendLog's write at this log's end: `records` parse into whole
  /// records, each append extends a live key, or nothing is written.
  Status AppendRecordsLocked(BytesView records) REQUIRES(mu_);
  /// Where AppendLog writes a copy of another log.
  std::string CopyPath() const { return path_ + ".copy"; }
  /// Replace `path_` with the file at `tmp_path` and reopen both handles
  /// on it. A Get that copied the old descriptor finishes on the old file.
  Status SwapInLocked(const std::string& tmp_path) REQUIRES(mu_);
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
  // The append handle. ReadLog flushes a copy of it without the lock.
  mutable std::shared_ptr<std::FILE> log_ GUARDED_BY(mu_);
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
  LogGeneration generation_ GUARDED_BY(mu_);
  // A copy of generation copy_generation_'s log that AppendLog is writing
  // beside this one; null when there is none.
  std::unique_ptr<LogKvStore> copy_ GUARDED_BY(mu_);
  uint64_t copy_generation_ GUARDED_BY(mu_) = 0;
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
