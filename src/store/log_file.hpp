// One file of LogKvStore's log: the record format, and the handles that
// write and read the file. LogKvStore keeps what the records mean (the key
// directory, generations, compaction); only this file knows their bytes
// and makes the file calls.
//
// Record layout: `type keylen key [vallen value]`. The type is one byte
// (kRecordPut, kRecordTombstone or kRecordAppend); keylen and vallen are
// varints; a tombstone has no vallen and no value. An append record's value
// is a suffix of its key's value. Records follow each other from offset 0
// with nothing between them, so a log is whole records and then, after a
// crash mid-write, a torn tail that Replay cuts off.
//
// A failed write or flush closes the append handle: once part of a write
// may have reached the file, the offset of the next record is unknown.
// Writes are refused from then on, until a compaction or a copy installs a
// new file. Records still in the write buffer may be lost with it (stdio
// drops a buffer it failed to write), so only those the file is seen to
// hold still count as flushed, and a flush through any later one fails.
//
// LogFile is not synchronized: LogKvStore calls it under its mutex, except
// for two calls that run without the mutex so that writers never wait on
// them. A Get preads a value (ReadValue, which reads only the read-only
// descriptor), and ReadLog flushes the write buffer (PendingFlush::Run, on
// the handle that StartFlush copied out).
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/varint.hpp"

namespace tc::store {

inline constexpr uint8_t kRecordPut = 1;
inline constexpr uint8_t kRecordTombstone = 2;
inline constexpr uint8_t kRecordAppend = 3;  // value = suffix of the key's value

/// One record's header: `type keylen key [vallen]`, then the value.
struct RecordHead {
  uint8_t type = 0;
  std::string_view key;   // a view into the bytes that parsed it
  uint64_t value_at = 0;  // from the record's first byte
  uint64_t value_len = 0;

  uint64_t size() const { return value_at + value_len; }
};

/// Parses the record at log offset `pos` of a log `end` bytes long,
/// reading through `window(at, n)`, which returns the bytes [at, at + n)
/// clipped at `end`. nullopt when the bytes there are no whole record:
/// garbage, or a record running past `end`.
template <typename Window>
Result<std::optional<RecordHead>> ParseRecord(Window&& window, uint64_t pos,
                                              uint64_t end) {
  const uint64_t left = end - pos;
  std::optional<RecordHead> none;
  TC_ASSIGN_OR_RETURN(BytesView first, window(pos, 1 + kMaxVarintBytes));
  RecordHead head;
  head.type = first[0];
  if (head.type != kRecordPut && head.type != kRecordTombstone &&
      head.type != kRecordAppend) {
    return none;
  }
  size_t key_at = 1;
  auto key_len = GetVarint(first, key_at);
  if (!key_len || *key_len > left - key_at) return none;
  TC_ASSIGN_OR_RETURN(BytesView record,
                      window(pos, key_at + *key_len + kMaxVarintBytes));
  head.key = std::string_view(
      reinterpret_cast<const char*>(record.data()) + key_at, *key_len);
  size_t value_at = key_at + *key_len;
  if (head.type != kRecordTombstone) {
    auto len = GetVarint(record, value_at);
    if (!len || *len > left - value_at) return none;
    head.value_len = *len;
  }
  head.value_at = value_at;
  return std::optional<RecordHead>(head);
}

/// A window (see ParseRecord) on log bytes held in memory from offset 0.
inline auto InMemory(BytesView bytes) {
  return [bytes](uint64_t at, uint64_t n) -> Result<BytesView> {
    return bytes.subspan(at, std::min<uint64_t>(n, bytes.size() - at));
  };
}

/// Calls `visit(head, at)` for each whole record read through `window`
/// from offset 0 of a log `end` bytes long, in order. Returns the offset
/// past the last one: `end`, unless the bytes there are no whole record.
template <typename Window, typename Visit>
Result<uint64_t> ForEachRecord(Window&& window, uint64_t end, Visit&& visit) {
  uint64_t pos = 0;
  while (pos < end) {
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(window, pos, end));
    if (!head) break;
    TC_RETURN_IF_ERROR(visit(*head, pos));
    pos += head->size();
  }
  return pos;
}

/// `length` bytes of a value at log offset `offset`.
struct Extent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

class LogFile {
 public:
  /// Replay reads the log through a buffer of this size, so opening a log
  /// holds this much of it in memory, not all of it.
  static constexpr size_t kReplayBufferBytes = size_t{1} << 20;

  /// Opens the log at `path`, creating it if absent; read its records with
  /// Replay before the first write. A `staged` log starts empty, over any
  /// file there, and removes its file when destroyed before RenameTo
  /// installs it.
  static Result<std::shared_ptr<LogFile>> Open(const std::string& path,
                                               bool staged = false);
  /// Removes the file at `path`, if any.
  static void Remove(const std::string& path);

  ~LogFile();
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  const std::string& path() const { return path_; }
  /// The log's length, counting records still in the write buffer.
  uint64_t end() const { return end_; }

  /// Calls `visit(head, at, window)` for each whole record of the file, in
  /// order, with `at` its offset and `window` a Window that reads its
  /// value. Replay reads each header and key and skips over the value.
  /// `head.key` views the window's buffer, so a call to `window` may
  /// overwrite it. A torn tail after the last whole record is truncated away, so appends
  /// follow a well-formed record.
  template <typename Visit>
  Status Replay(Visit&& visit) {
    TC_ASSIGN_OR_RETURN(uint64_t size, Size());
    auto window = Window(size);
    TC_ASSIGN_OR_RETURN(
        end_, ForEachRecord(window, size, [&](const RecordHead& head,
                                              uint64_t at) {
          return visit(head, at, window);
        }));
    flushed_end_ = end_;
    return end_ < size ? Truncate(end_) : Status::Ok();
  }

  /// Appends one record; its head's key views `key`.
  Result<RecordHead> Append(uint8_t type, std::string_view key,
                            BytesView value);
  /// Appends `records`: whole records.
  Status Write(BytesView records);

  /// Makes the log's bytes up to offset `end` readable through the file:
  /// flushes the write buffer unless an earlier flush already covered
  /// them. Unavailable if they were lost with a failed write.
  Status FlushThrough(uint64_t end);
  /// Group commit: flushes the whole log, unless a concurrent caller's
  /// flush (or a read's) already covered every record written before it.
  Status Sync() { return FlushThrough(end_); }

  /// A flush run without the caller's lock: StartFlush under the lock,
  /// Run without it, then FinishFlush under it again.
  struct PendingFlush {
    // Held here, the handle stays open while a new file replaces the log.
    std::shared_ptr<std::FILE> handle;  // null when nothing is buffered
    uint64_t end = 0;
    bool ok = false;

    void Run() { ok = std::fflush(handle.get()) == 0; }
  };
  Result<PendingFlush> StartFlush() const;
  /// Records the flush's outcome, if its handle is still this file's.
  Status FinishFlush(const PendingFlush& flush);

  /// Flushes the log and renames its file to `path`, over the file there.
  /// The handles follow the file, so none is reopened; a reader holding
  /// the file that was at `path` finishes on it.
  Status RenameTo(const std::string& path);

  /// Read `extents` (in log order, totalling the size of `out`) into
  /// `out`; extents a small gap apart share one pread. Log bytes never
  /// change once written, so this needs no lock.
  Status ReadValue(std::span<const Extent> extents, Bytes& out) const;
  /// Whole records from `offset`, a record boundary before `end`: as many
  /// as fit in `max_bytes`, or the first alone if it is larger.
  Result<Bytes> ReadRecords(uint64_t offset, uint64_t end,
                            size_t max_bytes) const;

 private:
  LogFile(std::string path, bool staged)
      : path_(std::move(path)), staged_(staged) {}

  /// A window (see ParseRecord) on the file's bytes before `end`, through
  /// a buffer of kReplayBufferBytes refilled from `at` when the bytes asked
  /// for are not all in it; only a key about the buffer's size grows it. A
  /// view stays valid until the next call.
  auto Window(uint64_t end) const {
    return [this, end, buf = Bytes(), buf_at = uint64_t{0}](
               uint64_t at, uint64_t n) mutable -> Result<BytesView> {
      n = std::min(n, end - at);
      if (at < buf_at || at + n > buf_at + buf.size()) {
        buf.resize(std::min(std::max<uint64_t>(n, kReplayBufferBytes),
                            end - at));
        TC_RETURN_IF_ERROR(Read(buf.data(), buf.size(), at));
        buf_at = at;
      }
      return BytesView(buf).subspan(at - buf_at, n);
    };
  }

  /// Exactly `n` bytes at `offset`; DataLoss if the file ends first.
  Status Read(uint8_t* dst, size_t n, uint64_t offset) const;
  Result<uint64_t> Size() const;
  Status Truncate(uint64_t size);
  /// After a failed write or flush: closes the append handle, and counts
  /// as flushed only the records the file is seen to hold.
  void DropAppendHandle();

  std::string path_;
  bool staged_;
  int fd_ = -1;  // read-only
  std::shared_ptr<std::FILE> append_;  // null once a write failed
  // The log's length, and the prefix of it known to be in the file.
  uint64_t end_ = 0;
  uint64_t flushed_end_ = 0;
};

}  // namespace tc::store
