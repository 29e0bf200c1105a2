#include "store/log_kv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/varint.hpp"

namespace tc::store {

namespace {
constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;
constexpr uint8_t kRecordAppend = 3;  // value = suffix of the key's value

constexpr size_t kMaxVarintBytes = 10;
/// A Get reads two extents with one pread when at most this many bytes of
/// other records lie between them, about where copying the gap out of the
/// page cache costs as much as one more pread. The gaps between an index
/// node's entries, appended one per chunk, are the records every stream
/// of the shard wrote meanwhile: with one stream ingesting they are the
/// chunk records alone and a node is one read; with a dozen or more
/// streams interleaving, a node costs up to one read per entry.
constexpr uint64_t kMaxReadGap = 4096;

/// Process-wide log-store op counters (all LogKvStore instances sum into
/// one family; per-shard splits come from the kClusterInfo gauges).
struct StoreOps {
  metrics::Counter& puts;
  metrics::Counter& appends;
  metrics::Counter& gets;
  metrics::Counter& deletes;
  metrics::Counter& syncs;
  metrics::Counter& compactions;
};

StoreOps& Ops() {
  static StoreOps ops{metrics::GetCounter("tc_store_puts_total"),
                      metrics::GetCounter("tc_store_appends_total"),
                      metrics::GetCounter("tc_store_gets_total"),
                      metrics::GetCounter("tc_store_deletes_total"),
                      metrics::GetCounter("tc_store_syncs_total"),
                      metrics::GetCounter("tc_store_compactions_total")};
  return ops;
}
}  // namespace

class LogKvStore::ReadFile {
 public:
  /// NotFound when `path` does not exist.
  static Result<std::shared_ptr<const ReadFile>> Open(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return NotFound("no log file: " + path);
      return Unavailable("cannot open log for reading: " + path);
    }
    return std::make_shared<const ReadFile>(fd);
  }

  explicit ReadFile(int fd) : fd_(fd) {}
  ~ReadFile() { ::close(fd_); }
  ReadFile(const ReadFile&) = delete;
  ReadFile& operator=(const ReadFile&) = delete;

  Result<uint64_t> Size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) return Unavailable("cannot stat log file");
    return static_cast<uint64_t>(st.st_size);
  }

  /// Exactly `n` bytes at `offset`; DataLoss if the file ends first.
  Status Read(uint8_t* dst, size_t n, uint64_t offset) const {
    while (n > 0) {
      ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        return DataLoss("short read at log offset " + std::to_string(offset));
      }
      dst += got;
      n -= static_cast<size_t>(got);
      offset += static_cast<uint64_t>(got);
    }
    return Status::Ok();
  }

 private:
  int fd_;
};

LogKvStore::LogKvStore(std::string path, LogKvOptions options)
    : path_(std::move(path)), options_(options) {}

LogKvStore::~LogKvStore() {
  MutexLock lock(mu_);
  if (log_ != nullptr) std::fclose(log_);
}

Result<std::unique_ptr<LogKvStore>> LogKvStore::Open(const std::string& path,
                                                     LogKvOptions options) {
  auto store = std::unique_ptr<LogKvStore>(new LogKvStore(path, options));
  // The store has not escaped this function yet, so the lock is
  // uncontended; taking it anyway keeps Replay under the same capability
  // as every other dir_/log_ access.
  MutexLock lock(store->mu_);
  TC_RETURN_IF_ERROR(store->Replay());
  store->log_ = std::fopen(path.c_str(), "ab");
  if (store->log_ == nullptr) {
    return Unavailable("cannot open log file: " + path);
  }
  TC_ASSIGN_OR_RETURN(store->reader_, ReadFile::Open(path));
  return store;
}

LogKvStore::Entry LogKvStore::WholeValue(uint64_t offset, uint64_t size) {
  Entry entry;
  entry.size = size;
  if (size > 0) entry.extents.push_back({offset, size});
  return entry;
}

void LogKvStore::ApplyPut(const std::string& key, uint64_t offset,
                          uint64_t size) {
  auto [it, inserted] = dir_.try_emplace(key);
  if (!inserted) {
    dead_bytes_ += it->second.size;
    value_bytes_ -= it->second.size;
    extent_count_ -= it->second.extents.size();
  }
  it->second = WholeValue(offset, size);
  value_bytes_ += size;
  extent_count_ += it->second.extents.size();
}

void LogKvStore::ApplyAppend(Entry& entry, uint64_t offset, uint64_t length) {
  if (length > 0) {
    entry.extents.push_back({offset, length});
    ++extent_count_;
  }
  entry.size += length;
  value_bytes_ += length;
}

void LogKvStore::ApplyDelete(Directory::iterator it) {
  dead_bytes_ += it->second.size;
  value_bytes_ -= it->second.size;
  extent_count_ -= it->second.extents.size();
  dir_.erase(it);
}

Status LogKvStore::Replay() {
  auto file = ReadFile::Open(path_);
  if (file.status().code() == StatusCode::kNotFound) return Status::Ok();
  TC_RETURN_IF_ERROR(file.status());
  TC_ASSIGN_OR_RETURN(uint64_t file_size, (*file)->Size());

  // The log's bytes [at, at + n), clipped at the end of the file. They come
  // from a buffer of kReplayBufferBytes, refilled from `at` when they are
  // not all in it; only a key about the buffer's size grows it.
  Bytes buf;
  uint64_t buf_at = 0;  // file offset of buf[0]
  auto window = [&](uint64_t at, uint64_t n) -> Result<BytesView> {
    n = std::min(n, file_size - at);
    if (at < buf_at || at + n > buf_at + buf.size()) {
      buf.resize(std::min(std::max<uint64_t>(n, kReplayBufferBytes),
                          file_size - at));
      TC_RETURN_IF_ERROR((*file)->Read(buf.data(), buf.size(), at));
      buf_at = at;
    }
    return BytesView(buf).subspan(at - buf_at, n);
  };

  // Records are `type keylen key [vallen value]`. Replay reads each header
  // and key and skips over the value, recording where it lies. A record
  // that runs past the end of the file is a torn tail write.
  uint64_t pos = 0;  // offset just past the last complete record
  while (pos < file_size) {
    uint64_t left = file_size - pos;
    TC_ASSIGN_OR_RETURN(BytesView head, window(pos, 1 + kMaxVarintBytes));
    uint8_t type = head[0];
    if (type != kRecordPut && type != kRecordTombstone &&
        type != kRecordAppend) {
      break;  // garbage tail (crash mid-write): recover the valid prefix
    }
    size_t key_at = 1;
    auto key_len = GetVarint(head, key_at);
    if (!key_len || *key_len > left - key_at) break;
    TC_ASSIGN_OR_RETURN(BytesView record,
                        window(pos, key_at + *key_len + kMaxVarintBytes));
    std::string key(record.begin() + key_at,
                    record.begin() + key_at + *key_len);
    size_t value_at = key_at + *key_len;
    uint64_t value_len = 0;
    if (type != kRecordTombstone) {
      auto len = GetVarint(record, value_at);
      if (!len || *len > left - value_at) break;
      value_len = *len;
    }
    if (type == kRecordPut) {
      ApplyPut(key, pos + value_at, value_len);
    } else if (type == kRecordTombstone) {
      auto it = dir_.find(key);
      if (it != dir_.end()) ApplyDelete(it);
    } else {
      // Append() refuses absent keys, so a complete append record without
      // its base value is corruption, not a torn tail: truncating here
      // would silently drop every record after it.
      auto it = dir_.find(key);
      if (it == dir_.end()) {
        return DataLoss("log " + path_ + ": append record at offset " +
                        std::to_string(pos) + " for absent key " + key);
      }
      ApplyAppend(it->second, pos + value_at, value_len);
    }
    pos += value_at + value_len;
  }
  if (pos < file_size) {
    // Drop the torn tail so future appends follow a well-formed record —
    // otherwise the next Replay would stop at the garbage and lose them.
    TC_RETURN_IF_ERROR(TruncateTo(pos));
  }
  log_end_ = flushed_end_ = pos;
  return Status::Ok();
}

Status LogKvStore::TruncateTo(size_t size) {
  // POSIX truncate by path: Replay runs before the append handle opens.
  if (::truncate(path_.c_str(), static_cast<off_t>(size)) != 0) {
    return Unavailable("cannot truncate torn log tail: " + path_);
  }
  return Status::Ok();
}

Result<uint64_t> LogKvStore::AppendRecord(uint8_t type,
                                          const std::string& key,
                                          BytesView value) {
  // A failed compaction or append can lose the append handle; refuse
  // writes instead of fwrite-ing into a null stream.
  if (log_ == nullptr) {
    return Unavailable("log append handle closed (failed compaction?): " +
                       path_);
  }
  BinaryWriter w(key.size() + value.size() + 16);
  w.PutU8(type);
  w.PutString(key);
  if (type != kRecordTombstone) w.PutBytes(value);
  if (std::fwrite(w.data().data(), 1, w.size(), log_) != w.size()) {
    // Part of the record may have reached the file, so the offset of the
    // next one is unknown and the directory could not point at it. Refuse
    // writes until a compaction rewrites the log or the store reopens.
    // Earlier records still in the write buffer may have failed with this
    // one, and stdio can drop a buffer whose write failed, so fclose's
    // result alone does not show they reached the file. The file's size
    // does: it holds them all only if it reaches log_end_. If it does not,
    // Sync and any Get of their keys fail from here on.
    bool closed = std::fclose(log_) == 0;
    log_ = nullptr;
    auto size = reader_->Size();
    if (closed && size.ok() && *size >= log_end_) flushed_end_ = log_end_;
    return Unavailable("log append failed: " + path_);
  }
  uint64_t value_at = log_end_ + w.size() - value.size();
  log_end_ += w.size();
  return value_at;
}

Status LogKvStore::FlushThrough(uint64_t end) const {
  if (end <= flushed_end_) return Status::Ok();
  if (log_ == nullptr) {
    return Unavailable("log records lost with a failed write: " + path_);
  }
  if (std::fflush(log_) != 0) return Unavailable("fflush failed: " + path_);
  flushed_end_ = log_end_;
  return Status::Ok();
}

Status LogKvStore::ReadValue(const ReadFile& file,
                             std::span<const Extent> extents, Bytes& out) {
  uint8_t* dst = out.data();
  for (size_t i = 0; i < extents.size();) {
    // One read covers a run of extents that each start at most kMaxReadGap
    // bytes after the previous one ends.
    uint64_t start = extents[i].offset;
    uint64_t end = start + extents[i].length;
    size_t j = i + 1;
    while (j < extents.size() && extents[j].offset >= end &&
           extents[j].offset - end <= kMaxReadGap) {
      end = extents[j].offset + extents[j].length;
      ++j;
    }
    if (j == i + 1) {
      TC_RETURN_IF_ERROR(file.Read(dst, extents[i].length, start));
      dst += extents[i].length;
    } else {
      // Into a buffer, the records between the extents too: a preadv that
      // scattered the extents and dropped the rest costs the kernel more
      // per piece than copying the run out again does.
      auto run = std::make_unique_for_overwrite<uint8_t[]>(end - start);
      TC_RETURN_IF_ERROR(file.Read(run.get(), end - start, start));
      for (; i < j; ++i) {
        std::memcpy(dst, run.get() + (extents[i].offset - start),
                    extents[i].length);
        dst += extents[i].length;
      }
    }
    i = j;
  }
  return Status::Ok();
}

void LogKvStore::MaybeAutoCompactLocked() {
  if (options_.compact_dead_fraction <= 0.0) return;
  if (dead_bytes_ < options_.compact_min_dead_bytes) return;
  if (dead_bytes_ < compact_backoff_dead_bytes_) return;
  size_t total = value_bytes_ + dead_bytes_;
  if (static_cast<double>(dead_bytes_) <=
      options_.compact_dead_fraction * static_cast<double>(total)) {
    return;
  }
  // Best-effort: an auto-compaction failure (e.g. disk full for the rewrite
  // copy) must not fail the Put/Delete that tripped it — the log is still
  // correct, just fat. Don't immediately retry a full O(store) rewrite on
  // every subsequent write either: back off until another min_dead_bytes of
  // churn accumulates (the backoff resets when any compaction succeeds).
  auto compacted = CompactLocked();
  if (!compacted.ok()) {
    TC_LOG_WARN << "auto-compaction of " << path_
                << " failed: " << compacted.status().ToString();
    compact_backoff_dead_bytes_ =
        dead_bytes_ + std::max(options_.compact_min_dead_bytes,
                               size_t{1} << 20);
  }
}

Status LogKvStore::Put(const std::string& key, BytesView value) {
  if constexpr (metrics::kEnabled) Ops().puts.Inc();
  MutexLock lock(mu_);
  TC_ASSIGN_OR_RETURN(uint64_t offset, AppendRecord(kRecordPut, key, value));
  ApplyPut(key, offset, value.size());
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<Bytes> LogKvStore::Get(const std::string& key) const {
  if constexpr (metrics::kEnabled) Ops().gets.Inc();
  uint64_t size = 0;
  std::vector<Extent> extents;
  std::shared_ptr<const ReadFile> file;
  {
    MutexLock lock(mu_);
    auto it = dir_.find(key);
    if (it == dir_.end()) return NotFound("key not found: " + key);
    size = it->second.size;
    extents = it->second.extents;
    if (!extents.empty()) {
      TC_RETURN_IF_ERROR(
          FlushThrough(extents.back().offset + extents.back().length));
    }
    file = reader_;
  }
  // Log bytes never change once written and Compact() writes a new file,
  // so the extents stay valid in `file` without the lock.
  Bytes value(size);
  TC_RETURN_IF_ERROR(ReadValue(*file, extents, value));
  return value;
}

Status LogKvStore::Delete(const std::string& key) {
  if constexpr (metrics::kEnabled) Ops().deletes.Inc();
  MutexLock lock(mu_);
  auto it = dir_.find(key);
  if (it == dir_.end()) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(AppendRecord(kRecordTombstone, key, {}).status());
  ApplyDelete(it);
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<size_t> LogKvStore::Append(const std::string& key,
                                  size_t expected_size, BytesView suffix) {
  if constexpr (metrics::kEnabled) Ops().appends.Inc();
  MutexLock lock(mu_);
  auto it = dir_.find(key);
  if (it == dir_.end()) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(CheckAppendSize(key, it->second.size, expected_size));
  TC_ASSIGN_OR_RETURN(uint64_t offset,
                      AppendRecord(kRecordAppend, key, suffix));
  ApplyAppend(it->second, offset, suffix.size());
  return it->second.size;
}

bool LogKvStore::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  return dir_.contains(key);
}

size_t LogKvStore::Size() const {
  MutexLock lock(mu_);
  return dir_.size();
}

size_t LogKvStore::ValueBytes() const {
  MutexLock lock(mu_);
  return value_bytes_;
}

Status LogKvStore::Scan(
    const std::function<void(const std::string&, BytesView)>& fn) const {
  // The directory and descriptor as of one instant, the extents of all
  // values in one array; as in Get, the values are read without the lock.
  struct Item {
    std::string key;
    uint64_t size;
    size_t extents_end;  // items[i]'s extents end where items[i + 1]'s start
  };
  std::vector<Item> items;
  std::vector<Extent> extents;
  std::shared_ptr<const ReadFile> file;
  {
    MutexLock lock(mu_);
    TC_RETURN_IF_ERROR(FlushThrough(log_end_));
    items.reserve(dir_.size());
    extents.reserve(extent_count_);
    for (const auto& [key, entry] : dir_) {
      extents.insert(extents.end(), entry.extents.begin(),
                     entry.extents.end());
      items.push_back({key, entry.size, extents.size()});
    }
    file = reader_;
  }
  Bytes value;
  size_t extents_begin = 0;
  for (const auto& item : items) {
    value.resize(item.size);
    TC_RETURN_IF_ERROR(ReadValue(
        *file,
        std::span(extents).subspan(extents_begin,
                                   item.extents_end - extents_begin),
        value));
    extents_begin = item.extents_end;
    fn(item.key, value);
  }
  return Status::Ok();
}

Result<size_t> LogKvStore::Compact() {
  MutexLock lock(mu_);
  return CompactLocked();
}

Result<size_t> LogKvStore::CompactLocked() {
  // Values are copied out of the log, so all of it must be in the file.
  TC_RETURN_IF_ERROR(FlushThrough(log_end_));
  std::string tmp_path = path_ + ".compact";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) return Unavailable("cannot open compaction file");

  // Where each value lands in the new log, in dir_'s iteration order; dir_
  // is updated only once the new log has replaced the old one.
  std::vector<uint64_t> offsets;
  offsets.reserve(dir_.size());
  uint64_t tmp_end = 0;
  Bytes value;
  for (const auto& [key, entry] : dir_) {
    value.resize(entry.size);
    Status read = ReadValue(*reader_, entry.extents, value);
    BinaryWriter w(key.size() + 16);
    w.PutU8(kRecordPut);
    w.PutString(key);
    w.PutVar(value.size());
    offsets.push_back(tmp_end + w.size());
    tmp_end += w.size() + value.size();
    if (!read.ok() ||
        std::fwrite(w.data().data(), 1, w.size(), tmp) != w.size() ||
        std::fwrite(value.data(), 1, value.size(), tmp) != value.size()) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return read.ok() ? Unavailable("compaction write failed") : read;
    }
  }
  if (std::fclose(tmp) != 0) {
    std::remove(tmp_path.c_str());
    return Unavailable("compaction write failed");
  }
  auto reader = ReadFile::Open(tmp_path);
  if (!reader.ok()) {
    std::remove(tmp_path.c_str());
    return reader.status();
  }
  // The flush above put every record appended so far in the file, so
  // closing the old handle loses nothing.
  if (log_ != nullptr) std::fclose(log_);
  log_ = nullptr;
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    // The old log is intact at path_; reopen it so appends keep working.
    std::remove(tmp_path.c_str());
    log_ = std::fopen(path_.c_str(), "ab");
    return Unavailable("compaction rename failed");
  }
  size_t i = 0;
  extent_count_ = 0;
  for (auto& [key, entry] : dir_) {
    entry = WholeValue(offsets[i++], entry.size);
    extent_count_ += entry.extents.size();
  }
  // A Get that copied the old descriptor finishes on the old file.
  reader_ = std::move(*reader);
  log_end_ = flushed_end_ = tmp_end;
  size_t reclaimed = dead_bytes_;
  dead_bytes_ = 0;
  ++compactions_;
  if constexpr (metrics::kEnabled) Ops().compactions.Inc();
  trace::RecordEvent("store_compaction", trace::kNoShard,
                     path_ + " reclaimed=" + std::to_string(reclaimed));
  compact_backoff_dead_bytes_ = 0;  // a successful rewrite clears the backoff
  log_ = std::fopen(path_.c_str(), "ab");
  if (log_ == nullptr) return Unavailable("cannot reopen log");
  return reclaimed;
}

Status LogKvStore::Sync() {
  if constexpr (metrics::kEnabled) Ops().syncs.Inc();
  MutexLock lock(mu_);
  // Group commit: if a concurrent caller's flush already covered every
  // record appended before this Sync, skip the (expensive) flush entirely.
  return FlushThrough(log_end_);
}

size_t LogKvStore::DeadBytes() const {
  MutexLock lock(mu_);
  return dead_bytes_;
}

uint64_t LogKvStore::CompactionCount() const {
  MutexLock lock(mu_);
  return compactions_;
}

store::KvStore::CompactionStats LogKvStore::Compaction() const {
  MutexLock lock(mu_);
  return {compactions_, dead_bytes_};
}

}  // namespace tc::store
