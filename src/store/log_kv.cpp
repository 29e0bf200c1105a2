#include "store/log_kv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/varint.hpp"
#include "crypto/rand.hpp"

namespace tc::store {

namespace {
constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;
constexpr uint8_t kRecordAppend = 3;  // value = suffix of the key's value

/// A Get reads two extents with one pread when at most this many bytes of
/// other records lie between them, about where copying the gap out of the
/// page cache costs as much as one more pread. The gaps between an index
/// node's entries, appended one per chunk, are the records every stream
/// of the shard wrote meanwhile: with one stream ingesting they are the
/// chunk records alone and a node is one read; with a dozen or more
/// streams interleaving, a node costs up to one read per entry.
constexpr uint64_t kMaxReadGap = 4096;
/// Get copies a value's extents out of the directory onto its stack when
/// there are at most this many: an index node has one per entry, and 64 is
/// the default fanout.
constexpr size_t kInlineExtents = 64;

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

/// A kGenerationKey value: the generation's id, its parent's, and
/// LogGeneration::replaced.
Bytes EncodeGeneration(uint64_t id, uint64_t parent, uint64_t replaced) {
  BinaryWriter w(24);
  w.PutU64(id);
  w.PutU64(parent);
  w.PutU64(replaced);
  return std::move(w).Take();
}

/// Opens `path` for appending; null when it cannot be opened.
std::shared_ptr<std::FILE> OpenAppend(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) return nullptr;
  return std::shared_ptr<std::FILE>(file, [](std::FILE* f) { std::fclose(f); });
}

std::string Describe(const LogPosition& at) {
  return "generation " + std::to_string(at.generation) + " length " +
         std::to_string(at.length);
}

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

  /// The file's bytes [at, at + n), clipped at `end`, through a buffer of
  /// kReplayBufferBytes refilled from `at` when they are not all in it;
  /// only a key about the buffer's size grows it. A view stays valid until
  /// the next call.
  class Window {
   public:
    Window(const ReadFile& file, uint64_t end) : file_(file), end_(end) {}

    Result<BytesView> operator()(uint64_t at, uint64_t n) {
      n = std::min(n, end_ - at);
      if (at < buf_at_ || at + n > buf_at_ + buf_.size()) {
        buf_.resize(std::min(std::max<uint64_t>(n, kReplayBufferBytes),
                             end_ - at));
        TC_RETURN_IF_ERROR(file_.Read(buf_.data(), buf_.size(), at));
        buf_at_ = at;
      }
      return BytesView(buf_).subspan(at - buf_at_, n);
    }

   private:
    const ReadFile& file_;
    const uint64_t end_;
    Bytes buf_;
    uint64_t buf_at_ = 0;  // file offset of buf_[0]
  };

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

/// One record's header: `type keylen key [vallen]`, then the value.
struct LogKvStore::RecordHead {
  uint8_t type = 0;
  std::string_view key;  // a view into the window that parsed it
  uint64_t value_at = 0;  // from the record's first byte
  uint64_t value_len = 0;

  uint64_t size() const { return value_at + value_len; }
};

template <typename Window>
Result<std::optional<LogKvStore::RecordHead>> LogKvStore::ParseRecord(
    Window&& window, uint64_t pos, uint64_t end) {
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

/// A live key: where its bytes are in the arena, and its value's size and
/// log extents. An empty value has no extents; otherwise the first starts
/// at `offset`, and `more`, when not 0, is 1 + the side-table slot holding
/// the others, in log order. The first extent is `size` minus their sum.
struct LogKvStore::Record {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t key_block = 0;
  uint32_t key_at = 0;
  uint32_t hash = 0;  // of the key, so probes and growth need not read it
  uint32_t more = 0;
};

/// Open addressing with linear probing over record ids. A directory holds
/// fewer than 2^32 - 1 records: 128 GiB of them.
class LogKvStore::Directory {
 public:
  Directory() : slots_(16, kEmpty) {}

  /// Live keys.
  size_t size() const { return live_; }

  const Record* Find(std::string_view key) const {
    uint32_t id = slots_[Probe(key, Hash(key))];
    return id == kEmpty ? nullptr : &At(id);
  }
  Record* Find(std::string_view key) {
    return const_cast<Record*>(std::as_const(*this).Find(key));
  }

  /// The record of `key`, added with an empty value if absent; the flag
  /// says whether it was.
  std::pair<Record*, bool> FindOrInsert(std::string_view key) {
    // Grow before probing, so the slot found is where the key goes.
    if ((live_ + 1) * 4 > slots_.size() * 3) Grow();
    uint32_t hash = Hash(key);
    size_t slot = Probe(key, hash);
    if (slots_[slot] != kEmpty) return {&At(slots_[slot]), false};
    uint32_t id = records_++;
    if (id % kRecordsPerBlock == 0) {
      record_blocks_.push_back(
          std::make_unique<Record[]>(kRecordsPerBlock));
    }
    Record& record = At(id);  // value-initialized with its block
    record.hash = hash;
    StoreKey(record, key);
    slots_[slot] = id;
    ++live_;
    return {&record, true};
  }

  /// Drops `key`; returns its value's size, or nullopt if it was absent.
  std::optional<uint64_t> Erase(std::string_view key) {
    size_t hole = Probe(key, Hash(key));
    if (slots_[hole] == kEmpty) return std::nullopt;
    Record& record = At(slots_[hole]);
    FreeMore(record);
    record.key_block = kErased;
    --live_;
    // Backward-shift deletion: pull each later record of the probe run
    // into the hole unless that would put it before its home slot, so
    // every remaining key is still reached from its home without a gap.
    const size_t mask = slots_.size() - 1;
    for (size_t i = (hole + 1) & mask; slots_[i] != kEmpty; i = (i + 1) & mask) {
      size_t home = At(slots_[i]).hash & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = kEmpty;
    return record.size;
  }

  std::string_view Key(const Record& record) const {
    // StoreKey left room for a whole varint at every key.
    const uint8_t* at = key_blocks_[record.key_block].get() + record.key_at;
    size_t pos = 0;
    uint64_t length = *GetVarint(BytesView(at, kMaxVarintBytes), pos);
    return {reinterpret_cast<const char*>(at + pos), length};
  }

  /// Sets the value to the `size` bytes at log offset `offset`.
  void SetValue(Record& record, uint64_t offset, uint64_t size) {
    FreeMore(record);
    record.offset = offset;
    record.size = size;
  }

  /// Adds `length` bytes at log offset `offset` to the end of the value.
  void AddExtent(Record& record, uint64_t offset, uint64_t length) {
    if (length == 0) return;
    if (record.size == 0) {
      SetValue(record, offset, length);
      return;
    }
    if (record.more == 0) {
      if (free_more_.empty()) {
        more_.emplace_back();
        record.more = static_cast<uint32_t>(more_.size());
      } else {
        record.more = free_more_.back() + 1;
        free_more_.pop_back();
      }
    }
    more_[record.more - 1].push_back({offset, length});
    record.size += length;
  }

  size_t ExtentCount(const Record& record) const {
    if (record.size == 0) return 0;
    return 1 + (record.more == 0 ? 0 : more_[record.more - 1].size());
  }

  /// Writes the value's ExtentCount(record) extents to `out`.
  void CopyExtents(const Record& record, std::span<Extent> out) const {
    if (out.empty()) return;
    uint64_t first = record.size;
    if (record.more != 0) {
      const auto& rest = more_[record.more - 1];
      std::copy(rest.begin(), rest.end(), out.begin() + 1);
      for (const Extent& e : rest) first -= e.length;
    }
    out[0] = {record.offset, first};
  }

  /// Record ids run from 0 to this, in insertion order, erased ones
  /// included.
  uint32_t records() const { return records_; }
  /// The record with id `id`, or nullptr if its key was erased.
  const Record* Live(uint32_t id) const {
    const Record& record = At(id);
    return record.key_block == kErased ? nullptr : &record;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;   // a free table slot
  static constexpr uint32_t kErased = UINT32_MAX;  // key_block of an erased record
  static constexpr size_t kKeyBlockBytes = size_t{64} << 10;
  static constexpr uint32_t kRecordsPerBlock = 2048;  // 64 KiB
  static_assert(sizeof(Record) == 32);

  static uint32_t Hash(std::string_view key) {
    uint64_t h = std::hash<std::string_view>{}(key);
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

  const Record& At(uint32_t id) const {
    return record_blocks_[id / kRecordsPerBlock][id % kRecordsPerBlock];
  }
  Record& At(uint32_t id) {
    return record_blocks_[id / kRecordsPerBlock][id % kRecordsPerBlock];
  }

  /// The table slot holding `key`, or the free slot where it would go.
  size_t Probe(std::string_view key, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      uint32_t id = slots_[i];
      if (id == kEmpty) return i;
      const Record& record = At(id);
      if (record.hash == hash && Key(record) == key) return i;
    }
  }

  /// Doubles the table and places every live record in it again.
  void Grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < records_; ++id) {
      const Record* record = Live(id);
      if (record == nullptr) continue;
      size_t i = record->hash & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  /// Copies `key`, behind its varint length, to the arena's last block,
  /// or to a new block when it might not fit: one of kKeyBlockBytes, or of
  /// the key's size for a key longer than that.
  void StoreKey(Record& record, std::string_view key) {
    size_t room = kMaxVarintBytes + key.size();
    if (key_block_used_ + room > kKeyBlockBytes) {
      key_blocks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          std::max(room, kKeyBlockBytes)));
      key_block_used_ = 0;
    }
    uint8_t* at = key_blocks_.back().get() + key_block_used_;
    size_t prefix = PutVarint(at, key.size());
    std::memcpy(at + prefix, key.data(), key.size());
    record.key_block = static_cast<uint32_t>(key_blocks_.size() - 1);
    record.key_at = static_cast<uint32_t>(key_block_used_);
    key_block_used_ += prefix + key.size();
  }

  void FreeMore(Record& record) {
    if (record.more == 0) return;
    std::vector<Extent>().swap(more_[record.more - 1]);
    free_more_.push_back(record.more - 1);
    record.more = 0;
  }

  std::vector<std::unique_ptr<uint8_t[]>> key_blocks_;
  size_t key_block_used_ = kKeyBlockBytes;  // bytes of key_blocks_.back()
  std::vector<std::unique_ptr<Record[]>> record_blocks_;
  uint32_t records_ = 0;  // ids handed out, erased ones included
  size_t live_ = 0;
  std::vector<uint32_t> slots_;  // record ids; size a power of two
  std::vector<std::vector<Extent>> more_;  // the side table
  std::vector<uint32_t> free_more_;
};

LogKvStore::LogKvStore(std::string path, LogKvOptions options)
    : path_(std::move(path)), options_(options),
      dir_(std::make_unique<Directory>()) {}

LogKvStore::~LogKvStore() = default;

Result<std::unique_ptr<LogKvStore>> LogKvStore::Open(const std::string& path,
                                                     LogKvOptions options) {
  auto store = std::unique_ptr<LogKvStore>(new LogKvStore(path, options));
  // The store has not escaped this function yet, so the lock is
  // uncontended; taking it anyway keeps Replay under the same capability
  // as every other dir_/log_ access.
  MutexLock lock(store->mu_);
  // A copy a follower had not finished when it stopped is of no use: the
  // shipper starts any copy over.
  std::remove(store->CopyPath().c_str());
  TC_RETURN_IF_ERROR(store->Replay());
  store->log_ = OpenAppend(path);
  if (store->log_ == nullptr) {
    return Unavailable("cannot open log file: " + path);
  }
  TC_ASSIGN_OR_RETURN(store->reader_, ReadFile::Open(path));
  return store;
}

void LogKvStore::ApplyPut(std::string_view key, uint64_t offset,
                          uint64_t size) {
  auto [record, inserted] = dir_->FindOrInsert(key);
  if (!inserted) {
    dead_bytes_ += record->size;
    value_bytes_ -= record->size;
  }
  dir_->SetValue(*record, offset, size);
  value_bytes_ += size;
}

void LogKvStore::ApplyAppend(Record& record, uint64_t offset,
                             uint64_t length) {
  dir_->AddExtent(record, offset, length);
  value_bytes_ += length;
}

void LogKvStore::ApplyDelete(std::string_view key) {
  std::optional<uint64_t> size = dir_->Erase(key);
  if (!size) return;
  dead_bytes_ += *size;
  value_bytes_ -= *size;
}

Status LogKvStore::ApplyRecord(const RecordHead& head, uint64_t at) {
  const uint64_t value_at = at + head.value_at;
  if (head.type == kRecordPut) {
    ApplyPut(head.key, value_at, head.value_len);
  } else if (head.type == kRecordTombstone) {
    ApplyDelete(head.key);
  } else {
    // Append() refuses absent keys, so a complete append record without
    // its base value is corruption, not a torn tail: truncating here
    // would silently drop every record after it.
    Record* base = dir_->Find(head.key);
    if (base == nullptr) {
      return DataLoss("log " + path_ + ": append record at offset " +
                      std::to_string(at) + " for absent key " +
                      std::string(head.key));
    }
    ApplyAppend(*base, value_at, head.value_len);
  }
  return Status::Ok();
}

void LogKvStore::NoteGeneration(BytesView value, uint64_t at) {
  BinaryReader r(value);
  auto id = r.GetU64();
  auto parent = r.GetU64();
  auto replaced = r.GetU64();
  if (id.ok() && parent.ok() && replaced.ok() && r.AtEnd()) {
    generation_ = {*id, *parent, at, *replaced};
  }
}

Status LogKvStore::Replay() {
  auto file = ReadFile::Open(path_);
  if (file.status().code() == StatusCode::kNotFound) return Status::Ok();
  TC_RETURN_IF_ERROR(file.status());
  TC_ASSIGN_OR_RETURN(uint64_t file_size, (*file)->Size());

  // Replay reads each header and key and skips over the value, recording
  // where it lies. A record that runs past the end of the file is a torn
  // tail write.
  ReadFile::Window window(**file, file_size);
  uint64_t pos = 0;  // offset just past the last complete record
  while (pos < file_size) {
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(window, pos, file_size));
    if (!head) break;  // garbage tail (crash mid-write): recover the prefix
    TC_RETURN_IF_ERROR(ApplyRecord(*head, pos));
    if (head->type == kRecordPut && head->key == kGenerationKey) {
      TC_ASSIGN_OR_RETURN(BytesView value,
                          window(pos + head->value_at, head->value_len));
      NoteGeneration(value, pos);
    }
    pos += head->size();
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
  BinaryWriter w(key.size() + value.size() + 16);
  w.PutU8(type);
  w.PutString(key);
  if (type != kRecordTombstone) w.PutBytes(value);
  uint64_t value_at = log_end_ + w.size() - value.size();
  TC_RETURN_IF_ERROR(WriteLocked(w.data()));
  return value_at;
}

Status LogKvStore::WriteLocked(BytesView bytes) {
  // A failed compaction or append can lose the append handle; refuse
  // writes instead of fwrite-ing into a null stream.
  if (log_ == nullptr) {
    return Unavailable("log append handle closed (failed compaction?): " +
                       path_);
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), log_.get()) !=
      bytes.size()) {
    // Part of the bytes may have reached the file, so the offset of the
    // next record is unknown and the directory could not point at it.
    DropAppendHandleLocked();
    return Unavailable("log append failed: " + path_);
  }
  log_end_ += bytes.size();
  return Status::Ok();
}

void LogKvStore::DropAppendHandleLocked() const {
  // Earlier records still in the write buffer may have failed with the
  // write, and stdio drops a buffer whose write failed, so a flush's
  // result alone does not show they reached the file. The file's size
  // does: it holds them all only if it reaches log_end_. If it does not,
  // Sync and any Get of their keys fail from here on.
  bool flushed = std::fflush(log_.get()) == 0;
  log_.reset();
  auto size = reader_->Size();
  if (flushed && size.ok() && *size >= log_end_) flushed_end_ = log_end_;
}

Status LogKvStore::FlushThrough(uint64_t end) const {
  if (end <= flushed_end_) return Status::Ok();
  if (log_ == nullptr) {
    return Unavailable("log records lost with a failed write: " + path_);
  }
  if (std::fflush(log_.get()) != 0) {
    DropAppendHandleLocked();
    return Unavailable("fflush failed: " + path_);
  }
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
  Ops().puts.Inc();
  MutexLock lock(mu_);
  TC_ASSIGN_OR_RETURN(uint64_t offset, AppendRecord(kRecordPut, key, value));
  ApplyPut(key, offset, value.size());
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<Bytes> LogKvStore::Get(const std::string& key) const {
  Ops().gets.Inc();
  uint64_t size = 0;
  // The value's extents, copied out to read them without the lock.
  std::array<Extent, kInlineExtents> inline_extents;
  std::vector<Extent> many_extents;
  std::span<Extent> extents;
  std::shared_ptr<const ReadFile> file;
  {
    MutexLock lock(mu_);
    const Record* record = dir_->Find(key);
    if (record == nullptr) return NotFound("key not found: " + key);
    size = record->size;
    size_t count = dir_->ExtentCount(*record);
    if (count <= kInlineExtents) {
      extents = std::span(inline_extents).first(count);
    } else {
      many_extents.resize(count);
      extents = many_extents;
    }
    dir_->CopyExtents(*record, extents);
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
  Ops().deletes.Inc();
  MutexLock lock(mu_);
  if (dir_->Find(key) == nullptr) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(AppendRecord(kRecordTombstone, key, {}).status());
  ApplyDelete(key);
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<size_t> LogKvStore::Append(const std::string& key,
                                  size_t expected_size, BytesView suffix) {
  Ops().appends.Inc();
  MutexLock lock(mu_);
  Record* record = dir_->Find(key);
  if (record == nullptr) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(CheckAppendSize(key, record->size, expected_size));
  TC_ASSIGN_OR_RETURN(uint64_t offset,
                      AppendRecord(kRecordAppend, key, suffix));
  ApplyAppend(*record, offset, suffix.size());
  return record->size;
}

bool LogKvStore::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  return dir_->Find(key) != nullptr;
}

size_t LogKvStore::Size() const {
  MutexLock lock(mu_);
  return dir_->size();
}

size_t LogKvStore::ValueBytes() const {
  MutexLock lock(mu_);
  return value_bytes_;
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

  // The new log and, beside it, the directory that will describe it: each
  // key in dir_'s order, its value now one put. dir_ is replaced only once
  // the new log has replaced the old one. A log with a generation gets a
  // new one, whose record comes last: a follower's copy of the new log
  // takes its place once it holds that record, so only once it holds
  // every value the old log did.
  auto dense = std::make_unique<Directory>();
  const bool has_generation = generation_.id != 0;
  LogGeneration generation;
  uint64_t tmp_end = 0;
  std::vector<Extent> extents;
  Bytes value;
  for (uint32_t id = 0; id <= dir_->records(); ++id) {
    std::string_view key;
    Status read = Status::Ok();
    if (id == dir_->records()) {
      if (!has_generation) break;
      key = kGenerationKey;
      generation = {crypto::RandomU64() | 1, generation_.id, tmp_end,
                    log_end_};
      value = EncodeGeneration(generation.id, generation.parent,
                               generation.replaced);
    } else {
      const Record* record = dir_->Live(id);
      if (record == nullptr) continue;
      key = dir_->Key(*record);
      if (key == kGenerationKey) continue;
      extents.resize(dir_->ExtentCount(*record));
      dir_->CopyExtents(*record, extents);
      value.resize(record->size);
      read = ReadValue(*reader_, extents, value);
    }
    BinaryWriter w(key.size() + 16);
    w.PutU8(kRecordPut);
    w.PutString(key);
    w.PutVar(value.size());
    dense->SetValue(*dense->FindOrInsert(key).first, tmp_end + w.size(),
                    value.size());
    tmp_end += w.size() + value.size();
    // An empty value's data() may be null, which fwrite must not get.
    if (!read.ok() ||
        std::fwrite(w.data().data(), 1, w.size(), tmp) != w.size() ||
        (!value.empty() &&
         std::fwrite(value.data(), 1, value.size(), tmp) != value.size())) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return read.ok() ? Unavailable("compaction write failed") : read;
    }
  }
  if (std::fclose(tmp) != 0) {
    std::remove(tmp_path.c_str());
    return Unavailable("compaction write failed");
  }
  TC_RETURN_IF_ERROR(SwapInLocked(tmp_path));
  dir_ = std::move(dense);
  log_end_ = flushed_end_ = tmp_end;
  generation_ = generation;
  size_t reclaimed = dead_bytes_;
  dead_bytes_ = 0;
  ++compactions_;
  Ops().compactions.Inc();
  trace::RecordEvent("store_compaction", trace::kNoShard,
                     path_ + " reclaimed=" + std::to_string(reclaimed));
  compact_backoff_dead_bytes_ = 0;  // a successful rewrite clears the backoff
  if (log_ == nullptr) return Unavailable("cannot reopen log");
  return reclaimed;
}

Status LogKvStore::SwapInLocked(const std::string& tmp_path) {
  auto reader = ReadFile::Open(tmp_path);
  if (!reader.ok()) {
    std::remove(tmp_path.c_str());
    return reader.status();
  }
  // The caller flushed every record appended so far into the file, so
  // closing the old handle loses nothing (a ReadLog flushing it closes it
  // when done).
  log_.reset();
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    // The old log is intact at path_; reopen it so appends keep working.
    std::remove(tmp_path.c_str());
    log_ = OpenAppend(path_);
    return Unavailable("cannot rename " + tmp_path + " over " + path_);
  }
  // A Get that copied the old descriptor finishes on the old file. If the
  // append handle does not reopen, writes are refused (see WriteLocked).
  reader_ = std::move(*reader);
  log_ = OpenAppend(path_);
  return Status::Ok();
}

LogHead LogKvStore::Head() const {
  MutexLock lock(mu_);
  return {generation_, log_end_};
}

Status LogKvStore::StartGeneration() {
  MutexLock lock(mu_);
  // A writer's log takes no copies: drop one a follower left unfinished.
  if (copy_ != nullptr) {
    copy_.reset();
    std::remove(CopyPath().c_str());
  }
  const uint64_t at = log_end_;
  Bytes value = EncodeGeneration(crypto::RandomU64() | 1, generation_.id, 0);
  TC_ASSIGN_OR_RETURN(uint64_t offset,
                      AppendRecord(kRecordPut, kGenerationKey, value));
  ApplyPut(kGenerationKey, offset, value.size());
  NoteGeneration(value, at);
  return Status::Ok();
}

Result<Bytes> LogKvStore::ReadLog(uint64_t generation, uint64_t offset,
                                  size_t max_bytes) const {
  std::shared_ptr<const ReadFile> file;
  std::shared_ptr<std::FILE> unflushed;
  uint64_t end = 0;
  {
    MutexLock lock(mu_);
    if (generation_.id != generation) {
      return FailedPrecondition("log " + path_ + " left generation " +
                                std::to_string(generation));
    }
    if (offset > log_end_) {
      return OutOfRange("log offset " + std::to_string(offset) +
                        " is past the end of " + path_);
    }
    file = reader_;
    end = log_end_;
    if (end > flushed_end_) {
      if (log_ == nullptr) {
        return Unavailable("log records lost with a failed write: " + path_);
      }
      unflushed = log_;
    }
  }
  if (unflushed != nullptr) {
    // Flushed without the lock, so writers never wait on it: stdio orders
    // the flush with their appends, and the handle stays open while held
    // here even if a Compact swaps in another.
    const bool flushed = std::fflush(unflushed.get()) == 0;
    MutexLock lock(mu_);
    if (log_ == unflushed && flushed) {
      flushed_end_ = std::max(flushed_end_, end);
    } else if (log_ == unflushed) {
      DropAppendHandleLocked();
    }
    if (!flushed) return Unavailable("fflush failed: " + path_);
  }
  // Log bytes never change once written and Compact() writes a new file,
  // so `file` holds this generation's bytes up to `end` without the lock.
  // One read of up to max_bytes; the whole records at its front ship.
  Bytes out(std::min<uint64_t>(end - offset, max_bytes));
  TC_RETURN_IF_ERROR(file->Read(out.data(), out.size(), offset));
  const uint64_t out_end = offset + out.size();
  auto in_out = [&](uint64_t at, uint64_t n) -> Result<BytesView> {
    return BytesView(out).subspan(at - offset, std::min(n, out_end - at));
  };
  uint64_t cut = offset;
  while (cut < out_end) {
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(in_out, cut, out_end));
    if (!head) break;
    cut += head->size();
  }
  if (cut == offset && !out.empty()) {
    // The first record alone is larger than max_bytes: it ships whole.
    ReadFile::Window window(*file, end);
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(window, offset, end));
    if (!head) {
      return DataLoss("log " + path_ + ": no record at offset " +
                      std::to_string(offset));
    }
    cut = offset + head->size();
    out.resize(cut - offset);
    TC_RETURN_IF_ERROR(file->Read(out.data(), out.size(), offset));
  }
  out.resize(cut - offset);
  return out;
}

Result<LogPosition> LogKvStore::AppendLog(LogPosition at, BytesView records) {
  MutexLock lock(mu_);
  const LogPosition here{generation_.id, log_end_};
  if (records.empty()) return here;
  if (at == here) {
    TC_RETURN_IF_ERROR(AppendRecordsLocked(records));
    return LogPosition{generation_.id, log_end_};
  }
  // Anywhere else, the records are part of a copy of generation
  // at.generation's log, written beside this one. The copy takes this
  // log's place once it holds the record that started that generation;
  // until then this log, and the position it reports, stay as they were.
  if (at.length == 0) {
    copy_.reset();
    std::remove(CopyPath().c_str());
    TC_ASSIGN_OR_RETURN(copy_, Open(CopyPath()));
    copy_generation_ = at.generation;
  } else if (copy_ == nullptr ||
             at != LogPosition{copy_generation_, copy_->Head().length}) {
    return FailedPrecondition("log " + path_ + " is at " + Describe(here) +
                              ", not at " + Describe(at));
  }
  TC_ASSIGN_OR_RETURN(LogPosition copied,
                      copy_->AppendLog(copy_->Head().position(), records));
  if (copied.generation != copy_generation_) {
    return LogPosition{copy_generation_, copied.length};
  }
  copy_.reset();  // closing the copy flushes it
  TC_RETURN_IF_ERROR(SwapInLocked(CopyPath()));
  dir_ = std::make_unique<Directory>();
  value_bytes_ = dead_bytes_ = 0;
  generation_ = {};
  TC_RETURN_IF_ERROR(Replay());
  return LogPosition{generation_.id, log_end_};
}

Status LogKvStore::AppendRecordsLocked(BytesView records) {
  // Every record parses, and every append extends a live key, before any
  // byte is written: bytes that fail either change nothing.
  auto view = [&](uint64_t pos, uint64_t n) -> Result<BytesView> {
    return records.subspan(pos, std::min<uint64_t>(n, records.size() - pos));
  };
  std::unordered_map<std::string_view, bool> live;  // as the records leave it
  for (uint64_t pos = 0; pos < records.size();) {
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(view, pos, records.size()));
    if (!head) {
      return DataLoss("shipped log bytes at offset " +
                      std::to_string(log_end_ + pos) +
                      " are not a whole record");
    }
    if (head->type != kRecordAppend) {
      live[head->key] = head->type == kRecordPut;
    } else if (auto it = live.find(head->key);
               it != live.end() ? !it->second
                                : dir_->Find(head->key) == nullptr) {
      return DataLoss("shipped append record at offset " +
                      std::to_string(log_end_ + pos) + " for absent key " +
                      std::string(head->key));
    }
    pos += head->size();
  }
  const uint64_t start = log_end_;
  TC_RETURN_IF_ERROR(WriteLocked(records));
  for (uint64_t pos = 0; pos < records.size();) {
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(view, pos, records.size()));
    TC_RETURN_IF_ERROR(ApplyRecord(*head, start + pos));
    if (head->type == kRecordPut && head->key == kGenerationKey) {
      NoteGeneration(records.subspan(pos + head->value_at, head->value_len),
                     start + pos);
    }
    pos += head->size();
  }
  return Status::Ok();
}

Status LogKvStore::Sync() {
  AssertBlockingAllowed();
  Ops().syncs.Inc();
  MutexLock lock(mu_);
  if (LogKvStore* copy = copy_.get(); copy != nullptr) {
    MutexLock copy_lock(copy->mu_);
    TC_RETURN_IF_ERROR(copy->FlushThrough(copy->log_end_));
  }
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

Result<std::unique_ptr<TempLogDir>> TempLogDir::Make() {
  std::error_code error;
  std::string pattern =
      (std::filesystem::temp_directory_path(error) / "timecrypt-XXXXXX")
          .string();
  if (error || ::mkdtemp(pattern.data()) == nullptr) {
    return Unavailable("cannot create a temporary log directory");
  }
  return std::unique_ptr<TempLogDir>(new TempLogDir(std::move(pattern)));
}

TempLogDir::~TempLogDir() {
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

}  // namespace tc::store
