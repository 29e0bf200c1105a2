#include "store/log_kv.hpp"

#include <stdlib.h>

#include <algorithm>
#include <array>
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
#include "crypto/rand.hpp"
#include "store/log_file.hpp"

namespace tc::store {

namespace {
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

struct LogKvStore::Log {
  /// The log at `path`, indexed as Replay reads its records. A `staged`
  /// log starts empty, as LogFile::Open says.
  static Result<std::unique_ptr<Log>> Open(const std::string& path,
                                           bool staged = false) {
    auto log = std::make_unique<Log>();
    TC_ASSIGN_OR_RETURN(log->file, LogFile::Open(path, staged));
    if (staged) return log;
    TC_RETURN_IF_ERROR(log->file->Replay(
        [&](const RecordHead& head, uint64_t at, auto& window) -> Status {
          if (head.type != kRecordPut || head.key != kGenerationKey) {
            return log->Index(head, at, {});
          }
          // Reading the value may refill the window under head.key.
          RecordHead generation = head;
          generation.key = kGenerationKey;
          TC_ASSIGN_OR_RETURN(BytesView value,
                              window(at + head.value_at, head.value_len));
          return log->Index(generation, at, value);
        }));
    return log;
  }

  LogPosition position() const { return {generation.id, file->end()}; }

  /// Appends one record and indexes it; `record` is its key's, if known.
  Status Write(uint8_t type, std::string_view key, BytesView value,
               Record* record = nullptr) {
    const uint64_t at = file->end();
    TC_ASSIGN_OR_RETURN(RecordHead head, file->Append(type, key, value));
    return Index(head, at, value, record);
  }

  /// Appends `records`, whole records read from another log, and indexes
  /// them. Every record parses, and every append extends a live key,
  /// before any byte is written: bytes that fail either change nothing.
  Status WriteRecords(BytesView records) {
    const uint64_t start = file->end();
    std::unordered_map<std::string_view, bool> live;  // as the records leave it
    TC_ASSIGN_OR_RETURN(
        uint64_t whole,
        ForEachRecord(InMemory(records), records.size(),
                      [&](const RecordHead& head, uint64_t pos) -> Status {
          if (head.type != kRecordAppend) {
            live[head.key] = head.type == kRecordPut;
          } else if (auto it = live.find(head.key);
                     it != live.end() ? !it->second
                                      : dir.Find(head.key) == nullptr) {
            return DataLoss("shipped append record at offset " +
                            std::to_string(start + pos) + " for absent key " +
                            std::string(head.key));
          }
          return Status::Ok();
        }));
    if (whole < records.size()) {
      return DataLoss("shipped log bytes at offset " +
                      std::to_string(start + whole) +
                      " are not a whole record");
    }
    TC_RETURN_IF_ERROR(file->Write(records));
    return ForEachRecord(InMemory(records), records.size(),
                         [&](const RecordHead& head, uint64_t pos) {
                           return Index(head, start + pos,
                                        records.subspan(pos + head.value_at,
                                                        head.value_len));
                         })
        .status();
  }

  /// Directory and byte accounting for the record at log offset `at`,
  /// whose value is `value` when it is a generation put (other records
  /// need not pass theirs), and an append's `base` record if known.
  /// DataLoss for an append to an absent key.
  Status Index(const RecordHead& head, uint64_t at, BytesView value,
               Record* base = nullptr) {
    const uint64_t value_at = at + head.value_at;
    uint64_t dead = 0;  // the bytes of the value the record replaces
    if (head.type == kRecordAppend) {
      // Append() refuses absent keys, so a complete append record without
      // its base value is corruption, not a torn tail: truncating here
      // would silently drop every record after it.
      if (base == nullptr) base = dir.Find(head.key);
      if (base == nullptr) {
        return DataLoss("log " + file->path() + ": append record at offset " +
                        std::to_string(at) + " for absent key " +
                        std::string(head.key));
      }
      dir.AddExtent(*base, value_at, head.value_len);
    } else if (head.type == kRecordTombstone) {
      dead = dir.Erase(head.key).value_or(0);
    } else {
      Record& record = *dir.FindOrInsert(head.key).first;
      dead = record.size;  // 0 for a key it inserted
      dir.SetValue(record, value_at, head.value_len);
    }
    dead_bytes += dead;
    value_bytes = value_bytes + head.value_len - dead;
    if (head.type == kRecordPut && head.key == kGenerationKey) {
      // The generation's id, its parent's and what it replaced.
      BinaryReader r(value);
      auto id = r.GetU64();
      auto parent = r.GetU64();
      auto replaced = r.GetU64();
      if (id.ok() && parent.ok() && replaced.ok() && r.AtEnd()) {
        generation = {*id, *parent, at, *replaced};
      }
    }
    return Status::Ok();
  }

  std::shared_ptr<LogFile> file;
  Directory dir;
  size_t value_bytes = 0;
  size_t dead_bytes = 0;
  LogGeneration generation;
};

LogKvStore::LogKvStore(std::string path, LogKvOptions options,
                       std::unique_ptr<Log> live)
    : path_(std::move(path)), options_(options), live_(std::move(live)) {}

LogKvStore::~LogKvStore() = default;

Result<std::unique_ptr<LogKvStore>> LogKvStore::Open(const std::string& path,
                                                     LogKvOptions options) {
  // A copy a follower had not finished when it stopped is of no use: the
  // shipper starts any copy over.
  LogFile::Remove(path + ".copy");
  TC_ASSIGN_OR_RETURN(auto live, Log::Open(path));
  return std::unique_ptr<LogKvStore>(
      new LogKvStore(path, options, std::move(live)));
}

void LogKvStore::MaybeAutoCompactLocked() {
  const size_t dead_bytes = live_->dead_bytes;
  if (options_.compact_dead_fraction <= 0.0) return;
  if (dead_bytes < options_.compact_min_dead_bytes) return;
  if (dead_bytes < compact_backoff_dead_bytes_) return;
  size_t total = live_->value_bytes + dead_bytes;
  if (static_cast<double>(dead_bytes) <=
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
        dead_bytes + std::max(options_.compact_min_dead_bytes,
                              size_t{1} << 20);
  }
}

Status LogKvStore::Put(const std::string& key, BytesView value) {
  Ops().puts.Inc();
  MutexLock lock(mu_);
  TC_RETURN_IF_ERROR(live_->Write(kRecordPut, key, value));
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
  std::shared_ptr<const LogFile> file;
  {
    MutexLock lock(mu_);
    const Directory& dir = live_->dir;
    const Record* record = dir.Find(key);
    if (record == nullptr) return NotFound("key not found: " + key);
    size = record->size;
    size_t count = dir.ExtentCount(*record);
    if (count <= kInlineExtents) {
      extents = std::span(inline_extents).first(count);
    } else {
      many_extents.resize(count);
      extents = many_extents;
    }
    dir.CopyExtents(*record, extents);
    if (!extents.empty()) {
      TC_RETURN_IF_ERROR(live_->file->FlushThrough(extents.back().offset +
                                                   extents.back().length));
    }
    file = live_->file;
  }
  // Log bytes never change once written and a new log replaces this one
  // only by a rename, so the extents stay valid in `file` without the lock.
  Bytes value(size);
  TC_RETURN_IF_ERROR(file->ReadValue(extents, value));
  return value;
}

Status LogKvStore::Delete(const std::string& key) {
  Ops().deletes.Inc();
  MutexLock lock(mu_);
  if (live_->dir.Find(key) == nullptr) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(live_->Write(kRecordTombstone, key, {}));
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<size_t> LogKvStore::Append(const std::string& key,
                                  size_t expected_size, BytesView suffix) {
  Ops().appends.Inc();
  MutexLock lock(mu_);
  Record* record = live_->dir.Find(key);
  if (record == nullptr) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(CheckAppendSize(key, record->size, expected_size));
  TC_RETURN_IF_ERROR(live_->Write(kRecordAppend, key, suffix, record));
  return record->size;
}

bool LogKvStore::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  return live_->dir.Find(key) != nullptr;
}

size_t LogKvStore::Size() const {
  MutexLock lock(mu_);
  return live_->dir.size();
}

size_t LogKvStore::ValueBytes() const {
  MutexLock lock(mu_);
  return live_->value_bytes;
}

Result<size_t> LogKvStore::Compact() {
  MutexLock lock(mu_);
  return CompactLocked();
}

Result<size_t> LogKvStore::CompactLocked() {
  // Values are copied out of the log, so all of it must be in the file.
  TC_RETURN_IF_ERROR(live_->file->Sync());
  TC_ASSIGN_OR_RETURN(auto compacted, Log::Open(path_ + ".compact", true));
  // Each key in the directory's order, its value now one put. A log with a
  // generation gets a new one, whose record comes last: a follower's copy
  // of the new log takes its place once it holds that record, so only once
  // it holds every value the old log did.
  const Directory& dir = live_->dir;
  std::vector<Extent> extents;
  Bytes value;
  for (uint32_t id = 0; id < dir.records(); ++id) {
    const Record* record = dir.Live(id);
    if (record == nullptr) continue;
    std::string_view key = dir.Key(*record);
    if (key == kGenerationKey) continue;
    extents.resize(dir.ExtentCount(*record));
    dir.CopyExtents(*record, extents);
    value.resize(record->size);
    TC_RETURN_IF_ERROR(live_->file->ReadValue(extents, value));
    TC_RETURN_IF_ERROR(compacted->Write(kRecordPut, key, value));
  }
  if (live_->generation.id != 0) {
    TC_RETURN_IF_ERROR(compacted->Write(
        kRecordPut, kGenerationKey,
        EncodeGeneration(crypto::RandomU64() | 1, live_->generation.id,
                         live_->file->end())));
  }
  const size_t reclaimed = live_->dead_bytes;
  TC_RETURN_IF_ERROR(InstallLocked(std::move(compacted)));
  ++compactions_;
  Ops().compactions.Inc();
  trace::RecordEvent("store_compaction", trace::kNoShard,
                     path_ + " reclaimed=" + std::to_string(reclaimed));
  compact_backoff_dead_bytes_ = 0;  // a successful rewrite clears the backoff
  return reclaimed;
}

Status LogKvStore::InstallLocked(std::unique_ptr<Log> log) {
  // On failure `log` is dropped with its file, and the live log stays.
  TC_RETURN_IF_ERROR(log->file->RenameTo(path_));
  live_ = std::move(log);
  return Status::Ok();
}

LogHead LogKvStore::Head() const {
  MutexLock lock(mu_);
  return {live_->generation, live_->file->end()};
}

Status LogKvStore::StartGeneration() {
  MutexLock lock(mu_);
  // A writer's log takes no copies: drop one a follower left unfinished.
  copy_.reset();
  return live_->Write(
      kRecordPut, kGenerationKey,
      EncodeGeneration(crypto::RandomU64() | 1, live_->generation.id, 0));
}

Result<Bytes> LogKvStore::ReadLog(uint64_t generation, uint64_t offset,
                                  size_t max_bytes) const {
  std::shared_ptr<const LogFile> file;
  LogFile::PendingFlush flush;
  uint64_t end = 0;
  {
    MutexLock lock(mu_);
    if (live_->generation.id != generation) {
      return FailedPrecondition("log " + path_ + " left generation " +
                                std::to_string(generation));
    }
    end = live_->file->end();
    if (offset > end) {
      return OutOfRange("log offset " + std::to_string(offset) +
                        " is past the end of " + path_);
    }
    file = live_->file;
    TC_ASSIGN_OR_RETURN(flush, live_->file->StartFlush());
  }
  if (flush.handle != nullptr) {
    // Flushed without the lock, so writers never wait on it.
    flush.Run();
    MutexLock lock(mu_);
    TC_RETURN_IF_ERROR(live_->file->FinishFlush(flush));
  }
  // `file` holds this generation's bytes up to `end` without the lock.
  return file->ReadRecords(offset, end, max_bytes);
}

Result<LogPosition> LogKvStore::AppendLog(LogPosition at, BytesView records) {
  MutexLock lock(mu_);
  const LogPosition here = live_->position();
  if (records.empty()) return here;
  if (at == here) {
    TC_RETURN_IF_ERROR(live_->WriteRecords(records));
    return live_->position();
  }
  // Anywhere else, the records are part of a copy of generation
  // at.generation's log, written beside this one. The copy takes this
  // log's place once it holds the record that started that generation;
  // until then this log, and the position it reports, stay as they were.
  if (at.length == 0) {
    copy_.reset();  // removes its file before another is made there
    TC_ASSIGN_OR_RETURN(copy_, Log::Open(CopyPath(), true));
    copy_generation_ = at.generation;
  } else if (copy_ == nullptr ||
             at != LogPosition{copy_generation_, copy_->file->end()}) {
    return FailedPrecondition("log " + path_ + " is at " + Describe(here) +
                              ", not at " + Describe(at));
  }
  TC_RETURN_IF_ERROR(copy_->WriteRecords(records));
  if (copy_->generation.id != copy_generation_) {
    return LogPosition{copy_generation_, copy_->file->end()};
  }
  TC_RETURN_IF_ERROR(InstallLocked(std::move(copy_)));
  return live_->position();
}

Status LogKvStore::Sync() {
  AssertBlockingAllowed();
  Ops().syncs.Inc();
  MutexLock lock(mu_);
  if (copy_ != nullptr) TC_RETURN_IF_ERROR(copy_->file->Sync());
  return live_->file->Sync();
}

store::KvStore::CompactionStats LogKvStore::Compaction() const {
  MutexLock lock(mu_);
  return {compactions_, live_->dead_bytes};
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
