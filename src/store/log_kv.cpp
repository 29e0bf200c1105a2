#include "store/log_kv.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace tc::store {

namespace {
constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;
constexpr uint8_t kRecordAppend = 3;  // value = suffix of the key's value

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
  // as every other map_/log_ access.
  MutexLock lock(store->mu_);
  TC_RETURN_IF_ERROR(store->Replay());
  store->log_ = std::fopen(path.c_str(), "ab");
  if (store->log_ == nullptr) {
    return Unavailable("cannot open log file: " + path);
  }
  return store;
}

Status LogKvStore::Replay() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Status::Ok();  // fresh store
  // Read the whole log; individual records are length-prefixed.
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(static_cast<size_t>(size));
  if (size > 0 && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    return DataLoss("short read replaying log: " + path_);
  }
  std::fclose(f);

  BinaryReader r(data);
  size_t valid_end = 0;  // offset just past the last complete record
  while (!r.AtEnd()) {
    auto type = r.GetU8();
    auto key = r.GetString();
    if (!type.ok() || !key.ok()) break;  // torn tail write
    if (*type == kRecordPut) {
      auto value = r.GetBytes();
      if (!value.ok()) break;
      auto [it, inserted] = map_.try_emplace(*key);
      if (!inserted) {
        dead_bytes_ += it->second.size();
        value_bytes_ -= it->second.size();
      }
      it->second = std::move(*value);
      value_bytes_ += it->second.size();
    } else if (*type == kRecordTombstone) {
      auto it = map_.find(*key);
      if (it != map_.end()) {
        dead_bytes_ += it->second.size();
        value_bytes_ -= it->second.size();
        map_.erase(it);
      }
    } else if (*type == kRecordAppend) {
      auto suffix = r.GetBytes();
      if (!suffix.ok()) break;
      // Append() refuses absent keys, so a complete append record without
      // its base value is corruption, not a torn tail: truncating here
      // would silently drop every record after it.
      auto it = map_.find(*key);
      if (it == map_.end()) {
        return DataLoss("log " + path_ + ": append record at offset " +
                        std::to_string(valid_end) + " for absent key " +
                        *key);
      }
      tc::Append(it->second, *suffix);
      value_bytes_ += suffix->size();
    } else {
      break;  // garbage tail (crash mid-write): recover the valid prefix
    }
    valid_end = r.position();
  }
  if (valid_end < data.size()) {
    // Drop the torn tail so future appends follow a well-formed record —
    // otherwise the next Replay would stop at the garbage and lose them.
    TC_RETURN_IF_ERROR(TruncateTo(valid_end));
  }
  return Status::Ok();
}

Status LogKvStore::TruncateTo(size_t size) {
  // POSIX truncate by path: Replay runs before the append handle opens.
  if (::truncate(path_.c_str(), static_cast<off_t>(size)) != 0) {
    return Unavailable("cannot truncate torn log tail: " + path_);
  }
  return Status::Ok();
}

Status LogKvStore::AppendRecord(uint8_t type, const std::string& key,
                                BytesView value) {
  // A failed compaction can lose the append handle (reopen failed); refuse
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
    return Unavailable("log append failed");
  }
  ++append_seq_;
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
  TC_RETURN_IF_ERROR(AppendRecord(kRecordPut, key, value));
  auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) {
    dead_bytes_ += it->second.size();
    value_bytes_ -= it->second.size();
  }
  it->second.assign(value.begin(), value.end());
  value_bytes_ += value.size();
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<Bytes> LogKvStore::Get(const std::string& key) const {
  if constexpr (metrics::kEnabled) Ops().gets.Inc();
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return NotFound("key not found: " + key);
  return it->second;
}

Status LogKvStore::Delete(const std::string& key) {
  if constexpr (metrics::kEnabled) Ops().deletes.Inc();
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(AppendRecord(kRecordTombstone, key, {}));
  dead_bytes_ += it->second.size();
  value_bytes_ -= it->second.size();
  map_.erase(it);
  MaybeAutoCompactLocked();
  return Status::Ok();
}

Result<size_t> LogKvStore::Append(const std::string& key,
                                  size_t expected_size, BytesView suffix) {
  if constexpr (metrics::kEnabled) Ops().appends.Inc();
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(CheckAppendSize(key, it->second.size(), expected_size));
  TC_RETURN_IF_ERROR(AppendRecord(kRecordAppend, key, suffix));
  tc::Append(it->second, suffix);
  value_bytes_ += suffix.size();
  return it->second.size();
}

bool LogKvStore::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  return map_.contains(key);
}

size_t LogKvStore::Size() const {
  MutexLock lock(mu_);
  return map_.size();
}

size_t LogKvStore::ValueBytes() const {
  MutexLock lock(mu_);
  return value_bytes_;
}

Status LogKvStore::Scan(
    const std::function<void(const std::string&, BytesView)>& fn) const {
  // mu_ is held for the whole walk, so a scan is an atomic snapshot and a
  // concurrent Compact() cannot interleave (it rewrites under this mutex).
  MutexLock lock(mu_);
  for (const auto& [key, value] : map_) fn(key, value);
  return Status::Ok();
}

Result<size_t> LogKvStore::Compact() {
  MutexLock lock(mu_);
  return CompactLocked();
}

Result<size_t> LogKvStore::CompactLocked() {
  std::string tmp_path = path_ + ".compact";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) return Unavailable("cannot open compaction file");

  for (const auto& [key, value] : map_) {
    BinaryWriter w(key.size() + value.size() + 16);
    w.PutU8(kRecordPut);
    w.PutString(key);
    w.PutBytes(value);
    if (std::fwrite(w.data().data(), 1, w.size(), tmp) != w.size()) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return Unavailable("compaction write failed");
    }
  }
  std::fclose(tmp);
  std::fclose(log_);
  log_ = nullptr;
  // Closing the old handle flushed it, so every record appended so far is
  // on disk in whichever file survives below.
  flushed_seq_ = append_seq_;
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    // The old log is intact at path_; reopen it so appends keep working.
    std::remove(tmp_path.c_str());
    log_ = std::fopen(path_.c_str(), "ab");
    return Unavailable("compaction rename failed");
  }
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
  if (log_ == nullptr) return Status::Ok();
  // Group commit: if a concurrent caller's flush already covered every
  // record appended before this Sync, skip the (expensive) flush entirely.
  if (flushed_seq_ >= append_seq_) return Status::Ok();
  if (std::fflush(log_) != 0) {
    return Unavailable("fflush failed");
  }
  flushed_seq_ = append_seq_;
  return Status::Ok();
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
