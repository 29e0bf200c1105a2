// Byte-budget LRU cache for index nodes (the paper's caffeine cache, §5).
// The Fig 7 "small cache (1 MB)" experiment shrinks this budget to force
// cache misses against the backing store. The aggregation tree uses it as a
// read cache: only reads Put, and a write keeps a cached node current
// (Append) or drops it (Erase), never adding one.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/thread_annotations.hpp"

namespace tc::store {

/// Thread-safe LRU keyed by string, holding byte buffers, evicting by total
/// value-byte budget.
class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Insert or refresh. A value larger than the whole budget is not cached,
  /// and drops any older value cached under `key`.
  void Put(const std::string& key, BytesView value) EXCLUDES(mu_);

  /// Mirror a KvStore::Append: grow a cached value in place (and mark it
  /// most recently used) if it holds exactly `expected_size` bytes. A
  /// cached value of any other length is stale and is dropped; an absent
  /// key stays absent.
  void Append(const std::string& key, size_t expected_size, BytesView suffix)
      EXCLUDES(mu_);

  /// Fetch + mark most recently used.
  std::optional<Bytes> Get(const std::string& key) EXCLUDES(mu_);

  void Erase(const std::string& key) EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  size_t size_bytes() const EXCLUDES(mu_);
  size_t entry_count() const EXCLUDES(mu_);
  uint64_t hits() const EXCLUDES(mu_);
  uint64_t misses() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    Bytes value;
  };

  using Map = std::unordered_map<std::string, std::list<Entry>::iterator>;

  void EvictIfNeededLocked() REQUIRES(mu_);
  void EraseLocked(Map::iterator it) REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_;
  size_t bytes_ GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  Map map_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace tc::store
