#include "store/lru_cache.hpp"

#include "common/metrics.hpp"

namespace tc::store {

namespace {
/// Process-wide cache counters (every LruCache sums into one family —
/// the hit-ratio signal for the index node caches).
metrics::Counter& CacheHits() {
  static metrics::Counter& c =
      metrics::GetCounter("tc_index_cache_hits_total");
  return c;
}
metrics::Counter& CacheMisses() {
  static metrics::Counter& c =
      metrics::GetCounter("tc_index_cache_misses_total");
  return c;
}
}  // namespace

void LruCache::Put(const std::string& key, BytesView value) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (value.size() > capacity_) {
    // Not cached, and an older value must not stay behind to be served.
    if (it != map_.end()) EraseLocked(it);
    return;
  }
  if (it != map_.end()) {
    bytes_ -= it->second->value.size();
    it->second->value.assign(value.begin(), value.end());
    bytes_ += value.size();
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, Bytes(value.begin(), value.end())});
    map_[key] = lru_.begin();
    bytes_ += value.size();
  }
  EvictIfNeededLocked();
}

void LruCache::Append(const std::string& key, size_t expected_size,
                      BytesView suffix) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return;
  Bytes& value = it->second->value;
  if (value.size() != expected_size ||
      value.size() + suffix.size() > capacity_) {
    EraseLocked(it);
    return;
  }
  tc::Append(value, suffix);
  bytes_ += suffix.size();
  lru_.splice(lru_.begin(), lru_, it->second);
  EvictIfNeededLocked();
}

std::optional<Bytes> LruCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    CacheMisses().Inc();
    return std::nullopt;
  }
  ++hits_;
  CacheHits().Inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void LruCache::Erase(const std::string& key) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(it);
}

void LruCache::EraseLocked(Map::iterator it) {
  bytes_ -= it->second->value.size();
  lru_.erase(it->second);
  map_.erase(it);
}

void LruCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

size_t LruCache::size_bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

size_t LruCache::entry_count() const {
  MutexLock lock(mu_);
  return lru_.size();
}

// The stats were lock-free reads of non-atomic counters mutated under mu_ —
// a torn-read race the annotation sweep surfaced (GUARDED_BY rejects the
// old inline accessors). Locked reads also make hits+misses exactly equal
// the number of completed Gets, which the concurrency drill asserts.
uint64_t LruCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t LruCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

void LruCache::EvictIfNeededLocked() {
  while (bytes_ > capacity_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_ -= victim.value.size();
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

}  // namespace tc::store
