#include "store/mem_kv.hpp"

namespace tc::store {

MemKvStore::MemKvStore(size_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      shards_(std::make_unique<Shard[]>(num_shards_)) {}

MemKvStore::Shard& MemKvStore::ShardFor(const std::string& key) const {
  size_t h = std::hash<std::string>{}(key);
  return shards_[h % num_shards_];
}

Status MemKvStore::Put(const std::string& key, BytesView value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  if (!inserted) shard.value_bytes -= it->second.size();
  it->second.assign(value.begin(), value.end());
  shard.value_bytes += value.size();
  return Status::Ok();
}

Result<Bytes> MemKvStore::Get(const std::string& key) const {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return NotFound("key not found: " + key);
  return it->second;
}

Status MemKvStore::Delete(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return NotFound("key not found: " + key);
  shard.value_bytes -= it->second.size();
  shard.map.erase(it);
  return Status::Ok();
}

Result<size_t> MemKvStore::Append(const std::string& key,
                                  size_t expected_size, BytesView suffix) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return NotFound("key not found: " + key);
  TC_RETURN_IF_ERROR(CheckAppendSize(key, it->second.size(), expected_size));
  tc::Append(it->second, suffix);
  shard.value_bytes += suffix.size();
  return it->second.size();
}

bool MemKvStore::Contains(const std::string& key) const {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  return shard.map.contains(key);
}

size_t MemKvStore::Size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    MutexLock lock(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
}

size_t MemKvStore::ValueBytes() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    MutexLock lock(shards_[i].mu);
    total += shards_[i].value_bytes;
  }
  return total;
}

}  // namespace tc::store
