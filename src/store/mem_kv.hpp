// Sharded in-memory KV store: the default storage engine. It stands in for
// the paper's Cassandra deployment, which a single process cannot run;
// LogKvStore is the durable alternative.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.hpp"
#include "store/kv_store.hpp"

namespace tc::store {

/// Hash-sharded unordered_map store. Shard count fixed at construction;
/// each shard has its own mutex so concurrent streams don't contend.
class MemKvStore final : public KvStore {
 public:
  explicit MemKvStore(size_t num_shards = 16);

  Status Put(const std::string& key, BytesView value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  /// In place, under the key's shard lock.
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;
  size_t Size() const override;
  size_t ValueBytes() const override;

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, Bytes> map GUARDED_BY(mu);
    size_t value_bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& key) const;

  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace tc::store
