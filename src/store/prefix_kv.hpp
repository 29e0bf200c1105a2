// Prefix-namespaced view over a shared KvStore: every key is transparently
// prefixed, so N views over one backend behave like N disjoint stores. This
// is how engine shards split a single shared backend (the paper's one
// Cassandra cluster serving many stateless TimeCrypt nodes, §3.2) without
// any cross-shard key collisions.
#pragma once

#include <memory>
#include <string>

#include "store/forwarding_kv.hpp"

namespace tc::store {

/// View store. Thread-safety and durability are whatever the backend
/// provides; the view itself adds no locking. Size, ValueBytes, Sync and
/// Compaction pass straight to the backend: they report the whole shared
/// store, not this view's slice (per-view accounting would cost a lookup
/// per Put; shard introspection uses the engine's index stats instead).
class PrefixKvStore final : public ForwardingKvStore {
 public:
  PrefixKvStore(std::shared_ptr<KvStore> backend, std::string prefix);

  Status Put(const std::string& key, BytesView value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;
  const std::string& prefix() const { return prefix_; }

 private:
  std::string Namespaced(const std::string& key) const {
    return prefix_ + key;
  }

  std::string prefix_;
};

}  // namespace tc::store
