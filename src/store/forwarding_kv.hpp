// Base for KvStore decorators: holds the wrapped store and forwards every
// KvStore virtual to it. A decorator derives from it and overrides only the
// calls it changes, so a virtual added to KvStore later reaches the wrapped
// store instead of silently falling back to KvStore's default.
#pragma once

#include <memory>
#include <string>

#include "store/kv_store.hpp"

namespace tc::store {

class ForwardingKvStore : public KvStore {
 public:
  explicit ForwardingKvStore(std::shared_ptr<KvStore> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& key, BytesView value) override {
    return inner_->Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    return inner_->Append(key, expected_size, suffix);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Sync() override {
    AssertBlockingAllowed();
    return inner_->Sync();
  }
  CompactionStats Compaction() const override { return inner_->Compaction(); }

  /// The wrapped store.
  const std::shared_ptr<KvStore>& inner() const { return inner_; }

 private:
  std::shared_ptr<KvStore> inner_;
};

}  // namespace tc::store
