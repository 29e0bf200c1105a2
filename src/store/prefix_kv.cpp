#include "store/prefix_kv.hpp"

namespace tc::store {

PrefixKvStore::PrefixKvStore(std::shared_ptr<KvStore> backend,
                             std::string prefix)
    : backend_(std::move(backend)), prefix_(std::move(prefix)) {}

Status PrefixKvStore::Put(const std::string& key, BytesView value) {
  return backend_->Put(Namespaced(key), value);
}

Result<Bytes> PrefixKvStore::Get(const std::string& key) const {
  return backend_->Get(Namespaced(key));
}

Status PrefixKvStore::Delete(const std::string& key) {
  return backend_->Delete(Namespaced(key));
}

bool PrefixKvStore::Contains(const std::string& key) const {
  return backend_->Contains(Namespaced(key));
}

Result<size_t> PrefixKvStore::Append(const std::string& key,
                                     size_t expected_size, BytesView suffix) {
  return backend_->Append(Namespaced(key), expected_size, suffix);
}

size_t PrefixKvStore::Size() const { return backend_->Size(); }

size_t PrefixKvStore::ValueBytes() const { return backend_->ValueBytes(); }

Status PrefixKvStore::Sync() { return backend_->Sync(); }

Status PrefixKvStore::Scan(
    const std::function<void(const std::string&, BytesView)>& fn) const {
  return backend_->Scan([&](const std::string& key, BytesView value) {
    if (key.size() < prefix_.size()) return;
    if (key.compare(0, prefix_.size(), prefix_) != 0) return;
    fn(key.substr(prefix_.size()), value);
  });
}

}  // namespace tc::store
