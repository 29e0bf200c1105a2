#include "store/prefix_kv.hpp"

namespace tc::store {

PrefixKvStore::PrefixKvStore(std::shared_ptr<KvStore> backend,
                             std::string prefix)
    : ForwardingKvStore(std::move(backend)), prefix_(std::move(prefix)) {}

Status PrefixKvStore::Put(const std::string& key, BytesView value) {
  return inner()->Put(Namespaced(key), value);
}

Result<Bytes> PrefixKvStore::Get(const std::string& key) const {
  return inner()->Get(Namespaced(key));
}

Status PrefixKvStore::Delete(const std::string& key) {
  return inner()->Delete(Namespaced(key));
}

bool PrefixKvStore::Contains(const std::string& key) const {
  return inner()->Contains(Namespaced(key));
}

Result<size_t> PrefixKvStore::Append(const std::string& key,
                                     size_t expected_size, BytesView suffix) {
  return inner()->Append(Namespaced(key), expected_size, suffix);
}

}  // namespace tc::store
