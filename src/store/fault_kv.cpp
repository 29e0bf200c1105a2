#include "store/fault_kv.hpp"

namespace tc::store {

namespace {
bool ShouldFire(std::atomic<uint64_t>& counter, uint64_t every_nth) {
  if (every_nth == 0) return false;
  return (counter.fetch_add(1) + 1) % every_nth == 0;
}
}  // namespace

FaultKvStore::FaultKvStore(std::shared_ptr<KvStore> inner,
                           FaultOptions options)
    : ForwardingKvStore(std::move(inner)),
      options_(options),
      fail_all_(options.fail_all) {}

Status FaultKvStore::Fault() const {
  return {options_.failure_code, "injected fault"};
}

bool FaultKvStore::FailWrite() {
  if (!FailAll() && !ShouldFire(put_ops_, options_.fail_every_nth_put)) {
    return false;
  }
  ++puts_failed_;
  return true;
}

Status FaultKvStore::Put(const std::string& key, BytesView value) {
  if (FailWrite()) return Fault();
  return inner()->Put(key, value);
}

Result<Bytes> FaultKvStore::Get(const std::string& key) const {
  if (FailAll() || ShouldFire(get_ops_, options_.fail_every_nth_get)) {
    ++gets_failed_;
    return Fault();
  }
  auto value = inner()->Get(key);
  if (value.ok() && !value->empty() &&
      ShouldFire(value_gets_, options_.corrupt_every_nth_get)) {
    ++gets_corrupted_;
    (*value)[value->size() / 2] ^= 0x5a;
  }
  return value;
}

Status FaultKvStore::Delete(const std::string& key) {
  if (FailAll() ||
      ShouldFire(delete_ops_, options_.fail_every_nth_delete)) {
    ++deletes_failed_;
    return Fault();
  }
  return inner()->Delete(key);
}

Result<size_t> FaultKvStore::Append(const std::string& key,
                                    size_t expected_size, BytesView suffix) {
  if (FailWrite()) return Fault();
  return inner()->Append(key, expected_size, suffix);
}

bool FaultKvStore::Contains(const std::string& key) const {
  if (FailAll()) return false;
  return inner()->Contains(key);
}

Status FaultKvStore::Sync() {
  AssertBlockingAllowed();
  if (FailAll()) return Fault();
  return inner()->Sync();
}

}  // namespace tc::store
