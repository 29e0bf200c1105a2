// Latency-injecting KV decorator: emulates the network round trip to a
// remote store (the paper's client<->Cassandra hop, ~0.6 ms in their
// testbed) so end-to-end experiments exercise realistic cache-miss costs.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "store/kv_store.hpp"

namespace tc::store {

class LatencyKvStore final : public KvStore {
 public:
  LatencyKvStore(std::shared_ptr<KvStore> inner,
                 std::chrono::microseconds per_op_latency)
      : inner_(std::move(inner)), latency_(per_op_latency) {}

  Status Put(const std::string& key, BytesView value) override {
    Delay();
    return inner_->Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    Delay();
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override {
    Delay();
    return inner_->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    Delay();
    return inner_->Contains(key);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    Delay();
    return inner_->Append(key, expected_size, suffix);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override {
    Delay();  // one round trip: a remote scan streams, it does not chat
    return inner_->Scan(fn);
  }
  TC_BLOCKING Status Sync() override {
    Delay();
    return inner_->Sync();
  }
  CompactionStats Compaction() const override { return inner_->Compaction(); }

  uint64_t ops() const { return ops_.load(); }

 private:
  void Delay() const {
    ++ops_;
    if (latency_.count() == 0) return;
    // Spin for sub-millisecond delays: sleep granularity is too coarse.
    auto deadline = std::chrono::steady_clock::now() + latency_;
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  std::shared_ptr<KvStore> inner_;
  std::chrono::microseconds latency_;
  mutable std::atomic<uint64_t> ops_{0};
};

}  // namespace tc::store
