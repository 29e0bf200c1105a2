// Latency-injecting KV decorator: emulates the network round trip to a
// remote store (the paper's client<->Cassandra hop, ~0.6 ms in their
// testbed) so end-to-end experiments exercise realistic cache-miss costs.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "store/forwarding_kv.hpp"

namespace tc::store {

/// Every call that would cross the network to a remote store pays one
/// Delay; Size, ValueBytes and Compaction are local bookkeeping and do not.
class LatencyKvStore final : public ForwardingKvStore {
 public:
  LatencyKvStore(std::shared_ptr<KvStore> inner,
                 std::chrono::microseconds per_op_latency)
      : ForwardingKvStore(std::move(inner)), latency_(per_op_latency) {}

  Status Put(const std::string& key, BytesView value) override {
    Delay();
    return inner()->Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) const override {
    Delay();
    return inner()->Get(key);
  }
  Status Delete(const std::string& key) override {
    Delay();
    return inner()->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    Delay();
    return inner()->Contains(key);
  }
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override {
    Delay();
    return inner()->Append(key, expected_size, suffix);
  }
  Status Sync() override {
    AssertBlockingAllowed();
    Delay();
    return inner()->Sync();
  }

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

  std::chrono::microseconds latency_;
  mutable std::atomic<uint64_t> ops_{0};
};

}  // namespace tc::store
