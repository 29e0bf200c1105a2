// Fault-injecting KV decorator: deterministic failure and corruption
// schedules for chaos-testing the layers above the store (server engine,
// aggregation index, clients). The paper's deployment rides on Cassandra,
// which can time out, drop connections, or return stale/garbled data under
// partition — this wrapper lets tests exercise exactly those paths without
// a real cluster.
#pragma once

#include <atomic>
#include <memory>

#include "store/forwarding_kv.hpp"

namespace tc::store {

/// Failure schedule. All counters are per-operation-kind and 1-based:
/// `fail_every_nth_get = 3` fails the 3rd, 6th, 9th... Get. Zero disables
/// that fault. `fail_all` overrides everything (a hard outage). Put and
/// Append share the write schedule.
struct FaultOptions {
  uint64_t fail_every_nth_put = 0;
  uint64_t fail_every_nth_get = 0;
  uint64_t fail_every_nth_delete = 0;
  /// Corrupt (flip one byte of) the value returned by every nth Get that
  /// returns a non-empty value. It counts only those Gets, on its own
  /// counter: Gets that fail (injected or not) or find an empty value do
  /// not advance it, and it does not move the fail schedule. The stored
  /// data is untouched — simulates a read-path bit flip / stale replica,
  /// the case end-to-end integrity checking must catch.
  uint64_t corrupt_every_nth_get = 0;
  bool fail_all = false;
  StatusCode failure_code = StatusCode::kUnavailable;
};

/// Thread-safe decorator; schedules apply process-wide across threads.
/// Calls without a schedule (Size, ValueBytes, Compaction) pass through.
class FaultKvStore final : public ForwardingKvStore {
 public:
  FaultKvStore(std::shared_ptr<KvStore> inner, FaultOptions options = {});

  Status Put(const std::string& key, BytesView value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  /// A write: shares the put schedule and the puts_failed counter.
  Result<size_t> Append(const std::string& key, size_t expected_size,
                        BytesView suffix) override;
  /// Fails only under the hard outage (no per-nth schedule: one sync is
  /// one logical operation, not a countable stream of faults).
  Status Sync() override;

  /// Flip the hard-outage switch (all operations fail until cleared).
  /// Atomic: tests flip it from their own thread while shipper / failover
  /// monitor threads are mid-operation.
  void SetFailAll(bool fail_all) {
    fail_all_.store(fail_all, std::memory_order_release);
  }

  /// Injected-failure counters (tests assert faults actually fired).
  uint64_t puts_failed() const { return puts_failed_; }
  uint64_t gets_failed() const { return gets_failed_; }
  uint64_t gets_corrupted() const { return gets_corrupted_; }
  uint64_t deletes_failed() const { return deletes_failed_; }

 private:
  Status Fault() const;
  /// Put and Append share one write schedule: true when this write fails.
  bool FailWrite();
  bool FailAll() const { return fail_all_.load(std::memory_order_acquire); }

  FaultOptions options_;
  std::atomic<bool> fail_all_;  // seeded from options_, runtime-flippable
  mutable std::atomic<uint64_t> put_ops_{0};
  mutable std::atomic<uint64_t> get_ops_{0};
  mutable std::atomic<uint64_t> value_gets_{0};  // corruption schedule
  mutable std::atomic<uint64_t> delete_ops_{0};
  mutable std::atomic<uint64_t> puts_failed_{0};
  mutable std::atomic<uint64_t> gets_failed_{0};
  mutable std::atomic<uint64_t> gets_corrupted_{0};
  mutable std::atomic<uint64_t> deletes_failed_{0};
};

}  // namespace tc::store
