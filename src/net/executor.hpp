// Fire-and-forget task executor: a fixed set of worker threads draining a
// FIFO queue. Backs the shard router's local scatter channels, where a
// completion is produced asynchronously for a PendingCall (the TCP server
// runs each request on its connection's reader thread instead). Deliberately
// minimal: no priorities, no stealing; submitters provide their own
// backpressure.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_annotations.hpp"

namespace tc::net {

class Executor {
 public:
  /// Spawns `num_threads` workers. 0 is allowed: Submit then runs the task
  /// inline on the calling thread (the single-shard / single-core case).
  /// A named pool reports tc_executor_queue_depth{pool=...} and
  /// tc_executor_dispatch_wait_seconds{pool=...} to the metrics registry;
  /// anonymous pools (tests, short-lived helpers) record nothing.
  explicit Executor(size_t num_threads, const char* pool_name = nullptr);

  /// Drains every queued task (running, not dropping, them — completions
  /// must fire) and joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue one task. Never blocks (beyond the queue lock); tasks run in
  /// submission order across the worker set.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop() EXCLUDES(mu_);
  void RunTask(Task& task);

  Mutex mu_;
  CondVar cv_;
  std::deque<Task> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  // Null for anonymous pools; the referenced metrics live forever.
  metrics::Gauge* queue_depth_ = nullptr;
  metrics::LatencyHistogram* dispatch_wait_ = nullptr;
};

}  // namespace tc::net
