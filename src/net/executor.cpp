#include "net/executor.hpp"

#include <string>

namespace tc::net {

Executor::Executor(size_t num_threads, const char* pool_name) {
  if (pool_name != nullptr) {
    std::string labels = std::string("pool=\"") + pool_name + "\"";
    queue_depth_ = &metrics::GetGauge("tc_executor_queue_depth", labels);
    dispatch_wait_ =
        &metrics::GetHistogram("tc_executor_dispatch_wait_seconds", labels);
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
  // With zero workers nothing drains the queue on stop; there is also
  // nothing that could still be enqueueing, so run the leftovers here.
  // Swapped out under the lock, run unlocked: foreign task code must never
  // execute under the queue lock.
  std::deque<Task> leftovers;
  {
    MutexLock lock(mu_);
    leftovers.swap(queue_);
  }
  for (auto& task : leftovers) RunTask(task);
}

void Executor::RunTask(Task& task) {
  if (dispatch_wait_ != nullptr) {
    auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - task.enqueued);
    dispatch_wait_->Record(
        waited.count() < 0 ? 0 : static_cast<uint64_t>(waited.count()));
  }
  if (queue_depth_ != nullptr) queue_depth_->Dec();
  ScopedDisallowBlocking task_scope;
  task.fn();
}

void Executor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
  }
}

void Executor::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    ScopedDisallowBlocking task_scope;
    task();
    return;
  }
  Task entry;
  entry.fn = std::move(task);
  if (dispatch_wait_ != nullptr) {
    entry.enqueued = std::chrono::steady_clock::now();
  }
  if (queue_depth_ != nullptr) queue_depth_->Inc();
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(entry));
  }
  cv_.NotifyOne();
}

}  // namespace tc::net
