// A thread that runs one body at a fixed interval until stopped: the
// failure detectors' and the beacon's clock.
#pragma once

#include <chrono>
#include <functional>
#include <thread>

#include "common/thread_annotations.hpp"

namespace tc {

/// Runs `body` every `interval` on a thread of its own, the first time one
/// interval after construction. Stop (or the destructor) cuts the sleep
/// short and returns once a running body has finished; the body never
/// starts after Stop. Stop must not be called from the body.
class PeriodicThread {
 public:
  PeriodicThread(std::chrono::milliseconds interval,
                 std::function<void()> body);
  ~PeriodicThread();

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  void Stop() EXCLUDES(mu_);

 private:
  void Run() EXCLUDES(mu_);

  const std::chrono::milliseconds interval_;
  const std::function<void()> body_;
  Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace tc
