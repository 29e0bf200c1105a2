#include "common/periodic.hpp"

namespace tc {

PeriodicThread::PeriodicThread(std::chrono::milliseconds interval,
                               std::function<void()> body)
    : interval_(interval), body_(std::move(body)) {
  thread_ = std::thread([this] { Run(); });
}

PeriodicThread::~PeriodicThread() { Stop(); }

void PeriodicThread::Stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
}

void PeriodicThread::Run() {
  for (;;) {
    {
      MutexLock lock(mu_);
      auto deadline = std::chrono::steady_clock::now() + interval_;
      while (!stop_) {
        if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
      }
      if (stop_) return;
    }
    body_();
  }
}

}  // namespace tc
