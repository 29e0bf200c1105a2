// Lock discipline, checked twice: at compile time by Clang Thread Safety
// Analysis over capability-annotated wrappers of the std primitives, and at
// run time, in Debug builds, by the blocking checks below.
//
// Every mutex in src/ is a tc::Mutex or tc::SharedMutex (tc_lint enforces
// this), every piece of guarded state carries GUARDED_BY, and every
// requires-lock-held helper carries REQUIRES. Under clang with
// -Wthread-safety (the TC_THREAD_SAFETY=ON CMake build, run in CI) an
// unlocked read of guarded state, a lock held across a forbidden boundary,
// or a missing REQUIRES is a hard compile error. Under GCC every attribute
// expands to nothing and the wrappers are zero-cost forwarding shims.
//
// Annotation conventions for new code (see README "Static analysis"):
//  - Name the guarded state:       Bytes buf_ GUARDED_BY(mu_);
//  - Name the contract, not the    void CompactLocked() REQUIRES(mu_);
//    call site.
//  - Scoped locking via MutexLock / ReaderMutexLock / WriterMutexLock;
//    explicit mu_.lock()/mu_.unlock() only for hand-over-hand patterns the
//    scoped forms cannot express (the analysis checks both).
//  - Condition-variable waits use tc::CondVar with an explicit while-loop
//    around the predicate. Never cv.wait(lock, lambda): the analysis is
//    intraprocedural, so a predicate lambda reading guarded state is its
//    own unanalyzable function.
//  - TS_NO_ANALYSIS currently has zero uses in src/ (even CondVar's
//    release/reacquire hides inside std::condition_variable_any, not
//    behind an escape). A new use needs a comment explaining why the
//    analysis cannot see the invariant.
//  - A function that can park the calling thread (socket I/O, fsync,
//    condvar and future waits) starts with AssertBlockingAllowed().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <source_location>

// ---------------------------------------------------------------------------
// Attribute macros (clang's official thread-safety vocabulary, gated so GCC
// and pre-attribute clang compile them away).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define TC_TSA_HAS(x) __has_attribute(x)
#else
#define TC_TSA_HAS(x) 0
#endif

#if TC_TSA_HAS(guarded_by)
#define TC_TSA(x) __attribute__((x))
#else
#define TC_TSA(x)  // no-op outside clang
#endif

#define CAPABILITY(x) TC_TSA(capability(x))
#define SCOPED_CAPABILITY TC_TSA(scoped_lockable)
#define GUARDED_BY(x) TC_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) TC_TSA(pt_guarded_by(x))
#define REQUIRES(...) TC_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) TC_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) TC_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) TC_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) TC_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) TC_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) TC_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) TC_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  TC_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) TC_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) TC_TSA(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) TC_TSA(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) TC_TSA(lock_returned(x))
#define TS_NO_ANALYSIS TC_TSA(no_thread_safety_analysis)

namespace tc {

// ---------------------------------------------------------------------------
// Blocking checks, after Chromium's base::ScopedAllowBlocking. In Debug
// builds (no NDEBUG) AssertBlockingAllowed() aborts when its thread
//   B1  holds a tc::Mutex or tc::SharedMutex: every thread that needs the
//       lock would wait out the I/O too; or
//   B2  runs an Executor task or a transport completion callback: one
//       parked worker stalls every request queued behind it.
// CondVar waits check B2 only (they release their mutex while parked). The
// checks see through calls across files and through virtual calls. A site
// where blocking is the point holds a ScopedAllowBlocking, with its reason
// beside it: it excuses the locks held where it is made and the task it
// runs on, not locks taken or tasks run inside it. Release builds compile
// all of this to nothing.
// ---------------------------------------------------------------------------

namespace blocking_internal {
#ifndef NDEBUG
struct ThreadState {
  int locks_held = 0;     // tc::Mutex and tc::SharedMutex holds, shared too
  int locks_excused = 0;  // of those, the ones a ScopedAllowBlocking excuses
  int disallowed = 0;     // Executor tasks and completion callbacks running
};
inline thread_local ThreadState state;

[[noreturn]] inline void Fail(const char* why, const std::source_location& at) {
  std::fprintf(stderr, "%s:%u: blocking call %s %s\n", at.file_name(),
               static_cast<unsigned>(at.line()), at.function_name(), why);
  std::abort();
}
#endif

inline void CountLock([[maybe_unused]] int delta) {
#ifndef NDEBUG
  state.locks_held += delta;
#endif
}

inline bool CountIfLocked(bool locked) {
  if (locked) CountLock(1);
  return locked;
}
}  // namespace blocking_internal

/// First statement of every function that can park its thread (B1 and B2).
inline void AssertBlockingAllowed([[maybe_unused]] const std::source_location&
                                      at = std::source_location::current()) {
#ifndef NDEBUG
  const auto& s = blocking_internal::state;
  if (s.locks_held > s.locks_excused) {
    blocking_internal::Fail("while holding a lock", at);
  }
  if (s.disallowed > 0) {
    blocking_internal::Fail("on an executor task or completion callback", at);
  }
#endif
}

/// A condvar wait: B2 only, since the wait releases the mutex it holds.
inline void AssertWaitAllowed([[maybe_unused]] const std::source_location&
                                  at = std::source_location::current()) {
#ifndef NDEBUG
  if (blocking_internal::state.disallowed > 0) {
    blocking_internal::Fail("on an executor task or completion callback", at);
  }
#endif
}

/// Lets this thread block for the scope's life under the locks it holds
/// now, and on the task or callback it runs now. Every use says why beside
/// it.
class ScopedAllowBlocking {
 public:
#ifndef NDEBUG
  ScopedAllowBlocking()
      : saved_excused_(blocking_internal::state.locks_excused),
        saved_disallowed_(blocking_internal::state.disallowed) {
    blocking_internal::state.locks_excused =
        blocking_internal::state.locks_held;
    blocking_internal::state.disallowed = 0;
  }
  ~ScopedAllowBlocking() {
    blocking_internal::state.locks_excused = saved_excused_;
    blocking_internal::state.disallowed = saved_disallowed_;
  }
#else
  ScopedAllowBlocking() {}
#endif
  ScopedAllowBlocking(const ScopedAllowBlocking&) = delete;
  ScopedAllowBlocking& operator=(const ScopedAllowBlocking&) = delete;

#ifndef NDEBUG
 private:
  int saved_excused_;
  int saved_disallowed_;
#endif
};

/// Marks an Executor task or a completion callback running on this thread.
class ScopedDisallowBlocking {
 public:
  ScopedDisallowBlocking() { Count(1); }
  ~ScopedDisallowBlocking() { Count(-1); }
  ScopedDisallowBlocking(const ScopedDisallowBlocking&) = delete;
  ScopedDisallowBlocking& operator=(const ScopedDisallowBlocking&) = delete;

 private:
  static void Count([[maybe_unused]] int delta) {
#ifndef NDEBUG
    blocking_internal::state.disallowed += delta;
#endif
  }
};

// ---------------------------------------------------------------------------
// Capability-annotated mutexes. BasicLockable, so std::condition_variable_any
// can wait on them directly; std::lock_guard et al. must NOT be used on them
// (libstdc++'s RAII types carry no annotations — the analysis would see the
// acquire but never the release). Use the scoped lockers below.
// ---------------------------------------------------------------------------

/// Exclusive mutex (annotated std::mutex).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); blocking_internal::CountLock(1); }
  void unlock() RELEASE() { blocking_internal::CountLock(-1); mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) {
    return blocking_internal::CountIfLocked(mu_.try_lock());
  }

  /// Tell the analysis the lock is held without acquiring it — for code
  /// reached only while a caller outside the analysis horizon (e.g. a std::
  /// callback signature that cannot carry REQUIRES) holds the lock.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// Reader/writer mutex (annotated std::shared_mutex).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); blocking_internal::CountLock(1); }
  void unlock() RELEASE() { blocking_internal::CountLock(-1); mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) {
    return blocking_internal::CountIfLocked(mu_.try_lock());
  }

  void lock_shared() ACQUIRE_SHARED() {
    mu_.lock_shared();
    blocking_internal::CountLock(1);
  }
  void unlock_shared() RELEASE_SHARED() {
    blocking_internal::CountLock(-1);
    mu_.unlock_shared();
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return blocking_internal::CountIfLocked(mu_.try_lock_shared());
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// ---------------------------------------------------------------------------
// Scoped lockers (annotated lock_guard equivalents).
// ---------------------------------------------------------------------------

/// RAII exclusive lock on a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// Condition variable over tc::Mutex.
// ---------------------------------------------------------------------------

/// Condition variable whose waits are lock-discipline-checked: Wait/WaitFor
/// REQUIRES the mutex, and the analysis sees the lock as continuously held
/// across the wait (the internal release/reacquire happens inside
/// std::condition_variable_any, beyond the intraprocedural horizon — this
/// is the documented condvar idiom; callers keep their guarded accesses in
/// an explicit `while (!predicate()) cv.Wait(mu);` loop).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Atomically release `mu`, wait, reacquire. Spurious wakeups possible —
  /// always wrap in a predicate while-loop. Blocking, but exempt from B1
  /// (the wait releases the mutex by design); it still counts for B2 — an
  /// executor task must never park its worker on a condvar.
  void Wait(Mutex& mu) REQUIRES(mu) {
    AssertWaitAllowed();
    cv_.wait(mu);
  }

  /// Timed wait; returns std::cv_status::timeout when the duration elapsed
  /// without a notification.
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& dur)
      REQUIRES(mu) {
    AssertWaitAllowed();
    return cv_.wait_for(mu, dur);
  }

  /// Deadline wait, for predicate loops that must not extend their total
  /// timeout on spurious wakeups.
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    AssertWaitAllowed();
    return cv_.wait_until(mu, deadline);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace tc
