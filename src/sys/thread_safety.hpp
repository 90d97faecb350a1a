// Machine-checked locking contracts: Clang Thread Safety Analysis macros
// plus thin annotated wrappers over the std synchronisation primitives.
//
// The serving tier holds several hand-disciplined mutexes (GraphService
// queue/shutdown/stats, GraphCatalog + its eviction ledger, ResultCache,
// the fault registry, NumaArenas), and a lock taken or skipped on the
// wrong path is exactly the class of defect a compile-time locking
// contract catches before TSan ever runs.  This header makes the
// conventions *checkable*:
//
//   * every guarded member is declared `GRIND_GUARDED_BY(m_)` — reading or
//     writing it without `m_` held is a compile error under Clang's
//     `-Wthread-safety` (promoted to an error in the static-analysis CI
//     job and the Clang tier-1 leg);
//   * private helpers that assume a lock is already held say so with
//     `GRIND_REQUIRES(m_)` instead of a comment;
//   * functions that must NOT be entered with a lock held (they acquire it,
//     or they sleep) say so with `GRIND_EXCLUDES(m_)`.
//
// Under any non-Clang compiler every macro expands to nothing and the
// wrappers compile down to the std types they hold — zero overhead, zero
// behaviour change.  docs/STATIC_ANALYSIS.md has the full contract and the
// compile-fail harness that keeps it honest.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------- macros ---

#if defined(__clang__)
#define GRIND_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRIND_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" is the conventional tag).
#define GRIND_CAPABILITY(x) GRIND_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define GRIND_SCOPED_CAPABILITY GRIND_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the named capability held.
#define GRIND_GUARDED_BY(x) GRIND_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named capability.
#define GRIND_PT_GUARDED_BY(x) GRIND_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function callable only with the named capabilities already held.
#define GRIND_REQUIRES(...) \
  GRIND_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the named capabilities (held on return).
#define GRIND_ACQUIRE(...) \
  GRIND_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the named capabilities (held on entry).
#define GRIND_RELEASE(...) \
  GRIND_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns `val`.
#define GRIND_TRY_ACQUIRE(...) \
  GRIND_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be entered with the named capabilities held
/// (it acquires them itself, or it blocks/sleeps).
#define GRIND_EXCLUDES(...) GRIND_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returning a reference to the named capability.
#define GRIND_RETURN_CAPABILITY(x) GRIND_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables analysis for one function.  Every use must carry
/// a justification comment (grind_lint's suppression discipline applies in
/// spirit; reviewers should treat a bare use as a bug).
#define GRIND_NO_THREAD_SAFETY_ANALYSIS \
  GRIND_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace grind::sys {

// -------------------------------------------------------------- wrappers ---

/// std::mutex with the capability attribute the analysis needs.  Same size,
/// same cost; native() exposes the underlying mutex for the CondVar wait
/// protocol (std::condition_variable demands std::unique_lock<std::mutex>).
class GRIND_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GRIND_ACQUIRE() { m_.lock(); }
  void unlock() GRIND_RELEASE() { m_.unlock(); }
  bool try_lock() GRIND_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped mutex, for interop only (UniqueLock / CondVar internals).
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard equivalent over sys::Mutex: acquires in the constructor,
/// releases in the destructor, and tells the analysis so.
class GRIND_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) GRIND_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() GRIND_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// std::unique_lock equivalent over sys::Mutex — the lock type CondVar
/// waits on.  Constructed locked; wait() releases and reacquires through
/// the native handle, which the analysis deliberately does not see (the
/// capability is held at every program point the caller can observe).
class GRIND_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) GRIND_ACQUIRE(m) : lock_(m.native()) {}
  ~UniqueLock() GRIND_RELEASE() {}  // unlock via the member's destructor

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The wrapped lock, for CondVar interop only.
  [[nodiscard]] std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over sys::UniqueLock.  Predicate overloads are
/// deliberately absent: Clang analyses a lambda body as a separate function
/// with no capabilities held, so a predicate reading guarded state would
/// warn spuriously.  Callers write the standard while-loop instead, which
/// keeps the guarded reads inside the annotated function scope:
///
///   UniqueLock lock(m_);
///   while (!ready_) cv_.wait(lock);          // ready_ GUARDED_BY(m_): OK
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.native(), deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock.native(), dur);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace grind::sys
