#ifndef DSSP_COMMON_MUTEX_H_
#define DSSP_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/macros.h"

// Thin annotated wrappers over the standard-library synchronization types.
// libstdc++'s std::mutex carries no thread-safety-analysis attributes, so
// fields guarded by it are invisible to -Wthread-safety;
// these wrappers put a DSSP_CAPABILITY on the lockable type and scoped
// capabilities on the RAII holders, which is all the analysis needs to check
// a DSSP_GUARDED_BY field end to end. They add no state and no behavior:
// every call forwards to the wrapped standard type.

namespace dssp {

// Exclusive mutex (wraps std::mutex).
class DSSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DSSP_ACQUIRE() { mu_.lock(); }
  void Unlock() DSSP_RELEASE() { mu_.unlock(); }
  bool TryLock() DSSP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // The wrapped mutex, for std APIs that need the raw type (e.g. building a
  // std::unique_lock for deferred or multi-mutex locking). Callers taking
  // this path step outside the analysis and must say why.
  std::mutex& native() { return mu_; }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped exclusive lock over Mutex (the std::lock_guard replacement).
class DSSP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DSSP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DSSP_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

// Condition variable usable under a MutexLock. Wait() releases and reacquires
// the underlying mutex internally; from the analysis's point of view the
// capability is held across the call, which matches how guarded state may be
// touched immediately before and after waiting. Callers re-test their
// predicate in an explicit `while (!pred) cv.Wait(lock);` loop — the
// std::condition_variable lambda-predicate overload is deliberately not
// exposed, because the analysis checks lambdas as separate functions that do
// not inherit the caller's lock set.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dssp

#endif  // DSSP_COMMON_MUTEX_H_
