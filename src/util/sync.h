// Annotated synchronization primitives: std::mutex with Clang thread-safety
// capability attributes (util/thread_annotations.h). libstdc++'s std::mutex
// carries none, so state that wants the static analysis sits behind these
// wrappers; under PHOTODTN_ANALYSIS=ON (Clang) touching a PHOTODTN_GUARDED_BY
// field without its lock is a compile error. Zero-overhead by construction:
// Mutex is exactly a std::mutex, MutexLock a lock_guard-shaped RAII scope.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace photodtn {

/// A std::mutex the thread-safety analysis can reason about.
class PHOTODTN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PHOTODTN_ACQUIRE() { mu_.lock(); }
  void unlock() PHOTODTN_RELEASE() { mu_.unlock(); }
  bool try_lock() PHOTODTN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock scope over Mutex (lock_guard with capability annotations).
class PHOTODTN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PHOTODTN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PHOTODTN_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace photodtn
