// Clang Thread Safety Analysis annotations.
//
// The simulator proper is single-threaded by design, but real threads exist
// at one edge — the SweepRunner pool, whose first-error channel is the
// annotated state — and a parallel DES would multiply them. These macros wire
// shared state to the mutex that guards it so `-Wthread-safety` turns lock
// discipline into a compile-time property: an unguarded access to a
// DAS_GUARDED_BY member, or a call to a DAS_REQUIRES function without the
// lock held, is a compiler error under the `thread-safety` CMake preset (and
// the CI static-analysis job). Under gcc (which has no such analysis) every
// macro expands to nothing, so the default build is unaffected.
//
// Clang's analysis only understands lock objects whose type is annotated as
// a capability; libstdc++'s std::mutex is not. das::Mutex / das::MutexLock
// below are zero-cost annotated wrappers over std::mutex / lock_guard — use
// them for any new mutex-protected state so the analysis can see it.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define DAS_TS_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define DAS_TS_HAS_ATTRIBUTE(x) 0
#endif

#if DAS_TS_HAS_ATTRIBUTE(capability)
#define DAS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DAS_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a type to be a lockable capability ("mutex", "role", ...).
#define DAS_CAPABILITY(x) DAS_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define DAS_SCOPED_CAPABILITY DAS_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with `x` held.
#define DAS_GUARDED_BY(x) DAS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose POINTEE is protected by `x` (the pointer itself is not).
#define DAS_PT_GUARDED_BY(x) DAS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (and does not release it).
#define DAS_ACQUIRE(...) DAS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DAS_ACQUIRE_SHARED(...) \
  DAS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability.
#define DAS_RELEASE(...) DAS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DAS_RELEASE_SHARED(...) \
  DAS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function may acquire the capability; `b` is the success return value.
#define DAS_TRY_ACQUIRE(...) \
  DAS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability to call this function.
#define DAS_REQUIRES(...) DAS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DAS_REQUIRES_SHARED(...) \
  DAS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrant lock, deadlock guard).
#define DAS_EXCLUDES(...) DAS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define DAS_RETURN_CAPABILITY(x) DAS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's locking is deliberately invisible to the
/// analysis. Every use needs a comment saying why it is safe.
#define DAS_NO_THREAD_SAFETY_ANALYSIS \
  DAS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace das {

/// std::mutex with the capability annotation the analysis needs. Same size,
/// same codegen; lock()/unlock() forward directly.
class DAS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DAS_ACQUIRE() { mu_.lock(); }
  void unlock() DAS_RELEASE() { mu_.unlock(); }
  bool try_lock() DAS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for std::condition_variable::wait and friends. The
  /// analysis cannot follow what happens to it; callers re-establish the
  /// capability with the macros at the call site.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII guard over das::Mutex (std::lock_guard is invisible to the analysis).
class DAS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DAS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DAS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace das
