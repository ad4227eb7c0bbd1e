// Clang Thread Safety Analysis attribute shim (see DESIGN.md §5e).
//
// The macros below expand to Clang's capability-analysis attributes when
// compiling with Clang and to nothing everywhere else, so annotating a
// class costs zero on GCC/MSVC while `-DOPPRENTICE_THREAD_SAFETY=ON`
// (Clang + `-Wthread-safety -Werror=thread-safety-analysis`, run as a
// dedicated CI job) turns unguarded access to annotated shared state
// into a compile error.
//
// Usage pattern (see util/mutex.hpp for the annotated lock types):
//
//   util::Mutex mutex_{util::LockLevel::pool_work};
//   Job* current_ OPPRENTICE_GUARDED_BY(mutex_) = nullptr;
//
//   void push(Job* j) {
//     util::MutexLock lock(mutex_);
//     current_ = j;                  // OK: capability held
//   }
//   // current_ = j;  outside a lock: thread-safety-analysis error.
#pragma once

#if defined(__clang__)
#define OPPRENTICE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OPPRENTICE_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

// Type declarations.
#define OPPRENTICE_CAPABILITY(name) \
  OPPRENTICE_THREAD_ANNOTATION(capability(name))
#define OPPRENTICE_SCOPED_CAPABILITY \
  OPPRENTICE_THREAD_ANNOTATION(scoped_lockable)

// Data members.
#define OPPRENTICE_GUARDED_BY(mu) OPPRENTICE_THREAD_ANNOTATION(guarded_by(mu))
#define OPPRENTICE_PT_GUARDED_BY(mu) \
  OPPRENTICE_THREAD_ANNOTATION(pt_guarded_by(mu))

// Functions that change the capability state.
#define OPPRENTICE_ACQUIRE(...) \
  OPPRENTICE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define OPPRENTICE_RELEASE(...) \
  OPPRENTICE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Functions with capability preconditions.
#define OPPRENTICE_REQUIRES(...) \
  OPPRENTICE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define OPPRENTICE_EXCLUDES(...) \
  OPPRENTICE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Escape hatch; every use needs a comment explaining why the analysis
// cannot see the synchronization.
#define OPPRENTICE_NO_THREAD_SAFETY_ANALYSIS \
  OPPRENTICE_THREAD_ANNOTATION(no_thread_safety_analysis)
