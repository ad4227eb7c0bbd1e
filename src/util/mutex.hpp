// Annotated, lock-order-checked mutual exclusion (DESIGN.md §5e/§5j).
//
// `util::Mutex` wraps std::mutex as a named capability and
// `util::MutexLock` is the scoped acquisition, so data members declared
// `OPPRENTICE_GUARDED_BY(mutex_)` are statically checked: touching them
// without the lock held fails the OPPRENTICE_THREAD_SAFETY build. Every
// lock-holding class in the tree uses these types instead of raw
// std::mutex/std::lock_guard (`opprentice_check`'s raw-mutex rule).
//
// Every Mutex also has a `LockLevel`, its place in the one process-wide
// lock order, and checks that order at run time in every build. Taking a
// lock at or below the innermost level the thread holds (an inversion, or
// a second lock of one level such as two registry shards), or unlocking a
// mutex the thread does not hold, writes the lock names to stderr and
// aborts before the thread can block. So a deadlock that needs a rare
// interleaving fails on the first run that takes the locks in the wrong
// order, at any thread count. The bookkeeping is a fixed-size
// thread-local stack: one compare, push and pop per acquisition.
//
// `CondVar` pairs with Mutex for condition waits. It is built on
// std::condition_variable_any (Mutex is BasicLockable), whose wait goes
// through Mutex::unlock/lock and so stays inside the order check; the
// extra cost over condition_variable is irrelevant because every wait in
// this codebase is an idle-path wait. Callers must hold the mutex
// (enforced by the analysis) and re-check their predicate in a loop — an
// explicit `while (!pred) cv.wait(mu);` rather than a predicate lambda,
// so the analysis can see the guarded reads happen under the held
// capability.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace opprentice::util {

// The global acquisition order, lowest first. Gaps leave room for new
// locks without renumbering.
enum class LockLevel : std::uint8_t {
  // Outermost: parallel_for takes it holding no other lock (asserted) and
  // keeps it while the submitting thread runs its share of the body.
  pool_submit = 1,
  net_server = 5,         // IngestServer connections and sources (§5k)
  net_series_cache = 7,   // IngestServer series-handle cache
  registry_shard = 10,    // one SeriesRegistry shard (§5i)
  series_state = 20,      // one FleetEngine series
  fault_store = 30,       // fault-injection plan store (§5f)
  pool_registry = 40,     // the global thread pool slot (§5d)
  pool_work = 60,         // pool job hand-off and completion
  pool_error = 70,        // a parallel_for's lowest-index exception
  trace_collector = 80,   // span collector (§5c)
  cost_ledger = 85,       // cost attribution slots (§5h)
  metrics_registry = 90,  // instrument registry (§5c)
  flight_recorder = 95,   // flight recorder ring (§5h)
  log_write = 99,         // log sink; the top level, nothing nests inside
};

constexpr const char* lock_level_name(LockLevel level) {
  switch (level) {
    case LockLevel::pool_submit: return "pool_submit";
    case LockLevel::net_server: return "net_server";
    case LockLevel::net_series_cache: return "net_series_cache";
    case LockLevel::registry_shard: return "registry_shard";
    case LockLevel::series_state: return "series_state";
    case LockLevel::fault_store: return "fault_store";
    case LockLevel::pool_registry: return "pool_registry";
    case LockLevel::pool_work: return "pool_work";
    case LockLevel::pool_error: return "pool_error";
    case LockLevel::trace_collector: return "trace_collector";
    case LockLevel::cost_ledger: return "cost_ledger";
    case LockLevel::metrics_registry: return "metrics_registry";
    case LockLevel::flight_recorder: return "flight_recorder";
    case LockLevel::log_write: return "log_write";
  }
  return "unknown";
}

class Mutex;

namespace lock_order {

// The mutexes the calling thread holds, innermost last. Levels strictly
// increase up the stack, so it never holds more entries than there are
// levels; trivially constructed, so the thread_local needs no
// initialization guard.
struct HeldStack {
  static constexpr std::size_t kCapacity = 16;
  const Mutex* held[kCapacity];
  std::size_t depth;
};

inline thread_local HeldStack t_held{};

// Cold paths, defined below Mutex. Marked cold so the compiler keeps
// them out of the lock and unlock fast paths at every call site.
[[noreturn, gnu::cold]] inline void order_violation(const Mutex& acquiring,
                                                    const Mutex& innermost);
[[noreturn, gnu::cold]] inline void held_across(const char* operation,
                                                const Mutex& innermost);
[[gnu::cold]] inline void release_inner(const Mutex& releasing);

}  // namespace lock_order

class OPPRENTICE_CAPABILITY("mutex") Mutex {
 public:
  // No default: every mutex names its level. constexpr, so namespace-scope
  // mutexes are constant-initialized (declare them constinit).
  explicit constexpr Mutex(LockLevel level) noexcept : level_(level) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  LockLevel level() const { return level_; }
  const char* name() const { return lock_level_name(level_); }

  void lock() OPPRENTICE_ACQUIRE() {
    lock_order::HeldStack& h = lock_order::t_held;
    if (h.depth != 0 && (h.held[h.depth - 1]->level_ >= level_ ||
                         h.depth == lock_order::HeldStack::kCapacity))
        [[unlikely]] {
      lock_order::order_violation(*this, *h.held[h.depth - 1]);
    }
    mu_.lock();
    h.held[h.depth++] = this;
  }

  void unlock() OPPRENTICE_RELEASE() {
    lock_order::HeldStack& h = lock_order::t_held;
    if (h.depth != 0 && h.held[h.depth - 1] == this) [[likely]] {
      --h.depth;
    } else {
      lock_order::release_inner(*this);
    }
    mu_.unlock();
  }

 private:
  std::mutex mu_;
  LockLevel level_;
};

namespace lock_order {

// Cold paths. Each formats into a stack buffer, writes unbuffered stderr
// (no allocation: the caller may be inside an allocation-sensitive
// section) and aborts.

[[noreturn, gnu::cold]] inline void die(const char* message) {
  std::fputs(message, stderr);
  std::fflush(stderr);
  std::abort();
}

inline void order_violation(const Mutex& acquiring,
                            const Mutex& innermost) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "util::Mutex: lock order violation: acquiring '%s' (level "
                "%d) while holding '%s' (level %d); a thread may only take "
                "locks of strictly increasing LockLevel\n",
                acquiring.name(), static_cast<int>(acquiring.level()),
                innermost.name(), static_cast<int>(innermost.level()));
  die(buf);
}

inline void held_across(const char* operation, const Mutex& innermost) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "util::Mutex: %s called while holding '%s' (level %d); "
                "release every lock before handing work to other threads\n",
                operation, innermost.name(),
                static_cast<int>(innermost.level()));
  die(buf);
}

// Out-of-order release: removes `releasing` from below the innermost
// entry, or aborts when the thread does not hold it at all.
inline void release_inner(const Mutex& releasing) {
  HeldStack& h = t_held;
  for (std::size_t i = h.depth; i > 0; --i) {
    if (h.held[i - 1] != &releasing) continue;
    for (std::size_t j = i; j < h.depth; ++j) h.held[j - 1] = h.held[j];
    --h.depth;
    return;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "util::Mutex: unlocking '%s' (level %d), which this thread "
                "does not hold (innermost held: '%s')\n",
                releasing.name(), static_cast<int>(releasing.level()),
                h.depth == 0 ? "none" : h.held[h.depth - 1]->name());
  die(buf);
}

}  // namespace lock_order

// Aborts, naming the innermost held lock, when the calling thread holds
// any util::Mutex. For operations that must never run under a lock
// (ThreadPool::parallel_for hands work to threads that may need it).
inline void assert_no_locks_held(const char* operation) {
  const lock_order::HeldStack& h = lock_order::t_held;
  if (h.depth != 0) [[unlikely]] {
    lock_order::held_across(operation, *h.held[h.depth - 1]);
  }
}

// RAII scoped acquisition of a Mutex (the annotated std::lock_guard).
class OPPRENTICE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OPPRENTICE_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~MutexLock() OPPRENTICE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable usable with util::Mutex. wait() atomically releases
// the mutex for the duration of the block and reacquires it before
// returning; the annotation requires the caller to already hold it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) OPPRENTICE_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace opprentice::util
