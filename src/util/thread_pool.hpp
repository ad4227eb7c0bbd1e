// Deterministic parallel execution for the hot paths (see DESIGN.md
// "Parallel execution").
//
// A fixed-size worker pool exposing one primitive, parallel_for(n, body):
// body(i) runs exactly once for every i in [0, n), possibly concurrently,
// and the call returns only when all indices finished. Work *assignment*
// is dynamic (an atomic chunk cursor), so the pool is only deterministic
// for loops whose iterations are independent — each index must read
// shared state immutably and write only its own output slot. All call
// sites in this codebase follow that contract, which is what makes
// extraction, forest training, and cThld selection bit-identical at any
// thread count (locked in by tests/parallel_equivalence_test.cpp).
//
// Semantics:
//  - thread_count() == 1 (or OPPRENTICE_THREADS=1) is an exact serial
//    fallback: no worker threads exist and body runs inline on the caller.
//  - Every index is attempted even when some throw; the exception raised
//    by the *lowest* index propagates to the caller (deterministic at any
//    thread count). Others are discarded.
//  - A parallel_for issued from inside a pool task runs inline serially
//    on the current thread, so nesting can never deadlock and never
//    oversubscribes (forest training inside a five-fold fold, say).
//  - Concurrent parallel_for calls from different user threads are
//    serialized against each other; each still completes all its indices.
//  - Calling parallel_for while holding a util::Mutex aborts (outside a
//    pool task, at any thread count): the workers may need that lock.
//
// The pool's internal locking uses the annotated util::Mutex types
// (util/mutex.hpp); shared fields carry GUARDED_BY and are statically
// checked under OPPRENTICE_THREAD_SAFETY (DESIGN.md §5e).
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace opprentice::util {

// Parses an OPPRENTICE_THREADS-style spec: "" or "0" mean hardware
// concurrency, a positive integer is taken literally (1 = serial), and
// anything unparsable degrades to 1 (serial — the conservative choice).
std::size_t resolve_thread_count(std::string_view spec);

class ThreadPool {
 public:
  // Parallelism degree: `threads` concurrent lanes including the calling
  // thread, so `threads - 1` workers are spawned. 0 = hardware
  // concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  // Runs body(i) for every i in [0, n). Indices are dispatched in chunks
  // of `grain` consecutive indices per task; raise it when body is tiny
  // relative to the dispatch cost (one atomic op per chunk).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  // True on a thread currently executing pool work (including the caller
  // while it participates in its own parallel_for).
  static bool in_pool_task();

 private:
  struct Job;

  void worker_loop();
  // Grabs and runs chunks until the job is exhausted.
  void execute(Job& job);
  // Serial inline path shared by the threads==1 pool and nested calls.
  static void run_inline(Job& job);

  struct Impl;
  Impl* impl_;
  std::size_t threads_;
};

// ---- Process-wide pool used by the library's parallel paths ----

// Lazily built on first use with OPPRENTICE_THREADS (hardware concurrency
// when unset). The reference stays valid until the next set_global_threads
// call; reconfigure only from a single thread while no parallel work runs
// (the CLI/bench/test mains do it at startup).
ThreadPool& global_pool();

// Rebuilds the global pool with the given degree (0 = hardware).
void set_global_threads(std::size_t threads);

// Rebuilds the global pool from the current OPPRENTICE_THREADS value.
void set_global_threads_from_env();

std::size_t global_thread_count();

// Shorthand: global_pool().parallel_for(...).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace opprentice::util
