#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::util {
namespace {

// Set while the current thread executes pool work; makes nested
// parallel_for calls run inline instead of re-entering the pool.
thread_local bool t_in_pool_task = false;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t resolve_thread_count(std::string_view spec) {
  if (spec.empty()) return hardware_threads();
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(spec.data(), spec.data() + spec.size(), value);
  if (ec != std::errc{} || ptr != spec.data() + spec.size()) return 1;
  return value == 0 ? hardware_threads() : value;
}

// One parallel_for in flight. Indices are handed out as chunks of `grain`
// via an atomic cursor; completion is a chunk countdown. The exception of
// the lowest throwing index wins, so error behavior is thread-count
// independent.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  // Workers currently inside execute() on this job; the caller may not
  // destroy the job (return from parallel_for) until this drops to zero.
  std::atomic<std::size_t> active_workers{0};

  Mutex error_mutex{LockLevel::pool_error};
  std::size_t error_index OPPRENTICE_GUARDED_BY(error_mutex) = 0;
  std::exception_ptr error OPPRENTICE_GUARDED_BY(error_mutex);

  void record_error(std::size_t index, std::exception_ptr e) {
    MutexLock lock(error_mutex);
    if (!error || index < error_index) {
      error = std::move(e);
      error_index = index;
    }
  }

  // Safe once no worker can still be recording (all chunks finished and
  // active_workers back to zero), which is when parallel_for calls it.
  std::exception_ptr take_error() {
    MutexLock lock(error_mutex);
    return error;
  }
};

struct ThreadPool::Impl {
  Mutex mutex{LockLevel::pool_work};
  CondVar work_cv;   // workers wait for a job with work
  CondVar done_cv;   // caller waits for job completion
  Job* current_job OPPRENTICE_GUARDED_BY(mutex) = nullptr;
  bool stop OPPRENTICE_GUARDED_BY(mutex) = false;
  // Written only single-threaded in the constructor/destructor.
  std::vector<std::thread> workers;
  // Serializes parallel_for calls from distinct user threads.
  Mutex submit_mutex{LockLevel::pool_submit};

  // Instruments (stable addresses; see obs/metrics.hpp).
  obs::Counter* tasks = nullptr;
  obs::Counter* dispatches = nullptr;
  obs::Counter* inline_runs = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* task_latency = nullptr;
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl),
      threads_(threads == 0 ? hardware_threads() : threads) {
  impl_->tasks = &obs::counter("opprentice.pool.tasks");
  impl_->dispatches = &obs::counter("opprentice.pool.dispatches");
  impl_->inline_runs = &obs::counter("opprentice.pool.inline_runs");
  impl_->queue_depth = &obs::gauge("opprentice.pool.queue_depth");
  impl_->task_latency = &obs::histogram("opprentice.pool.task.us");
  impl_->workers.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::in_pool_task() { return t_in_pool_task; }

void ThreadPool::run_inline(Job& job) {
  // Save/restore rather than set/clear: a nested inline run must not
  // strip the in-task flag from the enclosing pool task, or the next
  // nested call would try to dispatch and deadlock on submit_mutex.
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  for (std::size_t i = 0; i < job.n; ++i) {
    try {
      (*job.body)(i);
    } catch (...) {
      job.record_error(i, std::current_exception());
    }
  }
  t_in_pool_task = was_in_task;
}

void ThreadPool::execute(Job& job) {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  const bool timed = obs::detailed_timing_enabled();
  for (;;) {
    const std::size_t chunk =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) break;
    const std::size_t begin = chunk * job.grain;
    const std::size_t end = std::min(job.n, begin + job.grain);
    obs::Stopwatch watch;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*job.body)(i);
      } catch (...) {
        job.record_error(i, std::current_exception());
      }
    }
    if (timed) {
      impl_->task_latency->record(watch.elapsed_us());
      const std::size_t done =
          job.done_chunks.load(std::memory_order_relaxed) + 1;
      impl_->queue_depth->set(
          static_cast<double>(job.num_chunks -
                              std::min(job.num_chunks, done)));
    }
    if (job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      MutexLock lock(impl_->mutex);
      impl_->done_cv.notify_all();
    }
  }
  t_in_pool_task = was_in_task;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(impl_->mutex);
      // Explicit predicate loop (not the lambda overload) so the guarded
      // reads of stop/current_job are visibly under the held capability.
      while (!impl_->stop &&
             !(impl_->current_job != nullptr &&
               impl_->current_job->next_chunk.load(
                   std::memory_order_relaxed) <
                   impl_->current_job->num_chunks)) {
        impl_->work_cv.wait(impl_->mutex);
      }
      if (impl_->stop) return;
      job = impl_->current_job;
      // Registered under the lock so the caller's completion wait (which
      // also holds the lock when it checks) cannot miss this worker.
      job->active_workers.fetch_add(1, std::memory_order_relaxed);
    }
    execute(*job);
    {
      MutexLock lock(impl_->mutex);
      if (job->active_workers.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        impl_->done_cv.notify_all();
      }
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  // A caller holding a lock while pool threads run its body deadlocks as
  // soon as a task needs that lock, so submitting under one aborts at any
  // thread count. Calls nested in a pool task run inline and never submit;
  // they are exempt (the submitting thread itself runs its share of the
  // body under pool_submit).
  if (!t_in_pool_task) assert_no_locks_held("ThreadPool::parallel_for");
  if (n == 0) return;
  if (grain == 0) grain = 1;

  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.num_chunks = (n + grain - 1) / grain;

  impl_->tasks->add(n);
  const bool serial = threads_ <= 1 || impl_->workers.empty() ||
                      job.num_chunks <= 1 || t_in_pool_task;
  if (serial) {
    impl_->inline_runs->add();
    run_inline(job);
  } else {
    impl_->dispatches->add();
    MutexLock submit_lock(impl_->submit_mutex);
    {
      MutexLock lock(impl_->mutex);
      impl_->current_job = &job;
    }
    impl_->work_cv.notify_all();
    execute(job);
    {
      MutexLock lock(impl_->mutex);
      while (!(job.done_chunks.load(std::memory_order_acquire) ==
                   job.num_chunks &&
               job.active_workers.load(std::memory_order_acquire) == 0)) {
        // Parks with pool_submit still held, by design: it serializes
        // whole parallel_for calls. The wait releases only pool_work.
        impl_->done_cv.wait(impl_->mutex);
      }
      impl_->current_job = nullptr;
    }
    if (obs::detailed_timing_enabled()) impl_->queue_depth->set(0.0);
  }
  if (std::exception_ptr error = job.take_error()) {
    std::rethrow_exception(error);
  }
}

// ---- Global pool ----

namespace {

constinit Mutex g_pool_mutex{LockLevel::pool_registry};
std::unique_ptr<ThreadPool> g_pool OPPRENTICE_GUARDED_BY(g_pool_mutex);

// Rebuilds the pool when the degree changes. Callers must hold no
// reference to the previous pool (see header contract).
ThreadPool& pool_with(std::size_t threads) {
  MutexLock lock(g_pool_mutex);
  if (!g_pool || g_pool->thread_count() != threads) {
    g_pool.reset();  // join old workers before building the replacement
    g_pool = std::make_unique<ThreadPool>(threads);
    obs::gauge("opprentice.pool.threads")
        .set(static_cast<double>(g_pool->thread_count()));
  }
  return *g_pool;
}

std::size_t env_threads() {
  const char* spec = std::getenv("OPPRENTICE_THREADS");
  return resolve_thread_count(spec == nullptr ? "" : spec);
}

}  // namespace

ThreadPool& global_pool() {
  {
    MutexLock lock(g_pool_mutex);
    if (g_pool) return *g_pool;
  }
  return pool_with(env_threads());
}

void set_global_threads(std::size_t threads) {
  pool_with(threads == 0 ? hardware_threads() : threads);
}

void set_global_threads_from_env() { pool_with(env_threads()); }

std::size_t global_thread_count() { return global_pool().thread_count(); }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  global_pool().parallel_for(n, body, grain);
}

}  // namespace opprentice::util
