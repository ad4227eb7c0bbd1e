// Unit tests for the deterministic worker pool (util/thread_pool.hpp):
// result independence from scheduling, deterministic exception
// propagation, nested parallel_for safety, stress, and the exact serial
// fallback that OPPRENTICE_THREADS=1 promises. Also the runtime lock-order
// check in util::Mutex (util/mutex.hpp): every way to break the order
// aborts, naming both locks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace {

using opprentice::util::LockLevel;
using opprentice::util::Mutex;
using opprentice::util::MutexLock;
using opprentice::util::ThreadPool;

// An untagged mutex does not compile: the level is the only constructor
// argument.
static_assert(!std::is_default_constructible_v<Mutex>);

// ---- Lock order ----

void lock_in_callee(Mutex& mu) { MutexLock lock(mu); }

// Releases a mutex the caller does not hold. Clang's analysis rejects that
// at compile time, so it is told to look away: the run-time check is what
// the case exercises.
void unlock_unheld(Mutex& mu) OPPRENTICE_NO_THREAD_SAFETY_ANALYSIS {
  mu.unlock();
}

TEST(LockOrder, DeclaredOrderAndOutOfOrderReleaseAreFine) {
  Mutex shard(LockLevel::registry_shard);
  Mutex series(LockLevel::series_state);
  Mutex log(LockLevel::log_write);
  {
    MutexLock hold_shard(shard);
    MutexLock hold_series(series);
    lock_in_callee(log);
  }
  // Releasing the outer lock first is legal; the inner one stays held
  // and still bounds what may be taken next.
  shard.lock();
  series.lock();
  shard.unlock();
  lock_in_callee(log);
  series.unlock();
  // Nothing left held: any level may be taken again.
  lock_in_callee(shard);
}

// Death tests fork while pool workers may be alive; the threadsafe style
// re-executes the binary instead of forking a multi-threaded process.
class LockOrderDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockOrderDeathTest, LevelInversionAborts) {
  Mutex shard(LockLevel::registry_shard);
  Mutex series(LockLevel::series_state);
  EXPECT_DEATH(
      {
        MutexLock hold_series(series);
        MutexLock hold_shard(shard);
      },
      "acquiring 'registry_shard' \\(level 10\\) while holding "
      "'series_state' \\(level 20\\)");
}

TEST_F(LockOrderDeathTest, SameLevelReentryAborts) {
  // Two registry shards held at once: the cross-shard deadlock hazard.
  Mutex first_shard(LockLevel::registry_shard);
  Mutex second_shard(LockLevel::registry_shard);
  EXPECT_DEATH(
      {
        MutexLock hold_first(first_shard);
        MutexLock hold_second(second_shard);
      },
      "acquiring 'registry_shard'.*while holding 'registry_shard'");
}

TEST_F(LockOrderDeathTest, AcquisitionThroughCalleeAborts) {
  Mutex trace(LockLevel::trace_collector);
  Mutex faults(LockLevel::fault_store);
  EXPECT_DEATH(
      {
        MutexLock hold(trace);
        lock_in_callee(faults);
      },
      "acquiring 'fault_store'.*while holding 'trace_collector'");
}

TEST_F(LockOrderDeathTest, AcquisitionThroughCallableAborts) {
  // The registry's get_or_create(id, factory) shape: a callable run under
  // the caller's lock, written far from it.
  Mutex shard(LockLevel::registry_shard);
  Mutex cache(LockLevel::net_series_cache);
  const std::function<void()> factory = [&] { MutexLock lock(cache); };
  const auto run_under_shard = [&](const std::function<void()>& make) {
    MutexLock hold(shard);
    make();
  };
  EXPECT_DEATH(run_under_shard(factory),
               "acquiring 'net_series_cache'.*while holding "
               "'registry_shard'");
}

TEST_F(LockOrderDeathTest, UnlockingAMutexNotHeldAborts) {
  Mutex series(LockLevel::series_state);
  Mutex work(LockLevel::pool_work);
  EXPECT_DEATH(
      {
        MutexLock hold(series);
        unlock_unheld(work);
      },
      "unlocking 'pool_work'.*does not hold.*innermost held: "
      "'series_state'");
}

TEST_F(LockOrderDeathTest, ParallelForUnderALockAbortsAtAnyThreadCount) {
  Mutex series(LockLevel::series_state);
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_DEATH(
        {
          ThreadPool pool(threads);
          MutexLock hold(series);
          pool.parallel_for(8, [](std::size_t) {});
        },
        "ThreadPool::parallel_for called while holding 'series_state'")
        << threads << " threads";
  }
}

TEST(ResolveThreadCount, SpecGrammar) {
  const std::size_t hw = opprentice::util::resolve_thread_count("");
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(opprentice::util::resolve_thread_count("0"), hw);
  EXPECT_EQ(opprentice::util::resolve_thread_count("1"), 1u);
  EXPECT_EQ(opprentice::util::resolve_thread_count("8"), 8u);
  // Unparsable specs degrade to serial, never to a thread explosion.
  EXPECT_EQ(opprentice::util::resolve_thread_count("lots"), 1u);
  EXPECT_EQ(opprentice::util::resolve_thread_count("4x"), 1u);
  EXPECT_EQ(opprentice::util::resolve_thread_count("-2"), 1u);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  const std::size_t n = 1000;
  std::vector<double> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = static_cast<double>(i * i) + 0.5;
  }
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<double> out(n, 0.0);
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<double>(i * i) + 0.5;
    });
    EXPECT_EQ(out, expected) << "threads=" << threads;
  }
}

TEST(ThreadPool, GrainCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {1u, 3u, 64u, 1000u}) {
    const std::size_t n = 257;  // deliberately not a multiple of any grain
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom 37");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, LowestIndexExceptionWinsAtAnyThreadCount) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::string message;
    try {
      pool.parallel_for(500, [](std::size_t i) {
        if (i == 11 || i == 12 || i == 400) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "boom 11") << "threads=" << threads;
  }
}

TEST(ThreadPool, EveryIndexRunsEvenWhenSomeThrow) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  EXPECT_THROW(pool.parallel_for(hits.size(),
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i % 7 == 0) {
                                     throw std::runtime_error("x");
                                   }
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  const std::size_t outer = 16, inner = 100;
  std::vector<std::size_t> sums(outer, 0);
  pool.parallel_for(outer, [&](std::size_t o) {
    // The nested call must run inline on this worker — same thread, no
    // second dispatch, no deadlock.
    const auto outer_thread = std::this_thread::get_id();
    std::vector<std::size_t> partial(inner, 0);
    pool.parallel_for(inner, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      EXPECT_TRUE(ThreadPool::in_pool_task());
      partial[i] = o * i;
    });
    sums[o] = std::accumulate(partial.begin(), partial.end(),
                              std::size_t{0});
  });
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(sums[o], o * (inner * (inner - 1)) / 2);
  }
}

TEST(ThreadPool, StressTenThousandNoopTasks) {
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(10000, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 10000u) << "round " << round;
  }
}

TEST(ThreadPool, SerialPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(64);
  std::vector<std::size_t> order;
  order.reserve(ids.size());
  pool.parallel_for(ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
    order.push_back(i);  // safe: single-threaded by contract
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
  // Exact serial fallback also means in-order execution.
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, TaskCounterAdvances) {
  auto& tasks = opprentice::obs::counter("opprentice.pool.tasks");
  const auto before = tasks.value();
  ThreadPool pool(2);
  pool.parallel_for(123, [](std::size_t) {});
  EXPECT_EQ(tasks.value(), before + 123);
}

TEST(GlobalPool, EnvOverrideIsExactSerial) {
  ASSERT_EQ(setenv("OPPRENTICE_THREADS", "1", 1), 0);
  opprentice::util::set_global_threads_from_env();
  EXPECT_EQ(opprentice::util::global_thread_count(), 1u);

  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(32);
  opprentice::util::parallel_for(ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);

  ASSERT_EQ(setenv("OPPRENTICE_THREADS", "3", 1), 0);
  opprentice::util::set_global_threads_from_env();
  EXPECT_EQ(opprentice::util::global_thread_count(), 3u);

  ASSERT_EQ(unsetenv("OPPRENTICE_THREADS"), 0);
  opprentice::util::set_global_threads_from_env();
  EXPECT_GE(opprentice::util::global_thread_count(), 1u);
}

TEST(GlobalPool, SetGlobalThreadsSticksAcrossUses) {
  opprentice::util::set_global_threads(2);
  EXPECT_EQ(opprentice::util::global_thread_count(), 2u);
  std::atomic<int> count{0};
  opprentice::util::parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
  // A plain global_pool() use must not silently rebuild from the env.
  EXPECT_EQ(opprentice::util::global_thread_count(), 2u);
  opprentice::util::set_global_threads(0);  // restore hardware default
}

}  // namespace
