// Fleet engine suite (DESIGN.md §5i): the sharded series registry keeps
// its insert/lookup/evict semantics under concurrent hammering, the
// staggered retrain scheduler reproduces a golden schedule from a fixed
// seed, and series are isolated — a quarantined or fault-injected series
// must not perturb any other series' output bytes.
//
// ctest label: fleet (CI runs these under TSan alongside `parallel`).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_engine.hpp"
#include "core/retrain_scheduler.hpp"
#include "core/series_registry.hpp"
#include "obs/metrics.hpp"
#include "timeseries/repair.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace opprentice;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

struct PlanGuard {
  explicit PlanGuard(const util::FaultPlan& plan) {
    util::set_fault_plan(plan);
  }
  ~PlanGuard() { util::clear_fault_plan(); }
};

std::uint64_t counter_value(const std::string& name) {
  return obs::counter(name).value();
}

// ---- series registry -----------------------------------------------------

TEST(SeriesRegistry, ShardIndexIsDeterministicAndInRange) {
  for (std::size_t shards : {1u, 7u, 64u}) {
    for (int i = 0; i < 200; ++i) {
      const std::string id = "kpi-" + std::to_string(i);
      const std::size_t a = core::registry_shard_index(id, shards, 42);
      const std::size_t b = core::registry_shard_index(id, shards, 42);
      EXPECT_EQ(a, b);
      EXPECT_LT(a, shards);
    }
  }
  // Different seeds give different layouts (else the seed is dead code).
  std::size_t moved = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    if (core::registry_shard_index(id, 64, 1) !=
        core::registry_shard_index(id, 64, 2)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(SeriesRegistry, InsertLookupEvict) {
  core::SeriesRegistry<int> registry(8, 0);
  EXPECT_EQ(registry.entry_count(), 0u);
  EXPECT_EQ(registry.find("a"), nullptr);
  EXPECT_FALSE(registry.erase("a"));

  auto a = registry.get_or_create("a", [] { return std::make_shared<int>(1); });
  auto a2 =
      registry.get_or_create("a", [] { return std::make_shared<int>(2); });
  EXPECT_EQ(a.get(), a2.get()) << "second factory must not run";
  EXPECT_EQ(*a, 1);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_EQ(registry.entry_count(), 1u);

  registry.get_or_create("b", [] { return std::make_shared<int>(3); });
  EXPECT_EQ(registry.ids_sorted(), (std::vector<std::string>{"a", "b"}));

  // Evicted entries stay alive for existing holders.
  EXPECT_TRUE(registry.erase("a"));
  EXPECT_FALSE(registry.contains("a"));
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(registry.entry_count(), 1u);
}

TEST(SeriesRegistry, ConcurrentGetOrCreateConstructsOnce) {
  core::SeriesRegistry<int> registry(4, 0);
  constexpr int kThreads = 8;
  constexpr int kIds = 64;
  std::atomic<int> constructions{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&registry, &constructions] {
      for (int i = 0; i < kIds; ++i) {
        const std::string id = "kpi-" + std::to_string(i);
        auto entry = registry.get_or_create(id, [&constructions, i] {
          constructions.fetch_add(1);
          return std::make_shared<int>(i);
        });
        ASSERT_EQ(*entry, i);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(constructions.load(), kIds) << "one construction per id";
  EXPECT_EQ(registry.entry_count(), static_cast<std::size_t>(kIds));
}

TEST(SeriesRegistry, ConcurrentInsertLookupEvict) {
  core::SeriesRegistry<int> registry(8, 7);
  constexpr int kIds = 128;
  // Writers churn (insert + evict) even ids; readers look up everything;
  // odd ids are inserted once and must survive the churn untouched.
  for (int i = 1; i < kIds; i += 2) {
    registry.get_or_create("kpi-" + std::to_string(i),
                           [i] { return std::make_shared<int>(i); });
  }
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&registry, w] {
      for (int round = 0; round < 50; ++round) {
        for (int i = w; i < kIds; i += 8) {
          const int even = 2 * ((i + round) % (kIds / 2));
          const std::string id = "kpi-" + std::to_string(even);
          auto entry = registry.get_or_create(
              id, [even] { return std::make_shared<int>(even); });
          ASSERT_EQ(*entry, even);
          registry.erase(id);
        }
      }
    });
    workers.emplace_back([&registry] {
      for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < kIds; ++i) {
          auto entry = registry.find("kpi-" + std::to_string(i));
          if (entry != nullptr) {
            ASSERT_EQ(*entry, i);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every odd id survived; ids_sorted is globally sorted.
  for (int i = 1; i < kIds; i += 2) {
    EXPECT_TRUE(registry.contains("kpi-" + std::to_string(i)));
  }
  const auto ids = registry.ids_sorted();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_GE(ids.size(), static_cast<std::size_t>(kIds / 2));
}

// ---- retrain scheduler ---------------------------------------------------

TEST(RetrainScheduler, PhaseIsStableAcrossInstances) {
  const core::RetrainScheduler a(2026, 64);
  const core::RetrainScheduler b(2026, 64);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    EXPECT_EQ(a.phase(id), b.phase(id));
    EXPECT_LT(a.phase(id), 64u);
  }
  const core::RetrainScheduler other_seed(2027, 64);
  std::size_t moved = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    if (a.phase(id) != other_seed.phase(id)) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(RetrainScheduler, DueSemantics) {
  const core::RetrainScheduler scheduler(1, 10);
  const std::size_t phase = 3;
  // Never due inside the first full interval, then exactly every 10
  // points at the series' phase offset.
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_FALSE(scheduler.due_at(phase, n)) << "n=" << n;
  }
  for (std::size_t n = 10; n < 60; ++n) {
    EXPECT_EQ(scheduler.due_at(phase, n), n % 10 == phase) << "n=" << n;
  }
  EXPECT_EQ(scheduler.next_due(phase, 0), 13u);
  EXPECT_EQ(scheduler.next_due(phase, 13), 23u);
}

// The golden schedule: seed 2026, interval 64, ids kpi-0..kpi-999. The
// exact phases below and the checksum over all 1000 were captured from
// the first run and must never drift — a changed hash reshuffles every
// deployed fleet's retrain load.
TEST(RetrainScheduler, GoldenScheduleForSeed2026) {
  const core::RetrainScheduler scheduler(2026, 64);
  const std::size_t golden[10] = {10, 46, 0, 29, 51, 16, 18, 7, 46, 1};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scheduler.phase("kpi-" + std::to_string(i)), golden[i])
        << "kpi-" << i;
  }
  std::uint64_t checksum = 1469598103934665603ULL;
  std::vector<std::string> ids;
  std::vector<std::size_t> load(64, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    const std::size_t phase = scheduler.phase(id);
    ++load[phase];
    checksum ^= phase;
    checksum *= 1099511628211ULL;
    ids.push_back(id);
  }
  EXPECT_EQ(checksum, 6472609295425330507ULL);
  // The stagger must actually spread load: with 1000 series over 64
  // phases (~15.6 expected per phase), no phase may carry more than 3x
  // its share.
  for (std::size_t phase = 0; phase < 64; ++phase) {
    EXPECT_LE(load[phase], 47u) << "phase " << phase;
  }
  const auto histogram = scheduler.phase_histogram(ids, 8);
  std::size_t total = 0;
  for (const std::size_t bucket : histogram) total += bucket;
  EXPECT_EQ(total, 1000u);
}

// ---- fleet engine --------------------------------------------------------

// Small context so the lite set (8 configurations here) warms up in 16
// points and a full train-classify cycle fits in 64.
core::FleetOptions small_fleet_options() {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  options.detector_factory = core::fleet_lite_configurations;
  options.retrain_interval = 16;
  options.forest.num_trees = 8;
  options.forest.seed = 7;
  options.scheduler_seed = 2026;
  return options;
}

// Feeds `points` synthetic ticks to one series, ingesting labels (every
// 7th point anomalous) in 16-point trailing chunks; returns every
// verdict.
std::vector<core::FleetDetection> drive_series(core::FleetEngine& engine,
                                               const core::SeriesHandle& s,
                                               std::size_t points) {
  const std::uint64_t salt = 99;
  std::vector<core::FleetDetection> verdicts;
  std::vector<std::uint8_t> chunk(16);
  for (std::size_t t = 0; t < points; ++t) {
    verdicts.push_back(
        engine.feed(s, core::synthetic_fleet_value(salt, t, 16)));
    if ((t + 1) % 16 == 0) {
      const std::size_t begin = t + 1 - 16;
      for (std::size_t j = 0; j < 16; ++j) {
        chunk[j] = (begin + j) % 7 == 0 ? 1 : 0;
      }
      engine.ingest_labels(s, chunk, begin);
    }
  }
  return verdicts;
}

TEST(FleetEngine, WarmupTrainClassifyCycle) {
  core::FleetEngine engine(small_fleet_options());
  const auto s = engine.add_series("kpi-cycle");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(engine.find_series("kpi-cycle").get(), s.get());
  EXPECT_EQ(engine.forest_fingerprint(s), "");

  const auto verdicts = drive_series(engine, s, 64);
  const auto stats = engine.stats(s);
  EXPECT_EQ(stats.points_seen, 64u);
  EXPECT_EQ(stats.labeled_until, 64u);
  EXPECT_TRUE(stats.trained);
  EXPECT_GE(stats.retrains, 1u);
  EXPECT_FALSE(stats.quarantined);
  EXPECT_NE(engine.forest_fingerprint(s), "");

  // Nothing classifies before the first trained forest; everything after
  // the last retrain does, with finite scores in [0, 1].
  EXPECT_FALSE(verdicts.front().classified);
  EXPECT_TRUE(verdicts.back().classified);
  for (const auto& v : verdicts) {
    if (!v.classified) continue;
    EXPECT_GE(v.score, 0.0);
    EXPECT_LE(v.score, 1.0);
    EXPECT_EQ(v.is_anomaly, v.score >= v.cthld);
  }
}

TEST(FleetEngine, AddSeriesIsIdempotentAndRemovable) {
  core::FleetEngine engine(small_fleet_options());
  const auto a = engine.add_series("kpi-a");
  EXPECT_EQ(engine.add_series("kpi-a").get(), a.get());
  engine.add_series("kpi-b");
  EXPECT_EQ(engine.series_count(), 2u);
  EXPECT_EQ(engine.series_ids(),
            (std::vector<std::string>{"kpi-a", "kpi-b"}));
  EXPECT_TRUE(engine.remove_series("kpi-a"));
  EXPECT_FALSE(engine.remove_series("kpi-a"));
  EXPECT_EQ(engine.find_series("kpi-a"), nullptr);
  // The evicted handle still answers stats() for its holder.
  EXPECT_EQ(engine.stats(a).id, "kpi-a");
}

TEST(FleetEngine, QuarantineStopsConsumptionUntilReleased) {
  core::FleetEngine engine(small_fleet_options());
  const auto s = engine.add_series("kpi-q");
  drive_series(engine, s, 8);
  engine.set_quarantined(s, true);
  const auto verdict = engine.feed(s, 5.0);
  EXPECT_FALSE(verdict.classified);
  EXPECT_TRUE(std::isnan(verdict.score));
  EXPECT_EQ(engine.stats(s).points_seen, 8u) << "quarantined series consume nothing";
  engine.set_quarantined(s, false);
  engine.feed(s, 5.0);
  EXPECT_EQ(engine.stats(s).points_seen, 9u);
}

TEST(FleetEngine, RepeatedTrainFailureQuarantines) {
  util::FaultPlan plan;
  plan.seed = 11;
  plan.rates["forest.train"] = 1.0;
  PlanGuard guard(plan);
  const std::uint64_t quarantined_before =
      counter_value("opprentice.fleet.quarantined");

  auto options = small_fleet_options();
  options.quarantine_after = 2;
  core::FleetEngine engine(options);
  const auto s = engine.add_series("kpi-doomed");
  drive_series(engine, s, 112);

  const auto stats = engine.stats(s);
  EXPECT_FALSE(stats.trained);
  EXPECT_GE(stats.train_failures, 2u);
  EXPECT_TRUE(stats.quarantined);
  EXPECT_EQ(counter_value("opprentice.fleet.quarantined"),
            quarantined_before + 1);
}

TEST(FleetEngine, BoundedHistoryStillTrains) {
  auto options = small_fleet_options();
  options.history_capacity = 32;
  core::FleetEngine engine(options);
  const auto s = engine.add_series("kpi-bounded");
  const auto verdicts = drive_series(engine, s, 128);
  const auto stats = engine.stats(s);
  EXPECT_EQ(stats.points_seen, 128u);
  EXPECT_TRUE(stats.trained);
  EXPECT_TRUE(verdicts.back().classified);
}

// Cross-series isolation: series y and z must produce byte-identical
// outputs whether or not series x is being fault-injected, repaired, and
// quarantined next to them in the same engine.
TEST(FleetEngine, FaultedSeriesCannotPerturbNeighbors) {
  auto run = [](bool chaos_on_x) {
    core::FleetEngine engine(small_fleet_options());
    const auto x = engine.add_series("kpi-x");
    const auto y = engine.add_series("kpi-y");
    const auto z = engine.add_series("kpi-z");

    std::vector<std::uint64_t> observed;
    std::vector<std::uint8_t> chunk(16);
    std::vector<ts::RawPoint> raw;
    for (std::size_t t = 0; t < 64; ++t) {
      if (chaos_on_x) {
        // x ingests a dirty raw stream in 16-point batches (gaps /
        // duplicates / disorder via the salted ingest sites) and gets
        // quarantined halfway through.
        raw.push_back(
            ts::RawPoint{1700000000 + static_cast<std::int64_t>(t) * 600,
                         core::synthetic_fleet_value(1, t, 16)});
        if ((t + 1) % 16 == 0) {
          engine.ingest_raw(x, std::move(raw), 600,
                            ts::RepairPolicy::kFillInterpolate);
          raw.clear();
        }
        if (t == 32) engine.set_quarantined(x, true);
      }
      observed.push_back(
          bits(engine.feed(y, core::synthetic_fleet_value(2, t, 16)).score));
      observed.push_back(
          bits(engine.feed(z, core::synthetic_fleet_value(3, t, 16)).score));
      if ((t + 1) % 16 == 0) {
        const std::size_t begin = t + 1 - 16;
        for (std::size_t j = 0; j < 16; ++j) {
          chunk[j] = (begin + j) % 7 == 0 ? 1 : 0;
        }
        engine.ingest_labels(y, chunk, begin);
        engine.ingest_labels(z, chunk, begin);
      }
    }
    observed.push_back(engine.stats(y).retrains);
    observed.push_back(engine.stats(z).retrains);
    return std::make_pair(observed, engine.forest_fingerprint(y) + "|" +
                                        engine.forest_fingerprint(z));
  };

  // The quiet run: x idle, no fault plan.
  const auto quiet = run(false);

  // The chaos run: every ingest defect class fires on x's stream.
  util::FaultPlan plan;
  plan.seed = 1234;
  plan.rates["ingest.gap"] = 0.2;
  plan.rates["ingest.duplicate"] = 0.2;
  plan.rates["ingest.disorder"] = 0.2;
  plan.rates["ingest.nan"] = 0.2;
  PlanGuard guard(plan);
  const auto chaos = run(true);

  EXPECT_EQ(quiet.first, chaos.first)
      << "x's faults leaked into y/z score bytes";
  EXPECT_EQ(quiet.second, chaos.second)
      << "x's faults leaked into y/z forests";
  EXPECT_NE(quiet.second, "|") << "y/z must actually have trained";
}

TEST(FleetEngine, FeedTickMatchesSequentialFeed) {
  auto options = small_fleet_options();
  core::FleetEngine a(options);
  core::FleetEngine b(options);
  std::vector<core::SeriesHandle> series_a, series_b;
  for (int i = 0; i < 16; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    series_a.push_back(a.add_series(id));
    series_b.push_back(b.add_series(id));
  }
  std::vector<double> values(series_a.size());
  std::vector<core::FleetDetection> tick(series_a.size());
  for (std::size_t t = 0; t < 48; ++t) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = core::synthetic_fleet_value(i, t, 16);
    }
    a.feed_tick(series_a, values, tick);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto direct = b.feed(series_b[i], values[i]);
      EXPECT_EQ(bits(tick[i].score), bits(direct.score));
      EXPECT_EQ(tick[i].classified, direct.classified);
    }
  }
}

// TSan regression for the lock order util::Mutex checks at run time:
// feed() takes the registry shard lock and the per-series lock one at a
// time, never holding one series' lock while touching another. Two
// threads working the same pair of series in opposite id order therefore
// cannot deadlock, and TSan's lock-order-inversion detector (enabled in
// the tsan-parallel CI job) must stay silent.
TEST(FleetEngine, OppositeOrderFeedsAcquireLocksOneAtATime) {
  const auto options = small_fleet_options();
  core::FleetEngine engine(options);
  // Pick two ids that land in different registry shards so the threads
  // genuinely cross two shard mutexes, not just one.
  const std::string first = "kpi-order-0";
  std::string second;
  for (int i = 1; i < 256 && second.empty(); ++i) {
    std::string candidate = "kpi-order-" + std::to_string(i);
    if (core::registry_shard_index(candidate, options.shard_count,
                                   options.scheduler_seed) !=
        core::registry_shard_index(first, options.shard_count,
                                   options.scheduler_seed)) {
      second = std::move(candidate);
    }
  }
  ASSERT_FALSE(second.empty());
  const auto a = engine.add_series(first);
  const auto b = engine.add_series(second);
  std::thread forward([&engine, &a, &b] {
    for (std::size_t t = 0; t < 64; ++t) {
      engine.feed(a, core::synthetic_fleet_value(1, t, 16));
      engine.feed(b, core::synthetic_fleet_value(2, t, 16));
    }
  });
  std::thread reverse([&engine, &a, &b] {
    for (std::size_t t = 0; t < 64; ++t) {
      engine.feed(b, core::synthetic_fleet_value(3, t, 16));
      engine.feed(a, core::synthetic_fleet_value(4, t, 16));
    }
  });
  forward.join();
  reverse.join();
  EXPECT_EQ(engine.stats(a).points_seen, 128u);
  EXPECT_EQ(engine.stats(b).points_seen, 128u);
}

}  // namespace
