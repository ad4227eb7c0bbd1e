// Serial ≡ parallel equivalence suite (the determinism contract of
// DESIGN.md "Parallel execution"): for any thread count, feature
// extraction, random-forest training/scoring, and per-week cThld
// selection must produce bit-identical results. Thread counts 1 (exact
// serial fallback), 2, and 8 (oversubscribed on this host) are swept so
// scheduling differences get a real chance to surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "core/cthld.hpp"
#include "core/dataset_builder.hpp"
#include "core/fleet_engine.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "obs/flight_recorder.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

#include "synthetic_fleet.hpp"

namespace {

using namespace opprentice;

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

// Bit pattern of a double; "bit-identical" must hold even for NaN slots
// (weeks whose training window had no anomalies score as NaN).
std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Runs fn under each swept pool size and returns the collected results;
// the pool is restored to the hardware default afterwards.
template <typename Fn>
auto sweep(Fn&& fn) {
  std::vector<decltype(fn())> results;
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    results.push_back(fn());
  }
  util::set_global_threads(0);
  return results;
}

// Short PV / SRT preset series (fixed seeds, truncated to keep the full
// 133-configuration extraction affordable in a unit test).
ts::TimeSeries preset_series(const datagen::KpiPreset& preset_in,
                             std::size_t weeks) {
  datagen::KpiPreset preset = preset_in;
  preset.model.weeks = weeks;
  return datagen::generate_kpi(preset.model, preset.injection).series;
}

TEST(ParallelEquivalence, ExtractionColumnsBitIdentical) {
  for (const auto& preset :
       {datagen::pv_preset(datagen::Scale::kSmall),
        datagen::srt_preset(datagen::Scale::kSmall)}) {
    const ts::TimeSeries series = preset_series(preset, 3);
    const auto runs = sweep([&] {
      return detectors::extract_standard_features(series);
    });
    const detectors::FeatureMatrix& serial = runs[0];
    ASSERT_EQ(serial.num_features(), 133u);
    for (std::size_t r = 1; r < runs.size(); ++r) {
      ASSERT_EQ(runs[r].feature_names, serial.feature_names);
      ASSERT_EQ(runs[r].max_warmup, serial.max_warmup);
      for (std::size_t f = 0; f < serial.num_features(); ++f) {
        // operator== on the double vectors is an exact bit comparison
        // (no NaNs survive extraction: severities are sanitized).
        ASSERT_EQ(runs[r].columns[f], serial.columns[f])
            << preset.model.name << " threads=" << kThreadSweep[r]
            << " column " << serial.feature_names[f];
      }
    }
  }
}

// Installs a fault plan for one test and clears it on scope exit.
struct PlanGuard {
  explicit PlanGuard(const util::FaultPlan& plan) {
    util::set_fault_plan(plan);
  }
  ~PlanGuard() { util::clear_fault_plan(); }
};

TEST(ParallelEquivalence, FaultInjectedExtractionAndQuarantineBitIdentical) {
  // Detector faults fire from a pure (seed, site, config x point) hash,
  // so the scrubbed columns AND the quarantine decisions must match at
  // every thread count (DESIGN.md §5f extends the §5d contract).
  util::FaultPlan plan;
  plan.seed = 20260806;
  plan.rates["detector.throw"] = 0.04;
  plan.rates["detector.nan"] = 0.04;
  const PlanGuard guard(plan);

  const ts::TimeSeries series =
      preset_series(datagen::pv_preset(datagen::Scale::kSmall), 3);
  const auto runs = sweep([&] {
    return detectors::extract_standard_features(series);
  });
  const detectors::FeatureMatrix& serial = runs[0];
  ASSERT_EQ(serial.num_features(), 133u);
  // The plan's rates are high enough that some configuration hits three
  // consecutive failures, and low enough that extraction still serves.
  EXPECT_GT(serial.num_quarantined(), 0u);
  EXPECT_LT(serial.num_quarantined(), serial.num_features());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].quarantined, serial.quarantined)
        << "quarantine decisions drifted at threads=" << kThreadSweep[r];
    for (std::size_t f = 0; f < serial.num_features(); ++f) {
      ASSERT_EQ(runs[r].columns[f], serial.columns[f])
          << "threads=" << kThreadSweep[r] << " column "
          << serial.feature_names[f];
    }
  }
}

// Short synthetic series for the flight-recorder chaos scenario: small
// enough that the fault-fire events stay well under the recorder's
// capacity (overflow would make the retained subset depend on arrival
// order), busy enough that quarantines actually trip.
ts::TimeSeries chaos_series(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 100.0 + 10.0 * static_cast<double>(i % 24) +
                static_cast<double>(i % 7);
  }
  return ts::TimeSeries("chaos", 0, 600, std::move(values));
}

// One extraction pass under `threads` with a fresh flight recorder;
// returns the JSON dump (flight_recorder.hpp's deterministic sorted
// order).
std::string flight_dump_for(const ts::TimeSeries& series,
                            std::size_t threads) {
  util::set_global_threads(threads);
  obs::FlightRecorder::instance().clear();
  (void)detectors::extract_standard_features(series);
  std::string dump = obs::FlightRecorder::instance().dump_json();
  util::set_global_threads(0);
  return dump;
}

TEST(ParallelEquivalence, FlightRecorderZeroFaultDumpBitIdentical) {
  // Without a fault plan nothing notable happens, and the dump must say
  // exactly that — identically at every thread count and across reruns.
  const ts::TimeSeries series = chaos_series(400);
  const std::string serial = flight_dump_for(series, 1);
  EXPECT_NE(serial.find("\"events\": []"), std::string::npos);
  for (std::size_t threads : kThreadSweep) {
    EXPECT_EQ(flight_dump_for(series, threads), serial)
        << "threads=" << threads;
    EXPECT_EQ(flight_dump_for(series, threads), serial)
        << "rerun threads=" << threads;
  }
}

TEST(ParallelEquivalence, FlightRecorderSeededFaultDumpBitIdentical) {
  // Chaos scenario: detector faults fire from the pure (seed, site, key)
  // hash and every fire (plus every quarantine transition) records a
  // flight event. The sorted dump must be byte-identical at any thread
  // count and across reruns (the §5h extension of the §5d contract).
  util::FaultPlan plan;
  plan.seed = 20260808;
  plan.rates["detector.throw"] = 0.06;
  plan.rates["detector.nan"] = 0.06;
  const PlanGuard guard(plan);

  const ts::TimeSeries series = chaos_series(200);
  const std::string serial = flight_dump_for(series, 1);
  // The scenario must exercise the recorder without overflowing it: an
  // overflowed ring retains an arrival-ordered subset, which is exactly
  // what this test must not depend on.
  EXPECT_EQ(obs::FlightRecorder::instance().dropped_count(), 0u);
  EXPECT_NE(serial.find("\"fault\""), std::string::npos);
  EXPECT_NE(serial.find("\"quarantine\""), std::string::npos);
  for (std::size_t threads : kThreadSweep) {
    EXPECT_EQ(flight_dump_for(series, threads), serial)
        << "threads=" << threads;
    EXPECT_EQ(flight_dump_for(series, threads), serial)
        << "rerun threads=" << threads;
  }
}

class ForestEquivalenceTest : public ::testing::Test {
 protected:
  // One small experiment shared by the forest and cThld cases: the SRT
  // preset truncated to 6 weeks (hourly bins keep 133-feature extraction
  // cheap).
  static void SetUpTestSuite() {
    util::set_global_threads(1);  // build the fixture serially
    datagen::KpiPreset preset = datagen::srt_preset(datagen::Scale::kSmall);
    preset.model.weeks = 6;
    data_ = new core::ExperimentData(core::prepare_experiment(
        datagen::generate_kpi(preset.model, preset.injection)));
    util::set_global_threads(0);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static const core::ExperimentData* data_;
};

const core::ExperimentData* ForestEquivalenceTest::data_ = nullptr;

TEST_F(ForestEquivalenceTest, TrainedForestAndPredictionsBitIdentical) {
  const ml::Dataset train = data_->dataset.slice(
      data_->warmup, data_->dataset.num_rows());
  ASSERT_GT(train.positives(), 0u);
  ml::ForestOptions opts;
  opts.num_trees = 24;
  opts.seed = 42;

  struct ForestRun {
    std::string serialized;
    std::vector<double> scores;
  };
  const auto runs = sweep([&] {
    ml::RandomForest forest(opts);
    forest.train(train);
    std::ostringstream out;
    ml::save_forest(out, forest, train.feature_names());
    return ForestRun{out.str(), forest.score_all(train)};
  });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    // The serialized form pins every node of every tree; equality means
    // the grown forests are structurally identical, not merely close.
    ASSERT_EQ(runs[r].serialized, runs[0].serialized)
        << "threads=" << kThreadSweep[r];
    ASSERT_EQ(runs[r].scores, runs[0].scores)
        << "threads=" << kThreadSweep[r];
  }
}

TEST_F(ForestEquivalenceTest, FiveFoldCthldPickBitIdentical) {
  const ml::Dataset train = data_->dataset.slice(
      data_->warmup, data_->dataset.num_rows());
  ml::ForestOptions opts;
  opts.num_trees = 12;
  opts.seed = 7;
  const auto picks = sweep([&] {
    return core::five_fold_cthld(train, {0.66, 0.66}, opts);
  });
  for (std::size_t r = 1; r < picks.size(); ++r) {
    ASSERT_EQ(picks[r], picks[0]) << "threads=" << kThreadSweep[r];
  }
}

TEST_F(ForestEquivalenceTest, WeeklyDriverRunBitIdentical) {
  core::DriverOptions opt;
  opt.initial_weeks = 3;
  opt.forest.num_trees = 12;
  opt.forest.seed = 42;
  opt.preference = {0.66, 0.66};

  const auto runs = sweep([&] {
    return core::run_weekly_incremental(data_->dataset,
                                        data_->points_per_week,
                                        data_->warmup, opt);
  });
  const core::IncrementalRunResult& serial = runs[0];
  ASSERT_FALSE(serial.weeks.empty());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].test_start, serial.test_start);
    ASSERT_EQ(runs[r].weeks.size(), serial.weeks.size());
    for (std::size_t w = 0; w < serial.weeks.size(); ++w) {
      // Per-week cThld picks: the §4.5 output that must not drift.
      ASSERT_EQ(runs[r].weeks[w].best.cthld, serial.weeks[w].best.cthld)
          << "threads=" << kThreadSweep[r] << " week " << w;
      ASSERT_EQ(runs[r].weeks[w].best.recall, serial.weeks[w].best.recall);
      ASSERT_EQ(runs[r].weeks[w].best.precision,
                serial.weeks[w].best.precision);
    }
    ASSERT_EQ(runs[r].scores.size(), serial.scores.size());
    for (std::size_t i = 0; i < serial.scores.size(); ++i) {
      ASSERT_EQ(bits(runs[r].scores[i]), bits(serial.scores[i]))
          << "threads=" << kThreadSweep[r] << " row " << i;
    }
  }
}

TEST_F(ForestEquivalenceTest, FiveFoldWeeklyCthldsBitIdentical) {
  core::DriverOptions opt;
  opt.initial_weeks = 3;
  opt.forest.num_trees = 12;
  opt.forest.seed = 42;
  opt.preference = {0.66, 0.66};
  const auto runs = sweep([&] {
    return core::five_fold_weekly_cthlds(data_->dataset,
                                         data_->points_per_week,
                                         data_->warmup, opt);
  });
  ASSERT_FALSE(runs[0].empty());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r], runs[0]) << "threads=" << kThreadSweep[r];
  }
}

// ---- fleet determinism sweep (DESIGN.md §5i) -----------------------------

// Everything a fleet run can output, flattened to comparable bytes: every
// verdict's score and cThld bits and anomaly bit tick by tick, every
// trained forest's serialized text in id order, and the flight-recorder
// dump.
struct FleetRunOutput {
  std::vector<std::uint64_t> score_bits;
  std::vector<std::uint64_t> cthld_bits;
  std::vector<bool> anomalies;
  std::string forests;
  std::string flight;
  std::uint64_t dropped = 0;

  void record(std::span<const core::FleetDetection> verdicts) {
    for (const auto& v : verdicts) {
      score_bits.push_back(bits(v.score));
      cthld_bits.push_back(bits(v.cthld));
      anomalies.push_back(v.is_anomaly);
    }
  }
  // Whether some verdict ran at a cThld a retrain's week picked.
  bool cthld_moved() const {
    return std::any_of(cthld_bits.begin(), cthld_bits.end(),
                       [](std::uint64_t b) {
                         return b != bits(0.5) &&
                                b != bits(std::numeric_limits<double>::quiet_NaN());
                       });
  }

  bool operator==(const FleetRunOutput&) const = default;
};

// Drives a 200-series fleet for 64 synchronized ticks under `threads`
// with a fresh flight recorder: small 16-point "days" so the short-window
// set warms up, labels (every 7th point anomalous) trail in 16-point
// chunks, and the 16-point retrain interval gives every series a
// staggered mid-run retrain.
FleetRunOutput fleet_run(std::size_t threads) {
  util::set_global_threads(threads);
  obs::FlightRecorder::instance().clear();

  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  options.detector_factory = test_support::short_window_configurations;
  options.retrain_interval = 16;
  options.forest.num_trees = 8;
  options.forest.seed = 7;
  options.scheduler_seed = 2026;
  core::FleetEngine engine(std::move(options));

  constexpr std::size_t kSeries = 200;
  constexpr std::size_t kPoints = 64;
  std::vector<core::SeriesHandle> handles;
  std::vector<std::uint64_t> salts;
  for (std::size_t i = 0; i < kSeries; ++i) {
    const std::string id = "fleet-" + std::to_string(i);
    handles.push_back(engine.add_series(id));
    salts.push_back(util::stable_id_hash(id));
  }

  FleetRunOutput out;
  std::vector<double> values(kSeries);
  std::vector<core::FleetDetection> verdicts(kSeries);
  std::vector<std::uint8_t> chunk(16);
  for (std::size_t t = 0; t < kPoints; ++t) {
    for (std::size_t i = 0; i < kSeries; ++i) {
      values[i] = test_support::synthetic_fleet_value(salts[i], t, 16);
    }
    engine.feed_tick(handles, values, verdicts);
    out.record(verdicts);
    if ((t + 1) % 16 == 0) {
      const std::size_t begin = t + 1 - 16;
      for (std::size_t j = 0; j < 16; ++j) {
        chunk[j] = (begin + j) % 7 == 0 ? 1 : 0;
      }
      for (const auto& handle : handles) {
        engine.ingest_labels(handle, chunk, begin);
      }
    }
  }
  for (const auto& handle : handles) {
    out.forests += engine.forest_fingerprint(handle);
    out.forests += '\n';
  }
  out.flight = obs::FlightRecorder::instance().dump_json();
  out.dropped = obs::FlightRecorder::instance().dropped_count();
  util::set_global_threads(0);
  return out;
}

TEST(ParallelEquivalence, FleetSweepZeroFaultBitIdentical) {
  const FleetRunOutput serial = fleet_run(1);
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_NE(serial.forests.find("forest"), std::string::npos)
      << "fleet must actually train";
  // Successful retrains flight-record; the dump must carry them.
  EXPECT_NE(serial.flight.find("\"retrain\""), std::string::npos);
  EXPECT_TRUE(serial.cthld_moved());
  for (std::size_t threads : kThreadSweep) {
    const FleetRunOutput run = fleet_run(threads);
    EXPECT_EQ(run.dropped, 0u) << "threads=" << threads;
    EXPECT_TRUE(run == serial) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, FleetSweepSeededChaosBitIdentical) {
  // Seeded chaos across the fleet: detector throw/NaN faults fire inside
  // individual series' extractors and some staggered retrains fail. All
  // fault keys are salted per series, so the full output — scores,
  // forests, flight dump — must stay a pure function of the plan,
  // byte-identical at any thread count. Rates are sized to keep the
  // event volume well under the recorder's capacity (overflow would make
  // the retained subset arrival-ordered).
  util::FaultPlan plan;
  plan.seed = 20260808;
  plan.rates["detector.throw"] = 0.002;
  plan.rates["detector.nan"] = 0.002;
  plan.rates["forest.train"] = 0.05;
  const PlanGuard guard(plan);

  const FleetRunOutput serial = fleet_run(1);
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_NE(serial.flight.find("\"fault\""), std::string::npos)
      << "the chaos plan must actually fire";
  EXPECT_NE(serial.flight.find("\"train_failed\""), std::string::npos);
  for (std::size_t threads : kThreadSweep) {
    const FleetRunOutput run = fleet_run(threads);
    EXPECT_EQ(run.dropped, 0u) << "threads=" << threads;
    EXPECT_TRUE(run == serial) << "threads=" << threads;
  }
}

// ---- staged retrains: feed_tick ≡ a serial feed loop ----------------------

// A fleet whose first eight series share one retrain phase, so their
// retrains come due on the same tick and the stages of several retrains
// run in one tick's dispatch; eight more series have other phases.
// Drives 128 ticks under `threads`, through feed_tick or through a serial
// feed() loop in index order, with a fresh flight recorder. With
// `toggle_quarantine`, every third series is quarantined two points after
// each of its due points, while its forest is pending, and released three
// ticks later; `toggles` counts those quarantines.
FleetRunOutput shared_phase_run(std::size_t threads, bool use_tick,
                                bool toggle_quarantine = false,
                                std::size_t* toggles = nullptr) {
  util::set_global_threads(threads);
  obs::FlightRecorder::instance().clear();

  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  options.detector_factory = test_support::short_window_configurations;
  options.retrain_interval = 16;
  options.quarantine_after = 2;
  options.forest.num_trees = 8;
  options.forest.seed = 7;
  options.scheduler_seed = 2026;
  core::FleetEngine engine(std::move(options));

  constexpr std::size_t kShared = 8;
  constexpr std::size_t kOthers = 8;
  std::vector<core::SeriesHandle> handles;
  std::vector<std::uint64_t> salts;
  const std::size_t shared_phase = engine.scheduler().phase("due-0");
  std::size_t shared = 0, others = 0;
  for (std::size_t c = 0; shared < kShared || others < kOthers; ++c) {
    const std::string id = "due-" + std::to_string(c);
    const bool same = engine.scheduler().phase(id) == shared_phase;
    if (same ? shared == kShared : others == kOthers) continue;
    ++(same ? shared : others);
    handles.push_back(engine.add_series(id));
    salts.push_back(util::stable_id_hash(id));
  }

  FleetRunOutput out;
  const std::size_t n = handles.size();
  std::vector<double> values(n);
  std::vector<core::FleetDetection> verdicts(n);
  std::vector<std::uint8_t> chunk(16);
  std::vector<std::size_t> release_at(n, 0);  // tick of the release
  for (std::size_t t = 0; t < 128; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = test_support::synthetic_fleet_value(salts[i], t, 16);
    }
    if (use_tick) {
      engine.feed_tick(handles, values, verdicts);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        verdicts[i] = engine.feed(handles[i], values[i]);
      }
    }
    out.record(verdicts);
    for (std::size_t i = 1; toggle_quarantine && i < n; i += 3) {
      const core::FleetSeriesStats stats = engine.stats(handles[i]);
      if (stats.quarantined && release_at[i] == t) {
        engine.set_quarantined(handles[i], false);
      } else if (!stats.quarantined && stats.points_seen >= 2 &&
                 engine.scheduler().due_at(stats.phase,
                                           stats.points_seen - 2)) {
        engine.set_quarantined(handles[i], true);
        release_at[i] = t + 3;
        if (toggles != nullptr) ++*toggles;
      }
    }
    if ((t + 1) % 16 == 0) {
      const std::size_t begin = t + 1 - 16;
      for (std::size_t j = 0; j < 16; ++j) {
        chunk[j] = (begin + j) % 7 == 0 ? 1 : 0;
      }
      for (const auto& handle : handles) {
        engine.ingest_labels(handle, chunk, begin);
      }
    }
  }
  for (const auto& handle : handles) {
    out.forests += engine.forest_fingerprint(handle);
    out.forests += '\n';
  }
  out.flight = obs::FlightRecorder::instance().dump_json();
  out.dropped = obs::FlightRecorder::instance().dropped_count();
  util::set_global_threads(0);
  return out;
}

TEST(ParallelEquivalence, FeedTickDeferredRetrainsEqualSerialFeedLoop) {
  // Half of all retrains fail, so some series fail twice in a row and
  // are quarantined mid-run while their phase-mates train.
  util::FaultPlan plan;
  plan.seed = 20261017;
  plan.rates["forest.train"] = 0.5;
  const PlanGuard guard(plan);

  const FleetRunOutput serial = shared_phase_run(1, /*use_tick=*/false);
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_NE(serial.flight.find("\"retrain\""), std::string::npos);
  EXPECT_NE(serial.flight.find("\"train_failed\""), std::string::npos);
  EXPECT_NE(serial.flight.find("\"quarantine\""), std::string::npos)
      << "a series must reach quarantine";
  EXPECT_TRUE(serial.cthld_moved());
  for (std::size_t threads : kThreadSweep) {
    const FleetRunOutput run = shared_phase_run(threads, /*use_tick=*/true);
    EXPECT_EQ(run.dropped, 0u) << "threads=" << threads;
    EXPECT_EQ(run.score_bits, serial.score_bits) << "threads=" << threads;
    EXPECT_EQ(run.cthld_bits, serial.cthld_bits) << "threads=" << threads;
    EXPECT_EQ(run.anomalies, serial.anomalies) << "threads=" << threads;
    EXPECT_EQ(run.forests, serial.forests) << "threads=" << threads;
    EXPECT_EQ(run.flight, serial.flight) << "threads=" << threads;
  }
}

// Stages run in feed_tick's dispatch whether or not their series consumes
// the point, so a series quarantined while its forest is pending has its
// stages done early under feed_tick and late under feed(); the install
// still waits for the series' own point T + kForestInstallDelay in both.
TEST(ParallelEquivalence, FeedTickStagedRetrainsUnderQuarantineEqualSerialFeedLoop) {
  util::FaultPlan plan;
  plan.seed = 20261018;
  plan.rates["forest.train"] = 0.3;
  const PlanGuard guard(plan);

  std::size_t toggles = 0;
  const FleetRunOutput serial =
      shared_phase_run(1, /*use_tick=*/false, /*toggle_quarantine=*/true,
                       &toggles);
  EXPECT_GT(toggles, 4u);
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_NE(serial.flight.find("\"retrain\""), std::string::npos);
  EXPECT_NE(serial.flight.find("\"train_failed\""), std::string::npos);
  for (std::size_t threads : kThreadSweep) {
    const FleetRunOutput run =
        shared_phase_run(threads, /*use_tick=*/true, /*toggle_quarantine=*/true);
    EXPECT_EQ(run.dropped, 0u) << "threads=" << threads;
    EXPECT_EQ(run.score_bits, serial.score_bits) << "threads=" << threads;
    EXPECT_EQ(run.cthld_bits, serial.cthld_bits) << "threads=" << threads;
    EXPECT_EQ(run.anomalies, serial.anomalies) << "threads=" << threads;
    EXPECT_EQ(run.forests, serial.forests) << "threads=" << threads;
    EXPECT_EQ(run.flight, serial.flight) << "threads=" << threads;
  }
}

}  // namespace
