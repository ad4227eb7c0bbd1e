// Unit tests for src/core: training-set strategies, cThld prediction,
// and weekly drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/cthld.hpp"
#include "core/dataset_builder.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/anomaly_injector.hpp"
#include "ml/kfold.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::core;

// Small ML-ready dataset shaped like weekly KPI features: one informative
// severity column, one noise column, at a given points-per-week.
ml::Dataset weekly_data(std::size_t weeks, std::size_t ppw,
                        std::uint64_t seed = 1) {
  util::Rng rng(seed);
  const std::size_t n = weeks * ppw;
  std::vector<std::vector<double>> cols(2);
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < 0.08;
    labels[i] = anomaly;
    cols[0].push_back(anomaly ? rng.uniform(5.0, 9.0)
                              : rng.uniform(0.0, 2.0));
    cols[1].push_back(rng.uniform(0.0, 4.0));
  }
  return ml::Dataset({"sev", "noise"}, std::move(cols), std::move(labels));
}

ml::ForestOptions tiny_forest() {
  ml::ForestOptions f;
  f.num_trees = 12;
  return f;
}

// ---- strategy windows (Table 2) ----

TEST(StrategyWindows, I1MovesOneWeek) {
  const auto w0 = strategy_windows(TrainingStrategy::kI1, 0, 2000, 100, 8);
  ASSERT_TRUE(w0.has_value());
  EXPECT_EQ(w0->train_begin, 0u);
  EXPECT_EQ(w0->train_end, 800u);
  EXPECT_EQ(w0->test_begin, 800u);
  EXPECT_EQ(w0->test_end, 900u);

  const auto w3 = strategy_windows(TrainingStrategy::kI1, 3, 2000, 100, 8);
  ASSERT_TRUE(w3.has_value());
  EXPECT_EQ(w3->train_end, 1100u);  // all historical data
  EXPECT_EQ(w3->test_begin, 1100u);
  EXPECT_EQ(w3->test_end, 1200u);
}

TEST(StrategyWindows, I4UsesAllHistory) {
  const auto w = strategy_windows(TrainingStrategy::kI4, 2, 2000, 100, 8);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->train_begin, 0u);
  EXPECT_EQ(w->train_end, 1000u);
  EXPECT_EQ(w->test_end, w->test_begin + 400u);
}

TEST(StrategyWindows, R4UsesRecentEightWeeks) {
  const auto w = strategy_windows(TrainingStrategy::kR4, 3, 3000, 100, 8);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->train_end, 1100u);
  EXPECT_EQ(w->train_begin, 1100u - 800u);
}

TEST(StrategyWindows, F4UsesFirstEightWeeks) {
  const auto w = strategy_windows(TrainingStrategy::kF4, 5, 3000, 100, 8);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->train_begin, 0u);
  EXPECT_EQ(w->train_end, 800u);
}

TEST(StrategyWindows, ReturnsNulloptPastEnd) {
  EXPECT_FALSE(
      strategy_windows(TrainingStrategy::kI1, 100, 2000, 100, 8).has_value());
  // I4 needs 4 test weeks: window 8 would need rows up to 2100 > 2000.
  EXPECT_FALSE(
      strategy_windows(TrainingStrategy::kI4, 9, 2000, 100, 8).has_value());
}

TEST(StrategyWindows, Names) {
  EXPECT_STREQ(to_string(TrainingStrategy::kI1), "I1");
  EXPECT_STREQ(to_string(TrainingStrategy::kF4), "F4");
}

// ---- EWMA cThld predictor ----

TEST(EwmaPredictor, BlendsBestCthlds) {
  EwmaCthldPredictor p(0.8);
  p.observe_best(0.5);  // the first observation seeds the prediction
  EXPECT_DOUBLE_EQ(p.predict(), 0.5);
  p.observe_best(1.0);
  EXPECT_NEAR(p.predict(), 0.8 * 1.0 + 0.2 * 0.5, 1e-12);
  p.observe_best(0.0);
  EXPECT_NEAR(p.predict(), 0.2 * 0.9, 1e-12);
}

TEST(EwmaPredictor, FirstObservationWithoutInitSeeds) {
  EwmaCthldPredictor p(0.8);
  p.observe_best(0.7);
  EXPECT_DOUBLE_EQ(p.predict(), 0.7);
}

TEST(EwmaPredictor, HighAlphaTracksFaster) {
  EwmaCthldPredictor fast(0.9), slow(0.1);
  fast.observe_best(0.0);
  slow.observe_best(0.0);
  fast.observe_best(1.0);
  slow.observe_best(1.0);
  EXPECT_GT(fast.predict(), slow.predict());
}

// ---- 5-fold cThld ----

TEST(FiveFold, ReturnsThresholdInRange) {
  const auto data = weekly_data(6, 100);
  const double cthld = five_fold_cthld(data, {0.66, 0.66}, tiny_forest());
  EXPECT_GE(cthld, 0.0);
  EXPECT_LE(cthld, 1.0);
}

TEST(FiveFold, DegenerateDataGivesDefault) {
  // No positives at all -> 0.5.
  ml::Dataset empty_labels({"f"}, {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
                           std::vector<std::uint8_t>(10, 0));
  EXPECT_DOUBLE_EQ(
      five_fold_cthld(empty_labels, {0.66, 0.66}, tiny_forest()), 0.5);
}

TEST(FiveFold, SeparableDataSatisfiesPreference) {
  const auto data = weekly_data(8, 100);
  const double cthld = five_fold_cthld(data, {0.66, 0.66}, tiny_forest());
  // Apply the chosen cthld to a fresh forest on fresh data: accuracy
  // should land near the preference on this separable problem.
  ml::RandomForest forest(tiny_forest());
  forest.train(data);
  const auto test = weekly_data(2, 100, 99);
  const auto scores = forest.score_all(test);
  const auto counts =
      eval::confusion(eval::decide(scores, cthld), test.labels());
  EXPECT_GT(eval::recall(counts), 0.6);
  EXPECT_GT(eval::precision(counts), 0.6);
}

// Plain five-fold pick: each fold trains on a select_rows copy, scores a
// slice of its held-out block and counts every candidate's detections
// directly.
double reference_five_fold_cthld(const ml::Dataset& training,
                                 const eval::AccuracyPreference& pref,
                                 const ml::ForestOptions& forest_options,
                                 const FiveFoldOptions& options) {
  const std::size_t n = training.num_rows();
  struct Fold {
    std::vector<double> scores;
    std::vector<std::uint8_t> labels;
    std::size_t positives = 0;
  };
  std::vector<Fold> folds;
  for (const auto& split : ml::contiguous_folds(n, options.folds)) {
    const ml::Dataset train_part =
        training.select_rows(ml::training_rows(split, n));
    if (train_part.positives() == 0) continue;
    ml::RandomForest forest(forest_options);
    forest.train(train_part);
    const ml::Dataset test_part =
        training.slice(split.test_begin, split.test_end);
    Fold fold{forest.score_all(test_part), test_part.labels(),
              test_part.positives()};
    if (fold.positives > 0) folds.push_back(std::move(fold));
  }
  double best_cthld = 0.5;
  double best_score = -1.0;
  for (std::size_t c = 0; c <= options.candidates; ++c) {
    const double cthld =
        static_cast<double>(c) / static_cast<double>(options.candidates);
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& fold : folds) {
      std::size_t detected = 0, tp = 0;
      for (std::size_t i = 0; i < fold.scores.size(); ++i) {
        if (fold.scores[i] < cthld) continue;
        ++detected;
        tp += fold.labels[i] != 0 ? 1 : 0;
      }
      if (detected == 0) continue;
      total += eval::pc_score(
          static_cast<double>(tp) / static_cast<double>(fold.positives),
          static_cast<double>(tp) / static_cast<double>(detected), pref);
      ++counted;
    }
    if (counted == 0) continue;
    const double avg = total / static_cast<double>(counted);
    if (avg > best_score) {
      best_score = avg;
      best_cthld = cthld;
    }
  }
  return best_cthld;
}

TEST(FiveFold, PickEqualsPlainReference) {
  // Overlapping severities, so held-out scores spread over many candidates.
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    util::Rng rng(seed);
    const std::size_t n = 700;
    std::vector<std::vector<double>> cols(2);
    std::vector<std::uint8_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool anomaly = rng.uniform() < 0.1;
      labels[i] = anomaly;
      cols[0].push_back(anomaly ? rng.uniform(1.5, 5.0)
                                : rng.uniform(0.0, 3.0));
      cols[1].push_back(rng.uniform(0.0, 4.0));
    }
    const ml::Dataset data({"sev", "noise"}, std::move(cols),
                           std::move(labels));
    ml::ForestOptions forest = tiny_forest();
    forest.seed = seed;
    for (const eval::AccuracyPreference pref :
         {eval::AccuracyPreference{0.66, 0.66},
          eval::AccuracyPreference{0.9, 0.3}}) {
      EXPECT_EQ(five_fold_cthld(data, pref, forest),
                reference_five_fold_cthld(data, pref, forest, {}))
          << "seed " << seed << ", min recall " << pref.min_recall;
    }
  }
}

// ---- weekly incremental driver ----

TEST(WeeklyDriver, ScoresCoverTestRegionOnly) {
  const auto data = weekly_data(11, 100);
  DriverOptions opt;
  opt.forest = tiny_forest();
  const auto run = run_weekly_incremental(data, 100, 0, opt);
  EXPECT_EQ(run.test_start, 800u);
  EXPECT_EQ(run.weeks.size(), 3u);
  for (std::size_t i = 0; i < run.test_start; ++i) {
    EXPECT_TRUE(std::isnan(run.scores[i]));
  }
  for (std::size_t i = run.test_start; i < data.num_rows(); ++i) {
    EXPECT_FALSE(std::isnan(run.scores[i])) << i;
  }
}

TEST(WeeklyDriver, BestCthldsSatisfyPreferenceOnSeparableData) {
  const auto data = weekly_data(11, 100);
  DriverOptions opt;
  opt.forest = tiny_forest();
  opt.preference = {0.66, 0.66};
  const auto run = run_weekly_incremental(data, 100, 0, opt);
  for (const auto& week : run.weeks) {
    EXPECT_GE(week.best.recall, 0.66);
    EXPECT_GE(week.best.precision, 0.66);
  }
}

TEST(WeeklyDriver, DecisionsRespectWeeklyCthlds) {
  const auto data = weekly_data(10, 100);
  DriverOptions opt;
  opt.forest = tiny_forest();
  const auto run = run_weekly_incremental(data, 100, 0, opt);
  // cThld 0 flags everything in the test region; cThld 1.01 nothing.
  const auto all = decisions_from_weekly_cthlds(
      run, std::vector<double>(run.weeks.size(), 0.0));
  const auto none = decisions_from_weekly_cthlds(
      run, std::vector<double>(run.weeks.size(), 1.01));
  for (std::size_t i = run.test_start; i < data.num_rows(); ++i) {
    EXPECT_EQ(all[i], 1);
    EXPECT_EQ(none[i], 0);
  }
  for (std::size_t i = 0; i < run.test_start; ++i) {
    EXPECT_EQ(all[i], 0);  // nothing flagged before the test region
  }
}

TEST(WeeklyDriver, WarmupRowsExcludedFromTraining) {
  // With warmup = everything before the test region, training would be
  // empty -> scores stay NaN.
  const auto data = weekly_data(9, 100);
  DriverOptions opt;
  opt.forest = tiny_forest();
  const auto run = run_weekly_incremental(data, 100, 800, opt);
  for (std::size_t i = run.test_start; i < data.num_rows(); ++i) {
    EXPECT_TRUE(std::isnan(run.scores[i]));
  }
}

TEST(WeeklyDriver, WindowWithoutPositivesStaysNaN) {
  // Positives only in the warm-up rows [0, 200) and from the first test
  // week (row 800) on. The first window trains on rows [200, 800), which
  // hold no positive: its week stays NaN and no forest trains for it. The
  // second trains on [200, 900), which holds week 8's positives.
  const auto base = weekly_data(10, 100);
  std::vector<std::uint8_t> labels = base.labels();
  std::fill(labels.begin() + 200, labels.begin() + 800, 0);
  ASSERT_GT(std::count(labels.begin(), labels.begin() + 200, 1), 0);
  ASSERT_GT(std::count(labels.begin() + 800, labels.begin() + 900, 1), 0);
  const ml::Dataset data(base.feature_names(), base.columns(), labels);
  DriverOptions opt;
  opt.forest = tiny_forest();
  obs::Counter& trains = obs::counter("opprentice.forest.trains");
  const std::uint64_t trains_before = trains.value();
  const auto run = run_weekly_incremental(data, 100, 200, opt);
  EXPECT_EQ(trains.value() - trains_before, 1u);
  ASSERT_EQ(run.weeks.size(), 2u);
  for (std::size_t i = 800; i < 900; ++i) {
    EXPECT_TRUE(std::isnan(run.scores[i])) << "row " << i;
  }
  for (std::size_t i = 900; i < 1000; ++i) {
    EXPECT_FALSE(std::isnan(run.scores[i])) << "row " << i;
  }
}

TEST(WeeklyDriver, FiveFoldWeeklyCthldsInRange) {
  const auto data = weekly_data(10, 100);
  DriverOptions opt;
  opt.forest = tiny_forest();
  const auto cthlds = five_fold_weekly_cthlds(data, 100, 0, opt);
  EXPECT_EQ(cthlds.size(), 2u);
  for (double c : cthlds) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(WindowedMetricsTest, CountsPerWindow) {
  // 10 points, window 5, step 5: two windows.
  const std::vector<std::uint8_t> decisions{1, 0, 0, 0, 0, 1, 1, 0, 0, 0};
  const std::vector<std::uint8_t> truth{1, 1, 0, 0, 0, 1, 0, 0, 0, 0};
  const auto windows = windowed_metrics(decisions, truth, 0, 5, 5);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(windows[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(windows[1].recall, 1.0);
  EXPECT_DOUBLE_EQ(windows[1].precision, 0.5);
}

TEST(WindowedMetricsTest, StepSmallerThanWindowOverlaps) {
  const std::vector<std::uint8_t> decisions(20, 1);
  const std::vector<std::uint8_t> truth(20, 1);
  const auto windows = windowed_metrics(decisions, truth, 0, 10, 5);
  EXPECT_EQ(windows.size(), 3u);  // starts at 0, 5, 10
}

// ---- prepare_experiment / dataset builder ----

TEST(DatasetBuilder, ExperimentShape) {
  datagen::KpiModel model;
  model.interval_seconds = 3600;  // hourly for speed
  model.weeks = 3;
  model.daily_amplitude = 0.3;
  model.base_level = 100.0;
  datagen::InjectionSpec spec;
  spec.anomaly_fraction = 0.06;
  const auto kpi = datagen::generate_kpi(model, spec);
  const auto experiment = prepare_experiment(kpi);

  EXPECT_EQ(experiment.dataset.num_rows(), kpi.series.size());
  EXPECT_EQ(experiment.dataset.num_features(), 133u);
  EXPECT_EQ(experiment.points_per_week, 168u);
  EXPECT_GT(experiment.warmup, 0u);
  EXPECT_LT(experiment.warmup, kpi.series.size());
  // Operator labels differ slightly from ground truth (boundary noise),
  // but have a similar number of windows.
  EXPECT_NEAR(
      static_cast<double>(experiment.operator_labels.window_count()),
      static_cast<double>(kpi.ground_truth.window_count()),
      0.15 * static_cast<double>(kpi.ground_truth.window_count()) + 2.0);
}

}  // namespace
