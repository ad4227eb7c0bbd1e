// Fleet engine suite (DESIGN.md §5i): concurrent add_series calls build
// each series once and the series map stays sorted, the staggered
// retrain scheduler reproduces a golden schedule from a fixed
// seed, series are isolated — a quarantined or fault-injected series
// must not perturb any other series' output bytes — and the exactly-sized
// feature history decides everything the growing columns it replaced
// did (reference_fleet.hpp), and the offline I1 driver trains the
// engine's forests (weekly_driver.hpp).
//
// ctest label: fleet (CI runs these under TSan alongside `parallel`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cthld.hpp"
#include "core/dataset_builder.hpp"
#include "core/feature_history.hpp"
#include "core/fleet_engine.hpp"
#include "core/retrain_scheduler.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/anomaly_injector.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/feature_extractor.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "ml/serialize.hpp"
#include "obs/metrics.hpp"
#include "timeseries/repair.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

#include "reference_fleet.hpp"
#include "synthetic_fleet.hpp"

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
  std::vector<std::size_t> load(64, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::string id = "kpi-" + std::to_string(i);
    const std::size_t phase = scheduler.phase(id);
    ++load[phase];
    checksum ^= phase;
    checksum *= 1099511628211ULL;
  }
  EXPECT_EQ(checksum, 6472609295425330507ULL);
  // The stagger must actually spread load: with 1000 series over 64
  // phases (~15.6 expected per phase), no phase may carry more than 3x
  // its share.
  for (std::size_t phase = 0; phase < 64; ++phase) {
    EXPECT_LE(load[phase], 47u) << "phase " << phase;
  }
}

// ---- fleet engine --------------------------------------------------------

// Small context so the short-window set (8 configurations) warms up in 16
// points and a full train-classify cycle fits in 64.
core::FleetOptions small_fleet_options() {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  options.detector_factory = test_support::short_window_configurations;
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
        engine.feed(s, test_support::synthetic_fleet_value(salt, t, 16)));
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

// §4.5.2 feeds the EWMA the best cThld of a week the forest had not
// trained on. A retrain therefore scores its newest labeled window with
// the live forest, the one that produced those verdicts, not the forest it
// just trained on those rows; only the first retrain, which has no live
// forest, picks in sample.
TEST(FleetEngine, WeeklyBestCthldIsScoredByTheLiveForest) {
  const core::FleetOptions options = small_fleet_options();
  core::FleetEngine engine(options);
  const auto s = engine.add_series("kpi-cthld");
  // The engine's features, recomputed point by point.
  detectors::StreamingExtractor extractor(
      options.detector_factory(options.ctx));
  const std::size_t interval = engine.scheduler().interval();
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> labels;
  std::vector<std::uint8_t> chunk(16);
  const auto load = [](const std::string& fingerprint) {
    std::istringstream in(fingerprint);
    return ml::load_forest(in).forest;
  };
  // The best cThld of rows [end - interval, end) under `forest`.
  const auto best_cthld = [&](const ml::RandomForest& forest,
                              std::size_t end) {
    std::vector<double> scores;
    std::vector<std::uint8_t> window_labels;
    for (std::size_t i = end - interval; i < end; ++i) {
      scores.push_back(forest.score(rows[i]));
      window_labels.push_back(labels[i]);
    }
    return eval::pick_threshold(eval::PrCurve(scores, window_labels),
                                eval::ThresholdMethod::kPcScore,
                                options.preference)
        .cthld;
  };

  std::size_t labeled_until = 0;
  std::size_t retrains = 0;
  std::string live;        // the forest installed by the last retrain
  double prediction = -1;  // the EWMA after it
  std::size_t checked = 0;
  // The labeled rows when the retrain being installed came due: it copied
  // its window then, kForestInstallDelay points before it installs.
  std::size_t before = 0;
  for (std::size_t t = 0; t < 128; ++t) {
    const double value = test_support::synthetic_fleet_value(5, t, 16);
    rows.push_back(extractor.feed(value));
    labels.push_back(t % 7 == 0 ? 1 : 0);
    if (engine.scheduler().due("kpi-cthld", t + 1)) before = labeled_until;
    const core::FleetDetection got = engine.feed(s, value);
    if (!live.empty()) {
      ASSERT_TRUE(got.classified) << "point " << t;
      ASSERT_EQ(bits(got.cthld), bits(prediction)) << "point " << t;
    }
    if ((t + 1) % 16 == 0) {
      std::copy(labels.end() - 16, labels.end(), chunk.begin());
      engine.ingest_labels(s, chunk, t + 1 - 16);
      labeled_until = t + 1;
    }
    if (engine.stats(s).retrains == retrains) continue;
    ++retrains;
    const std::string trained = engine.forest_fingerprint(s);
    // Every retrain here has a full window of labeled rows past warm-up.
    ASSERT_GE(before, extractor.max_warmup() + interval) << "point " << t;
    const double in_sample = best_cthld(load(trained), before);
    if (live.empty()) {
      prediction = in_sample;
    } else {
      const double best = best_cthld(load(live), before);
      // The two picks differ on this stream, so the check below can tell
      // them apart.
      EXPECT_NE(bits(best), bits(in_sample)) << "point " << t;
      prediction = core::kCthldEwmaAlpha * best +
                   (1.0 - core::kCthldEwmaAlpha) * prediction;
      ++checked;
    }
    live = trained;
  }
  EXPECT_GE(checked, 2u);
}

// A retrain copies its window on its due point T and installs its forest
// after point T + kForestInstallDelay: points T + 1 .. T + 6 are scored by
// the forest live at T, T + 7 by the new one, which equals one
// RandomForest::train on the window copied at T; stats().retrains counts
// it from point T + 6 on.
TEST(FleetEngine, ForestInstallsSixPointsAfterItsDuePoint) {
  ASSERT_EQ(core::kForestInstallDelay, 6u);
  const core::FleetOptions options = small_fleet_options();
  core::FleetEngine engine(options);
  const auto s = engine.add_series("kpi-install");
  detectors::StreamingExtractor extractor(
      options.detector_factory(options.ctx));
  const std::vector<std::string> names = extractor.feature_names();
  const std::size_t warmup = extractor.max_warmup();
  // The engine's rows as its history stores them, and their labels.
  std::vector<std::vector<double>> columns(names.size());
  std::vector<std::uint8_t> labels;
  std::vector<std::uint8_t> chunk(16);
  const auto fingerprint = [&names](const ml::RandomForest& forest) {
    std::ostringstream out;
    ml::save_forest(out, forest, names);
    return out.str();
  };
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return ml::load_forest(in).forest;
  };

  std::size_t labeled_until = 0;
  std::size_t due = 0;           // the due point T followed, 0 for none
  std::size_t retrains_at_due = 0;
  std::string live_at_due;       // the forest installed before T
  std::string trained;           // RandomForest::train on T's window
  std::size_t installs = 0;
  for (std::size_t t = 0; t < 160; ++t) {
    const double value = test_support::synthetic_fleet_value(6, t, 16);
    const std::vector<double> features = extractor.feed(value);
    for (std::size_t f = 0; f < names.size(); ++f) {
      columns[f].push_back(core::stored_severity(features[f]));
    }
    labels.push_back(t % 7 == 0 ? 1 : 0);
    const core::FleetDetection got = engine.feed(s, value);
    const std::size_t point = t + 1;  // points fed so far

    if (due != 0 && point > due && point <= due + 7) {
      SCOPED_TRACE("point T + " + std::to_string(point - due));
      const std::string& scorer = point <= due + 6 ? live_at_due : trained;
      if (scorer.empty()) {
        EXPECT_FALSE(got.classified);
      } else {
        ASSERT_TRUE(got.classified);
        EXPECT_EQ(bits(got.score), bits(load(scorer).score(features)));
      }
      EXPECT_EQ(engine.stats(s).retrains,
                retrains_at_due + (point >= due + 6 ? 1 : 0));
      if (point == due + 6) {
        EXPECT_EQ(engine.forest_fingerprint(s), trained);
        ++installs;
      }
    }
    if (engine.scheduler().due("kpi-install", point) &&
        labeled_until > warmup) {
      // The window copied at T: the labeled rows past warm-up.
      std::vector<std::vector<double>> window(names.size());
      for (std::size_t f = 0; f < names.size(); ++f) {
        window[f].assign(columns[f].begin() + warmup,
                         columns[f].begin() + labeled_until);
      }
      const ml::Dataset data(
          names, std::move(window),
          std::vector<std::uint8_t>(labels.begin() + warmup,
                                    labels.begin() + labeled_until));
      ASSERT_GT(data.positives(), 0u);
      ml::RandomForest forest(options.forest);
      forest.train(data);
      due = point;
      retrains_at_due = engine.stats(s).retrains;
      live_at_due = engine.forest_fingerprint(s);
      trained = fingerprint(forest);
    }
    if (point % 16 == 0) {
      std::copy(labels.end() - 16, labels.end(), chunk.begin());
      engine.ingest_labels(s, chunk, point - 16);
      labeled_until = point;
    }
  }
  EXPECT_GE(installs, 3u) << "a first retrain and later ones";
}

// ---- the offline I1 driver against the engine ---------------------------

// The offline weekly driver (run_weekly_incremental, I1) and one engine
// series with default options train the same forests, so the driver's
// figures stand for the running system. Labels arrive at week boundaries,
// as an operator's would, which lines the series' staggered phase up with
// the driver's week-aligned windows: a retrain due at point T trains on
// the rows labeled by then, [warm-up, k * W) with k = (T - 1) / W. The
// driver reads the features as the engine's history stores them
// (stored_severity); streaming extraction equals batch extraction bit for
// bit (StreamingExtractor.MatchesBatchExtraction).
TEST(EngineEqualsDriver, I1Forests) {
  const datagen::KpiPreset preset = datagen::srt_preset(datagen::Scale::kSmall);
  const core::ExperimentData data = core::prepare_experiment(
      datagen::generate_kpi(preset.model, preset.injection));
  const std::size_t week = data.points_per_week;
  const std::size_t rows = data.dataset.num_rows();
  std::vector<std::vector<double>> columns = data.dataset.columns();
  for (auto& column : columns) {
    for (double& value : column) value = core::stored_severity(value);
  }
  const ml::Dataset stored(data.dataset.feature_names(), std::move(columns),
                           data.dataset.labels());

  core::FleetOptions options;
  options.ctx = {data.series.points_per_day(), week};
  core::FleetEngine engine(options);
  const std::string id = data.series.name();
  const auto s = engine.add_series(id);

  core::DriverOptions driver;
  driver.initial_weeks = 2;
  driver.forest = options.forest;
  const core::IncrementalRunResult run =
      core::run_weekly_incremental(stored, week, data.warmup, driver);

  const std::span<const std::uint8_t> labels = stored.labels();
  std::size_t retrains = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    engine.feed(s, data.series[i]);
    if ((i + 1) % week == 0) {
      engine.ingest_labels(s, labels.subspan(i + 1 - week, week),
                           i + 1 - week);
    }
    const core::FleetSeriesStats stats = engine.stats(s);
    if (stats.retrains == retrains) continue;
    ASSERT_EQ(stats.retrains, retrains + 1);
    retrains = stats.retrains;
    const std::size_t due = stats.points_seen - core::kForestInstallDelay;
    SCOPED_TRACE("retrain due at point " + std::to_string(due));
    ASSERT_TRUE(engine.scheduler().due(id, due));
    const std::size_t k = (due - 1) / week;
    ASSERT_GE(k, driver.initial_weeks);
    const auto windows =
        core::strategy_windows(core::TrainingStrategy::kI1,
                               k - driver.initial_weeks, rows, week,
                               driver.initial_weeks);
    ASSERT_TRUE(windows.has_value());
    ASSERT_EQ(windows->train_end, k * week);

    // (a) The installed forest is RandomForest::train on the I1 window.
    ml::RandomForest forest(options.forest);
    forest.train(stored.slice(std::max(windows->train_begin, data.warmup),
                              windows->train_end));
    std::ostringstream expected;
    ml::save_forest(expected, forest, stored.feature_names());
    const std::string installed = engine.forest_fingerprint(s);
    ASSERT_EQ(installed, expected.str());

    // (b) It scores week k as the driver does.
    std::istringstream in(installed);
    const std::vector<double> scores = ml::load_forest(in).forest.score_all(
        stored.slice(windows->test_begin, windows->test_end));
    for (std::size_t j = 0; j < scores.size(); ++j) {
      ASSERT_EQ(bits(scores[j]), bits(run.scores[windows->test_begin + j]))
          << "row " << windows->test_begin + j;
    }
  }
  // Every driver week with training rows past warm-up had its retrain.
  std::size_t trainable = 0;
  for (const auto& w : run.weeks) trainable += w.test_begin > data.warmup;
  EXPECT_GT(trainable, 10u);
  EXPECT_EQ(retrains, trainable);
}

// A retrain must install before the series' next one comes due.
TEST(FleetEngine, RejectsRetrainIntervalWithinInstallDelay) {
  auto options = small_fleet_options();
  for (const std::size_t interval : {std::size_t{1}, core::kForestInstallDelay}) {
    options.retrain_interval = interval;
    EXPECT_THROW(core::FleetEngine{options}, std::invalid_argument)
        << "interval " << interval;
  }
  // 0 retrains weekly: a 6-point week is as short.
  options.retrain_interval = 0;
  options.ctx = detectors::SeriesContext{1, core::kForestInstallDelay};
  EXPECT_THROW(core::FleetEngine{options}, std::invalid_argument);
  options.retrain_interval = core::kForestInstallDelay + 1;
  EXPECT_NO_THROW(core::FleetEngine{options});
}

// A custom detector family (§4.3.2): the step |v_t - v_{t-1}| over k.
class ScaledStepDetector final : public detectors::Detector {
 public:
  explicit ScaledStepDetector(int k) : k_(k) {}
  std::string name() const override {
    return "scaled_step(k=" + std::to_string(k_) + ")";
  }
  std::size_t warmup_points() const override { return 1; }
  double feed(double value) override {
    const double severity =
        has_last_ ? std::abs(value - last_) / static_cast<double>(k_) : 0.0;
    last_ = value;
    has_last_ = true;
    return detectors::sanitize_severity(severity);
  }
  void reset() override { has_last_ = false; }

 private:
  int k_;
  double last_ = 0.0;
  bool has_last_ = false;
};

TEST(FleetEngine, FeatureImportancesNameTheFactoryConfigurations) {
  auto registry = detectors::DetectorRegistry::with_standard_families();
  registry.register_family("scaled_step", [](const detectors::SeriesContext&) {
    std::vector<detectors::DetectorPtr> out;
    for (const int k : {1, 2, 3}) {
      out.push_back(std::make_unique<ScaledStepDetector>(k));
    }
    return out;
  });
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{24, 168};  // hourly
  options.detector_factory = [&registry](const detectors::SeriesContext& c) {
    return registry.instantiate_all(c);
  };
  options.forest.num_trees = 8;
  core::FleetEngine engine(options);
  const auto s = engine.add_series("kpi-importances");
  EXPECT_TRUE(engine.feature_importances(s).empty());

  // Daily label chunks, every 7th point anomalous, until the first
  // retrain; nothing is reported before it.
  std::vector<std::uint8_t> chunk(24);
  for (std::size_t t = 0; t < 20 * 168 && engine.stats(s).retrains == 0;
       ++t) {
    EXPECT_TRUE(engine.feature_importances(s).empty()) << "point " << t;
    engine.feed(s, test_support::synthetic_fleet_value(5, t, 24));
    if ((t + 1) % 24 == 0) {
      const std::size_t begin = t + 1 - 24;
      for (std::size_t j = 0; j < 24; ++j) {
        chunk[j] = (begin + j) % 7 == 0 ? 1 : 0;
      }
      engine.ingest_labels(s, chunk, begin);
    }
  }
  ASSERT_EQ(engine.stats(s).retrains, 1u);

  const auto importances = engine.feature_importances(s);
  const auto configs = options.detector_factory(options.ctx);
  ASSERT_EQ(configs.size(), 136u);
  ASSERT_EQ(importances.size(), configs.size());
  double sum = 0.0;
  for (std::size_t f = 0; f < configs.size(); ++f) {
    EXPECT_EQ(importances[f].first, configs[f]->name()) << "column " << f;
    EXPECT_GE(importances[f].second, 0.0) << importances[f].first;
    sum += importances[f].second;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FleetEngine, AddSeriesIsIdempotent) {
  core::FleetEngine engine(small_fleet_options());
  EXPECT_EQ(engine.find_series("kpi-a"), nullptr);
  const auto a = engine.add_series("kpi-a");
  EXPECT_EQ(engine.add_series("kpi-a").get(), a.get());
  EXPECT_EQ(engine.find_series("kpi-a").get(), a.get());
  engine.add_series("kpi-b");
  EXPECT_EQ(engine.series_count(), 2u);
  EXPECT_EQ(engine.series_ids(),
            (std::vector<std::string>{"kpi-a", "kpi-b"}));
  EXPECT_EQ(engine.stats(a).id, "kpi-a");
}

// add_series builds a series under the map lock: racing callers get one
// construction per id and the same handle, and series_ids() is the
// map's sorted order ("kpi-10" before "kpi-2"), not insertion order.
TEST(FleetEngine, ConcurrentAddSeriesConstructsOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIds = 64;
  std::atomic<std::size_t> constructions{0};
  auto options = small_fleet_options();
  options.detector_factory = [&constructions](
                                 const detectors::SeriesContext& ctx) {
    constructions.fetch_add(1);
    return test_support::short_window_configurations(ctx);
  };
  core::FleetEngine engine(options);
  std::vector<std::vector<core::SeriesHandle>> seen(
      kThreads, std::vector<core::SeriesHandle>(kIds));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&engine, &seen, w] {
      // Each thread walks the ids from its own offset so first sights
      // are spread over the threads.
      for (std::size_t k = 0; k < kIds; ++k) {
        const std::size_t i = (k + w * kIds / kThreads) % kIds;
        seen[w][i] = engine.add_series("kpi-" + std::to_string(i));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(constructions.load(), kIds) << "one construction per id";
  EXPECT_EQ(engine.series_count(), kIds);
  for (std::size_t i = 0; i < kIds; ++i) {
    const auto handle = engine.find_series("kpi-" + std::to_string(i));
    ASSERT_NE(handle, nullptr);
    for (std::size_t w = 0; w < kThreads; ++w) {
      EXPECT_EQ(seen[w][i].get(), handle.get()) << "thread " << w;
    }
  }
  const std::vector<std::string> ids = engine.series_ids();
  ASSERT_EQ(ids.size(), kIds);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids[1], "kpi-1");
  EXPECT_EQ(ids[2], "kpi-10");
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

// The label watermark moves only over rows a chunk wrote. A chunk wholly
// past the fed rows writes none, so rows 100..499 (never labeled) must
// not become trainable as "normal".
TEST(FleetEngine, LabelChunkPastFedRowsKeepsWatermark) {
  core::FleetEngine engine(small_fleet_options());
  const auto s = engine.add_series("kpi-labels");
  for (std::size_t t = 0; t < 500; ++t) {
    engine.feed(s, test_support::synthetic_fleet_value(99, t, 16));
  }
  engine.ingest_labels(s, std::vector<std::uint8_t>(100, 0), 0);
  EXPECT_EQ(engine.stats(s).labeled_until, 100u);

  engine.ingest_labels(s, std::vector<std::uint8_t>(10, 1), 600);
  EXPECT_EQ(engine.stats(s).labeled_until, 100u);

  // A chunk that runs past the newest row stops at it.
  engine.ingest_labels(s, std::vector<std::uint8_t>(20, 0), 490);
  EXPECT_EQ(engine.stats(s).labeled_until, 500u);

  // With 700 points fed, [600, 610) is written and the watermark jumps
  // to 610, but rows 100-599, which no chunk covered, must stay out of
  // the next retrain: labeling them 0 explicitly trains another forest.
  const auto forest_after_700 = [](bool label_the_gap) {
    core::FleetEngine fleet(small_fleet_options());
    const auto series = fleet.add_series("kpi-labels");
    std::size_t t = 0;
    for (; t < 700; ++t) {
      fleet.feed(series, test_support::synthetic_fleet_value(99, t, 16));
    }
    fleet.ingest_labels(series, std::vector<std::uint8_t>(100, 0), 0);
    if (label_the_gap) {
      fleet.ingest_labels(series, std::vector<std::uint8_t>(500, 0), 100);
    }
    fleet.ingest_labels(series, std::vector<std::uint8_t>(10, 1), 600);
    EXPECT_EQ(fleet.stats(series).labeled_until, 610u);
    // One retrain interval later the series has trained on its labels.
    for (; t < 716; ++t) {
      fleet.feed(series, test_support::synthetic_fleet_value(99, t, 16));
    }
    EXPECT_EQ(fleet.stats(series).retrains, 1u);
    return fleet.forest_fingerprint(series);
  };
  EXPECT_NE(forest_after_700(false), forest_after_700(true))
      << "rows between label chunks were trained as normal";
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
                         test_support::synthetic_fleet_value(1, t, 16)});
        if ((t + 1) % 16 == 0) {
          engine.ingest_raw("kpi-x", std::move(raw), 600,
                            ts::RepairPolicy::kFillInterpolate);
          raw.clear();
        }
        if (t == 32) engine.set_quarantined(x, true);
      }
      observed.push_back(
          bits(engine.feed(y, test_support::synthetic_fleet_value(2, t, 16)).score));
      observed.push_back(
          bits(engine.feed(z, test_support::synthetic_fleet_value(3, t, 16)).score));
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
      values[i] = test_support::synthetic_fleet_value(i, t, 16);
    }
    a.feed_tick(series_a, values, tick);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto direct = b.feed(series_b[i], values[i]);
      EXPECT_EQ(bits(tick[i].score), bits(direct.score));
      EXPECT_EQ(tick[i].classified, direct.classified);
    }
  }
}

// A short `out` span would be written past its end, and a short
// `values` span would feed some series and skip the rest: any length
// mismatch throws before a single point is fed.
TEST(FleetEngine, FeedTickRejectsMismatchedSpans) {
  core::FleetEngine engine(small_fleet_options());
  std::vector<core::SeriesHandle> series;
  for (int i = 0; i < 3; ++i) {
    series.push_back(engine.add_series("kpi-" + std::to_string(i)));
  }
  // Backing storage one slot longer than every span, so a tick that
  // ignores the lengths writes into the vector, not past it.
  std::vector<double> values(4, 1.0);
  std::vector<core::FleetDetection> out(4);
  const std::span<const core::SeriesHandle> all(series);
  const std::span<const double> three_values(values.data(), 3);
  const std::span<core::FleetDetection> three_out(out.data(), 3);
  EXPECT_THROW(engine.feed_tick(all, three_values, {out.data(), 2}),
               std::invalid_argument);
  EXPECT_THROW(engine.feed_tick(all, {values.data(), 2}, three_out),
               std::invalid_argument);
  EXPECT_THROW(engine.feed_tick(all, {values.data(), 4}, three_out),
               std::invalid_argument);
  EXPECT_THROW(engine.feed_tick(all.first(2), three_values, three_out),
               std::invalid_argument);
  for (const auto& s : series) EXPECT_EQ(engine.stats(s).points_seen, 0u);
  engine.feed_tick(all, three_values, three_out);
  for (const auto& s : series) EXPECT_EQ(engine.stats(s).points_seen, 1u);
}

// TSan regression for the lock order util::Mutex checks at run time:
// feed() takes only its own series' lock, never holding one series' lock
// while touching another. Two threads working the same pair of series in
// opposite order therefore cannot deadlock, and TSan's
// lock-order-inversion detector (enabled in the tsan-parallel CI job)
// must stay silent.
TEST(FleetEngine, OppositeOrderFeedsAcquireLocksOneAtATime) {
  core::FleetEngine engine(small_fleet_options());
  const auto a = engine.add_series("kpi-order-0");
  const auto b = engine.add_series("kpi-order-1");
  std::thread forward([&engine, &a, &b] {
    for (std::size_t t = 0; t < 64; ++t) {
      engine.feed(a, test_support::synthetic_fleet_value(1, t, 16));
      engine.feed(b, test_support::synthetic_fleet_value(2, t, 16));
    }
  });
  std::thread reverse([&engine, &a, &b] {
    for (std::size_t t = 0; t < 64; ++t) {
      engine.feed(b, test_support::synthetic_fleet_value(3, t, 16));
      engine.feed(a, test_support::synthetic_fleet_value(4, t, 16));
    }
  });
  forward.join();
  reverse.join();
  EXPECT_EQ(engine.stats(a).points_seen, 128u);
  EXPECT_EQ(engine.stats(b).points_seen, 128u);
}

// ---- feature history oracle ----------------------------------------------

// The first row a series' next retrain reads: past warm-up and inside
// the logical window, which starts at (t / W - 1) * W once t reaches 2W.
std::size_t next_retrain_floor(const core::RetrainScheduler& scheduler,
                               std::size_t phase, std::size_t points,
                               std::size_t warmup, std::size_t capacity) {
  const std::size_t t = scheduler.next_due(phase, points);
  const std::size_t base =
      capacity > 0 && t >= 2 * capacity ? (t / capacity - 1) * capacity : 0;
  return std::max(warmup, base);
}

// Severities at the edges of f32, a pure function of the input: ±1e300,
// beyond ±FLT_MAX, and magnitudes below the smallest f32 subnormal,
// between ordinary values, so retrains store and split on all of them.
class EdgeSeverity final : public detectors::Detector {
 public:
  std::string name() const override { return "edge_severity"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double value) override {
    static constexpr double kSeverities[] = {1e300, -1e300, 1e-50,
                                             -1e-50, 1e-45, 2.5};
    if (!(value >= 0.0)) return 0.0;
    return kSeverities[static_cast<std::size_t>(value) % 6];
  }
  void reset() override {}
};

TEST(FleetHistory, StoredSeveritySaturatesToFloatRange) {
  constexpr float kMax = std::numeric_limits<float>::max();
  EXPECT_EQ(core::stored_severity(1e300), kMax);
  EXPECT_EQ(core::stored_severity(-1e300), -kMax);
  EXPECT_EQ(core::stored_severity(std::numeric_limits<double>::max()), kMax);
  EXPECT_EQ(core::stored_severity(double{kMax}), kMax);
  EXPECT_EQ(core::stored_severity(1e-45),
            std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(core::stored_severity(1e-50), 0.0f);
  EXPECT_FALSE(std::signbit(core::stored_severity(1e-50)));
  EXPECT_TRUE(std::signbit(core::stored_severity(-1e-50)));
  EXPECT_EQ(core::stored_severity(2.5), 2.5f);
  EXPECT_EQ(core::stored_severity(0.1), 0.1f);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(core::stored_severity(inf), std::numeric_limits<float>::infinity());
  EXPECT_EQ(core::stored_severity(-inf),
            -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(
      core::stored_severity(std::numeric_limits<double>::quiet_NaN())));
}

// FeatureHistory's two invariant throws, on the store of a series with 2
// features, warm after 10 points, retrained every 100 points on phase 5:
// due at 105, 205, 305, ... With W = 150 a retrain at t reads from
// max(10, (t / 150 - 1) * 150), so the most rows any retrain reads is
// 255, at t = 405, and the store keeps rows from 10 on.
constexpr std::size_t kHistoryWarmup = 10;
constexpr std::size_t kHistoryPhase = 5;

core::FeatureHistory small_history(const core::RetrainScheduler& scheduler,
                                   std::size_t window) {
  return {2, kHistoryWarmup, window, scheduler, kHistoryPhase};
}

TEST(FeatureHistory, SizedStoreThatFillsUpThrows) {
  const core::RetrainScheduler scheduler(7, 100);
  const std::vector<double> values{1.0, -1.0};
  // Dropping below each next retrain's floor at its due point, as a
  // series does, the store never fills.
  core::FeatureHistory kept = small_history(scheduler, 150);
  EXPECT_NO_THROW({
    for (std::size_t row = 0; row < 3000; ++row) {
      kept.append(row, values);
      if (scheduler.due_at(kHistoryPhase, row + 1)) {
        kept.drop_before(scheduler.next_due(kHistoryPhase, row + 1));
      }
    }
  });
  // Without the drops it fills after 255 rows: rows 10 to 264.
  core::FeatureHistory full = small_history(scheduler, 150);
  std::size_t row = 0;
  const auto fill = [&] {
    for (; row < 3000; ++row) full.append(row, values);
  };
  EXPECT_THROW(fill(), std::logic_error);
  EXPECT_EQ(row, kHistoryWarmup + 255);

  // An unbounded store (W = 0) keeps every row past warm-up.
  core::FeatureHistory unbounded = small_history(scheduler, 0);
  for (row = 0; row < 3000; ++row) unbounded.append(row, values);
  std::vector<std::uint8_t> labels(3000, 0);
  labels[2999] = 1;
  unbounded.label(labels, 0, 3000);
  EXPECT_EQ(unbounded.labeled_until(), 3000u);
  const std::optional<ml::Dataset> data =
      unbounded.training_set({"a", "b"}, 3000);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->num_rows(), 3000 - kHistoryWarmup);
  EXPECT_EQ(data->value(0, 0), 1.0);
  EXPECT_EQ(data->value(data->num_rows() - 1, 1), -1.0);
}

TEST(FeatureHistory, TrainingRangeBelowTheStoredFloorThrows) {
  const core::RetrainScheduler scheduler(7, 100);
  const std::vector<double> values{1.0, -1.0};
  core::FeatureHistory history = small_history(scheduler, 150);
  std::vector<std::uint8_t> labels(405);
  for (std::size_t row = 0; row < labels.size(); ++row) {
    labels[row] = row % 7 == 0 ? 1 : 0;
  }
  for (std::size_t row = 0; row < 405; ++row) {
    history.append(row, values);
    history.label(std::span(labels).subspan(row, 1), row, row + 1);
    if (row + 1 < 405 && scheduler.due_at(kHistoryPhase, row + 1)) {
      history.drop_before(scheduler.next_due(kHistoryPhase, row + 1));
    }
  }
  // The retrain due at 405 reads rows [150, 405), all stored.
  const std::optional<ml::Dataset> data = history.training_set({"a", "b"}, 405);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->num_rows(), 255u);
  // Once it has dropped the rows below the next retrain's floor (300), the
  // same range starts below the store.
  history.drop_before(scheduler.next_due(kHistoryPhase, 405));
  EXPECT_THROW(history.training_set({"a", "b"}, 405), std::logic_error);
  EXPECT_EQ(history.training_set({"a", "b"}, 505)->num_rows(), 105u);
}

// The exactly-sized history store against the growing columns with the
// 2x amortised trim it replaced, over random label traffic: trailing,
// late and overlapping chunks, chunks that run past the fed rows and
// chunks wholly below the stored floor, with quarantine toggled
// mid-stream. The bank adds EdgeSeverity to the short-window set, so the
// f32 store's saturating cast and subnormal flush are on the compared
// path. Verdict bits must agree on every point, and forests and stats
// after every chunk.
TEST(FleetHistoryOracle, StoreMatchesGrowingColumns) {
  struct Case {
    std::size_t capacity;
    std::size_t interval;
  };
  // Unbounded; below, equal to and not dividing the retrain interval;
  // and a retrain far beyond the bound.
  const Case cases[] = {{0, 16},  {8, 16},  {16, 16},
                        {24, 16}, {12, 20}, {10, 100}};
  std::size_t below_floor_chunks = 0;
  std::size_t quarantine_toggles = 0;
  for (const Case& c : cases) {
    auto options = small_fleet_options();
    options.history_capacity = c.capacity;
    options.retrain_interval = c.interval;
    options.detector_factory = [](const detectors::SeriesContext& ctx) {
      auto configs = test_support::short_window_configurations(ctx);
      configs.push_back(std::make_unique<EdgeSeverity>());
      return configs;
    };
    core::FleetEngine engine(options);
    util::Rng rng(1000 * c.capacity + c.interval);
    std::size_t retrains = 0;
    for (std::uint64_t s = 0; s < 4; ++s) {
      const std::string id = "kpi-oracle-" + std::to_string(s);
      SCOPED_TRACE("capacity " + std::to_string(c.capacity) + " interval " +
                   std::to_string(c.interval) + " " + id);
      const auto series = engine.add_series(id);
      core::reference::FleetSeriesReference reference(options, id);
      bool quarantined = false;
      for (std::size_t t = 0; t < 800; ++t) {
        if (rng.uniform() < 0.02) {
          quarantined = !quarantined;
          engine.set_quarantined(series, quarantined);
          reference.set_quarantined(quarantined);
          ++quarantine_toggles;
        }
        const double value = test_support::synthetic_fleet_value(s, t, 16);
        const core::FleetDetection got = engine.feed(series, value);
        const core::FleetDetection want = reference.feed(value);
        ASSERT_EQ(bits(got.score), bits(want.score)) << "point " << t;
        ASSERT_EQ(bits(got.cthld), bits(want.cthld)) << "point " << t;
        ASSERT_EQ(got.is_anomaly, want.is_anomaly) << "point " << t;
        ASSERT_EQ(got.classified, want.classified) << "point " << t;
        if (rng.uniform() >= 0.35) continue;

        const std::size_t points = reference.points_seen();
        std::size_t length = 1 + rng.uniform_int(24);
        std::size_t begin = 0;
        switch (rng.uniform_int(4)) {
          case 0:  // trailing
            begin = points - std::min(points, length);
            break;
          case 1:  // late, overlapping what came before
            begin = points - std::min(points, rng.uniform_int(4 * c.interval));
            break;
          case 2:  // running past the fed rows
            begin = points - std::min(points, rng.uniform_int(4));
            length += 8;
            break;
          default: {  // wholly in [base, floor): counted, never stored
            const std::size_t base = reference.base();
            const std::size_t floor = next_retrain_floor(
                engine.scheduler(), reference.phase(), points,
                reference.max_warmup(), c.capacity);
            if (base >= std::min(floor, points)) continue;
            begin = base + rng.uniform_int(std::min(floor, points) - base);
            length = std::min(length, std::min(floor, points) - begin);
            ++below_floor_chunks;
          }
        }
        std::vector<std::uint8_t> labels(length);
        for (auto& label : labels) label = rng.uniform() < 0.15 ? 1 : 0;
        engine.ingest_labels(series, labels, begin);
        reference.ingest_labels(labels, begin);

        const core::FleetSeriesStats stats = engine.stats(series);
        ASSERT_EQ(stats.points_seen, reference.points_seen()) << "point " << t;
        ASSERT_EQ(stats.labeled_until, reference.labeled_until())
            << "point " << t;
        ASSERT_EQ(stats.retrains, reference.retrains()) << "point " << t;
        ASSERT_EQ(stats.trained, reference.trained()) << "point " << t;
        ASSERT_EQ(engine.forest_fingerprint(series),
                  reference.forest_fingerprint())
            << "point " << t;
      }
      retrains += reference.retrains();
    }
    EXPECT_GT(retrains, 4u) << "capacity " << c.capacity;
  }
  EXPECT_GT(below_floor_chunks, 0u);
  EXPECT_GT(quarantine_toggles, 0u);
}

}  // namespace
