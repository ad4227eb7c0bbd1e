// Chaos suite for the fault-tolerance layer (DESIGN.md §5f): under every
// injected fault class — ingest gap / NaN / duplicate / disorder, detector
// throw, NaN severity, repeated failure → quarantine, forest training
// failure — the pipeline completes with degraded-but-finite output, the
// opprentice.faults.* / opprentice.detector.* metrics account for every
// event, and with no fault plan installed the boundary is transparent:
// outputs are byte-identical to an unguarded run.
//
// ctest label: chaos (CI runs these under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/fleet_engine.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "timeseries/repair.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace opprentice;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Installs a fault plan for one test and clears it on scope exit; tests
// in this binary share the process-wide plan slot.
struct PlanGuard {
  explicit PlanGuard(const util::FaultPlan& plan) {
    util::set_fault_plan(plan);
  }
  ~PlanGuard() { util::clear_fault_plan(); }
};

// Counters are process-wide and shared across tests: assert on deltas.
std::uint64_t counter_value(const std::string& name) {
  return obs::counter(name).value();
}

// A clean ten-minute KPI stream: strictly ordered, on-grid, finite.
std::vector<ts::RawPoint> clean_points(std::size_t n,
                                       std::int64_t interval = 600,
                                       std::int64_t start = 1700000000) {
  std::vector<ts::RawPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({start + static_cast<std::int64_t>(i) * interval,
                      10.0 + std::sin(static_cast<double>(i) * 0.1)});
  }
  return points;
}

// Detectors that misbehave on purpose.
class BombDetector : public detectors::Detector {
 public:
  std::string name() const override { return "bomb(mode=throw)"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double) override { throw std::runtime_error("boom"); }
  void reset() override {}
};

class NanDetector : public detectors::Detector {
 public:
  std::string name() const override { return "bomb(mode=nan)"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double) override { return kNan; }
  void reset() override {}
};

class EchoDetector : public detectors::Detector {
 public:
  std::string name() const override { return "echo()"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double value) override { return std::fabs(value); }
  void reset() override {}
};

ts::TimeSeries small_series(std::size_t n) {
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(5.0 + std::cos(static_cast<double>(i) * 0.2));
  }
  return ts::TimeSeries("chaos", 1700000000, 600, std::move(values));
}

// ---- fault spec / plan ---------------------------------------------------

TEST(FaultSpec, ParsesSeedAndRates) {
  const auto plan = util::parse_fault_spec(
      "seed=7, detector.throw=0.25; ingest.nan=1");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.rates.at("detector.throw"), 0.25);
  EXPECT_DOUBLE_EQ(plan.rates.at("ingest.nan"), 1.0);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(util::parse_fault_spec("detector.throw"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("no.such.site=0.5"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("detector.throw=1.5"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("detector.throw=abc"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("seed=xyz"), std::invalid_argument);
}

TEST(FaultSpec, DecisionsArePureFunctionsOfSiteAndKey) {
  util::FaultPlan plan;
  plan.seed = 99;
  plan.rates["detector.throw"] = 0.5;
  plan.rates["detector.nan"] = 0.0;
  const PlanGuard guard(plan);

  ASSERT_TRUE(util::faults_enabled());
  bool any_fired = false;
  bool any_skipped = false;
  for (std::uint64_t key = 0; key < 256; ++key) {
    const bool first = util::fault_fires(util::faults::kDetectorThrow, key);
    // Re-asking must answer the same: no hidden counters.
    EXPECT_EQ(util::fault_fires(util::faults::kDetectorThrow, key), first);
    EXPECT_FALSE(util::fault_fires(util::faults::kDetectorNan, key));
    any_fired = any_fired || first;
    any_skipped = any_skipped || !first;
  }
  EXPECT_TRUE(any_fired);
  EXPECT_TRUE(any_skipped);
}

TEST(FaultSpec, NoPlanMeansNoFaults) {
  util::clear_fault_plan();
  EXPECT_FALSE(util::faults_enabled());
  EXPECT_FALSE(util::fault_fires(util::faults::kDetectorThrow, 1));
}

// ---- ingest repair -------------------------------------------------------

TEST(IngestRepair, PolicyParsing) {
  EXPECT_EQ(ts::parse_repair_policy("fail"), ts::RepairPolicy::kFail);
  EXPECT_EQ(ts::parse_repair_policy("drop"), ts::RepairPolicy::kDrop);
  EXPECT_EQ(ts::parse_repair_policy("fill-interpolate"),
            ts::RepairPolicy::kFillInterpolate);
  EXPECT_THROW(ts::parse_repair_policy("interpolate"),
               std::invalid_argument);
}

TEST(IngestRepair, CleanStreamIsBitwiseIdentity) {
  const auto points = clean_points(64);
  const auto result =
      ts::repair_series("clean", points, 0, ts::RepairPolicy::kDrop);
  EXPECT_TRUE(result.report.clean());
  ASSERT_EQ(result.series.size(), points.size());
  EXPECT_EQ(result.series.interval_seconds(), 600);
  EXPECT_EQ(result.series.start_epoch(), points.front().timestamp);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Bitwise: the repair pass must not perturb clean values at all.
    EXPECT_EQ(result.series[i], points[i].value) << "point " << i;
  }
}

TEST(IngestRepair, CountsAndRepairsEveryDefectClass) {
  auto points = clean_points(20);
  std::swap(points[3], points[4]);           // out of order
  points[7].timestamp = points[6].timestamp; // duplicate slot
  points.erase(points.begin() + 10);         // gap
  points[12].value = kNan;                   // bad value
  points[14].timestamp += 60;                // misaligned (snaps back)

  const auto before = counter_value("opprentice.ingest.gaps");
  const auto result =
      ts::repair_series("dirty", points, 600, ts::RepairPolicy::kDrop);
  EXPECT_EQ(result.report.out_of_order, 1u);
  EXPECT_EQ(result.report.duplicates, 1u);
  EXPECT_GE(result.report.gaps, 2u);  // the erased point + the dup's slot
  EXPECT_EQ(result.report.bad_values, 1u);
  EXPECT_EQ(result.report.misaligned, 1u);
  EXPECT_EQ(counter_value("opprentice.ingest.gaps") - before,
            result.report.gaps);

  // The repaired series is back on a strict grid with NaN for missing.
  EXPECT_EQ(result.series.interval_seconds(), 600);
  std::size_t nan_count = 0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    if (std::isnan(result.series[i])) ++nan_count;
  }
  EXPECT_EQ(nan_count, result.report.gaps + result.report.bad_values);
}

TEST(IngestRepair, FailPolicyThrowsOnDirtyStreams) {
  auto points = clean_points(10);
  points[4].value = kNan;
  EXPECT_THROW(
      ts::repair_series("dirty", points, 600, ts::RepairPolicy::kFail),
      std::runtime_error);
  // ...but accepts a clean stream.
  EXPECT_NO_THROW(ts::repair_series("clean", clean_points(10), 600,
                                    ts::RepairPolicy::kFail));
}

TEST(IngestRepair, FillInterpolateBridgesGaps) {
  auto points = clean_points(5);
  points[1].value = 0.0;
  points[3].value = 10.0;
  points.erase(points.begin() + 2);  // gap between values 0 and 10
  const auto result = ts::repair_series("gappy", points, 600,
                                        ts::RepairPolicy::kFillInterpolate);
  ASSERT_EQ(result.series.size(), 5u);
  EXPECT_DOUBLE_EQ(result.series[2], 5.0);  // linear midpoint
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.series[i])) << "point " << i;
  }
}

TEST(IngestRepair, EdgeGapsCopyNearestFiniteValue) {
  auto points = clean_points(4);
  points[0].value = kNan;
  points[3].value = kNan;
  const auto result = ts::repair_series("edges", points, 600,
                                        ts::RepairPolicy::kFillInterpolate);
  ASSERT_EQ(result.series.size(), 4u);
  EXPECT_DOUBLE_EQ(result.series[0], result.series[1]);
  EXPECT_DOUBLE_EQ(result.series[3], result.series[2]);
}

TEST(IngestRepair, RejectsIntervalsThatDoNotDivideADay) {
  EXPECT_THROW(
      ts::repair_series("bad", clean_points(4, 7000), 7000,
                        ts::RepairPolicy::kDrop),
      std::runtime_error);
}

TEST(IngestRepair, InjectedIngestFaultsAreDeterministic) {
  util::FaultPlan plan;
  plan.seed = 4242;
  plan.rates["ingest.gap"] = 0.05;
  plan.rates["ingest.nan"] = 0.05;
  plan.rates["ingest.duplicate"] = 0.05;
  plan.rates["ingest.disorder"] = 0.05;
  const PlanGuard guard(plan);

  auto a = clean_points(400);
  auto b = clean_points(400);
  const auto injected_before = counter_value("opprentice.faults.injected");
  ts::inject_ingest_faults(a);
  ts::inject_ingest_faults(b);
  EXPECT_GT(counter_value("opprentice.faults.injected") - injected_before,
            0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << "point " << i;
  }
  EXPECT_LT(a.size(), 400u);  // at 5% over 400 points, some gap fired

  // The faulted stream still repairs into a finite pipeline input.
  const auto result = ts::repair_series("faulted", a, 600,
                                        ts::RepairPolicy::kFillInterpolate);
  EXPECT_GT(result.report.total(), 0u);
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.series[i])) << "point " << i;
  }
}

// ---- detector fault boundary ---------------------------------------------

TEST(DetectorBoundary, ThrowingConfigIsIsolatedAndQuarantined) {
  const ts::TimeSeries series = small_series(32);
  std::vector<detectors::DetectorPtr> dets;
  dets.push_back(std::make_unique<BombDetector>());
  dets.push_back(std::make_unique<EchoDetector>());

  const auto exceptions_before =
      counter_value("opprentice.detector.exceptions");
  const auto quarantined_before =
      counter_value("opprentice.detector.quarantined");
  const auto features = detectors::extract_features(series, dets);

  // The bomb column degraded to neutral everywhere; quarantine tripped
  // after the default three consecutive failures, after which the
  // detector is no longer fed (so exactly three exceptions).
  ASSERT_EQ(features.num_features(), 2u);
  EXPECT_EQ(features.quarantined[0], 1);
  EXPECT_EQ(features.quarantined[1], 0);
  EXPECT_EQ(features.num_quarantined(), 1u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(features.columns[0][i], 0.0) << "point " << i;
  }
  EXPECT_EQ(counter_value("opprentice.detector.exceptions") -
                exceptions_before,
            3u);
  EXPECT_EQ(counter_value("opprentice.detector.quarantined") -
                quarantined_before,
            1u);

  // The live column is untouched by its neighbor's failures.
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(features.columns[1][i], std::fabs(series[i])) << "point " << i;
  }
}

TEST(DetectorBoundary, NanSeveritiesAreScrubbedToNeutral) {
  const ts::TimeSeries series = small_series(16);
  std::vector<detectors::DetectorPtr> dets;
  dets.push_back(std::make_unique<NanDetector>());

  const auto scrubbed_before = counter_value("opprentice.detector.scrubbed");
  const auto features = detectors::extract_features(series, dets);
  EXPECT_EQ(counter_value("opprentice.detector.scrubbed") - scrubbed_before,
            3u);  // three scrubs, then quarantine stops feeding
  EXPECT_EQ(features.quarantined[0], 1);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(features.columns[0][i], 0.0) << "point " << i;
  }
}

// A negative severity breaks Detector::feed's contract like NaN does: a
// plugged-in detector returning -1e300 writes the neutral severity, not
// -1e300, and counts a scrub.
TEST(DetectorBoundary, NegativeSeveritiesAreScrubbedToNeutral) {
  class NegativeDetector final : public detectors::Detector {
   public:
    std::string name() const override { return "negative()"; }
    std::size_t warmup_points() const override { return 0; }
    double feed(double) override { return -1e300; }
    void reset() override {}
  };
  std::vector<detectors::DetectorPtr> dets;
  dets.push_back(std::make_unique<NegativeDetector>());
  detectors::StreamingExtractor extractor(std::move(dets));

  const auto scrubbed_before = counter_value("opprentice.detector.scrubbed");
  std::vector<double> features(1);
  extractor.feed_into(3.0, features);
  EXPECT_EQ(features[0], 0.0);
  EXPECT_EQ(counter_value("opprentice.detector.scrubbed") - scrubbed_before,
            1u);
}

TEST(DetectorBoundary, IntermittentFailuresDoNotQuarantine) {
  // Fails twice, recovers, fails twice, ... — never three in a row.
  class FlakyDetector : public detectors::Detector {
   public:
    std::string name() const override { return "flaky()"; }
    std::size_t warmup_points() const override { return 0; }
    double feed(double) override {
      const std::size_t at = calls_++;
      if (at % 3 != 2) throw std::runtime_error("flake");
      return 1.0;
    }
    void reset() override { calls_ = 0; }

   private:
    std::size_t calls_ = 0;
  };

  const ts::TimeSeries series = small_series(30);
  std::vector<detectors::DetectorPtr> dets;
  dets.push_back(std::make_unique<FlakyDetector>());
  const auto features = detectors::extract_features(series, dets);
  EXPECT_EQ(features.quarantined[0], 0);
  EXPECT_EQ(features.num_quarantined(), 0u);
  // Failed points are neutral, recovered points carry their severity.
  EXPECT_EQ(features.columns[0][0], 0.0);
  EXPECT_EQ(features.columns[0][2], 1.0);
}

TEST(DetectorBoundary, StreamingExtractorQuarantinesToo) {
  std::vector<detectors::DetectorPtr> dets;
  dets.push_back(std::make_unique<BombDetector>());
  dets.push_back(std::make_unique<EchoDetector>());
  detectors::StreamingExtractor extractor(std::move(dets));

  for (std::size_t i = 0; i < 8; ++i) {
    const auto features = extractor.feed(3.0);
    ASSERT_EQ(features.size(), 2u);
    EXPECT_EQ(features[0], 0.0) << "point " << i;
    EXPECT_EQ(features[1], 3.0) << "point " << i;
  }
  EXPECT_EQ(extractor.quarantined()[0], 1);
  EXPECT_EQ(extractor.quarantined()[1], 0);

  extractor.reset();
  EXPECT_EQ(extractor.quarantined()[0], 0);
}

TEST(DetectorBoundary, ZeroFaultExtractionMatchesUnguardedLoop) {
  // With no plan installed the boundary must be transparent: extraction
  // through the guarded path is byte-identical to feeding the detectors
  // by hand with no boundary at all.
  util::clear_fault_plan();
  const datagen::KpiPreset preset = datagen::pv_preset(datagen::Scale::kSmall);
  datagen::KpiModel model = preset.model;
  model.weeks = 1;
  const ts::TimeSeries series =
      datagen::generate_kpi(model, preset.injection).series;
  const detectors::SeriesContext ctx{series.points_per_day(),
                                     series.points_per_week()};

  const auto features = detectors::extract_standard_features(series);
  ASSERT_EQ(features.num_features(), 133u);
  EXPECT_EQ(features.num_quarantined(), 0u);

  auto reference = detectors::standard_configurations(ctx);
  ASSERT_EQ(reference.size(), features.num_features());
  for (std::size_t f = 0; f < reference.size(); ++f) {
    reference[f]->reset();
    std::vector<double> column(series.size(), 0.0);
    for (std::size_t i = 0; i < series.size(); ++i) {
      column[i] = reference[f]->feed(series[i]);
    }
    const std::size_t warm =
        std::min(reference[f]->warmup_points(), series.size());
    std::fill(column.begin(),
              column.begin() + static_cast<std::ptrdiff_t>(warm), 0.0);
    ASSERT_EQ(features.columns[f], column)
        << "column " << features.feature_names[f];
  }
}

// detector.throw strikes after the configuration has seen the point, so
// only the struck point is lost: a period-indexed detector (seasonal slot,
// SVD phase, Holt-Winters season) stays in step with the stream, and with
// quarantine off every other point equals the clean run's, in all 133
// columns, streaming and batch alike.
TEST(DetectorBoundary, InjectedThrowCostsOnlyTheStruckPoint) {
  util::clear_fault_plan();
  // Hourly bins keep six weeks of the full bank cheap.
  const detectors::SeriesContext ctx{24, 168};
  const std::size_t n = 6 * ctx.points_per_week;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    values[i] = 100.0 + 20.0 * std::sin(t * 0.2618) +
                5.0 * std::sin(t * 0.0374) + 3.0 * std::cos(t * 1.7);
  }
  const ts::TimeSeries series("throw", 1700000000, 3600, values);
  detectors::FaultBoundary boundary;
  boundary.quarantine_after = 0;
  boundary.key_salt = 0x5eed;

  const auto stream = [&] {
    detectors::StreamingExtractor extractor(
        detectors::standard_configurations(ctx), boundary);
    std::vector<std::vector<double>> rows;
    for (const double v : values) rows.push_back(extractor.feed(v));
    return rows;
  };
  const detectors::FeatureMatrix clean_batch = detectors::extract_features(
      series, detectors::standard_configurations(ctx), boundary);
  const std::vector<std::vector<double>> clean_stream = stream();
  ASSERT_EQ(clean_batch.num_features(), 133u);

  util::FaultPlan plan;
  plan.seed = 31;
  plan.rates["detector.throw"] = 0.05;
  const PlanGuard guard(plan);
  const detectors::FeatureMatrix batch = detectors::extract_features(
      series, detectors::standard_configurations(ctx), boundary);
  const std::vector<std::vector<double>> streamed = stream();
  EXPECT_EQ(batch.num_quarantined(), 0u);

  std::size_t struck = 0;
  for (std::size_t f = 0; f < clean_batch.num_features(); ++f) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = util::fault_key(f, i) ^ boundary.key_salt;
      if (util::fault_fires(util::faults::kDetectorThrow, key)) {
        ++struck;
        EXPECT_EQ(batch.columns[f][i], 0.0);
        EXPECT_EQ(streamed[i][f], 0.0);
        continue;
      }
      mismatches += batch.columns[f][i] != clean_batch.columns[f][i] ? 1 : 0;
      mismatches += streamed[i][f] != clean_stream[i][f] ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << clean_batch.feature_names[f];
  }
  EXPECT_GT(struck, n);  // ~5% of 133 columns x n points
}

// The 20 seasonal configurations of a bank share one slot store
// (detectors/seasonal_detectors.hpp). With quarantine after the first
// failure, a struck column is neutral from its first struck point on, and
// every column never struck — seasonal ones included, whose store is
// still fed by its live readers — equals the clean run bit for bit,
// streaming and batch alike.
TEST(DetectorBoundary, QuarantineLeavesTheSharedSlotStoreAdvancing) {
  util::clear_fault_plan();
  const detectors::SeriesContext ctx{24, 168};
  const std::size_t n = 6 * ctx.points_per_week;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    values[i] = 100.0 + 20.0 * std::sin(t * 0.2618) +
                5.0 * std::sin(t * 0.0374) + 3.0 * std::cos(t * 1.7);
  }
  const ts::TimeSeries series("quarantine", 1700000000, 3600, values);
  detectors::FaultBoundary boundary;
  boundary.quarantine_after = 1;
  boundary.key_salt = 0x5eed;

  const auto stream = [&] {
    detectors::StreamingExtractor extractor(
        detectors::standard_configurations(ctx), boundary);
    std::vector<std::vector<double>> rows;
    for (const double v : values) rows.push_back(extractor.feed(v));
    return rows;
  };
  const detectors::FeatureMatrix clean_batch = detectors::extract_features(
      series, detectors::standard_configurations(ctx), boundary);
  const std::vector<std::vector<double>> clean_stream = stream();

  util::FaultPlan plan;
  plan.seed = 41;
  plan.rates["detector.throw"] = 2e-4;
  const PlanGuard guard(plan);
  const detectors::FeatureMatrix batch = detectors::extract_features(
      series, detectors::standard_configurations(ctx), boundary);
  const std::vector<std::vector<double>> streamed = stream();

  std::size_t seasonal_struck = 0;
  std::size_t seasonal_live = 0;
  for (std::size_t f = 0; f < clean_batch.num_features(); ++f) {
    std::size_t first_strike = n;
    for (std::size_t i = 0; i < n && first_strike == n; ++i) {
      const std::uint64_t key = util::fault_key(f, i) ^ boundary.key_salt;
      if (util::fault_fires(util::faults::kDetectorThrow, key)) {
        first_strike = i;
      }
    }
    const std::string family =
        detectors::family_of(clean_batch.feature_names[f]);
    if (family == "tsd" || family == "tsd_mad" ||
        family == "historical_average" || family == "historical_mad") {
      ++(first_strike < n ? seasonal_struck : seasonal_live);
    }
    EXPECT_EQ(batch.quarantined[f] != 0, first_strike < n);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double batch_want =
          i < first_strike ? clean_batch.columns[f][i] : 0.0;
      const double stream_want =
          i < first_strike ? clean_stream[i][f] : 0.0;
      mismatches += batch.columns[f][i] != batch_want ? 1 : 0;
      mismatches += streamed[i][f] != stream_want ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << clean_batch.feature_names[f];
  }
  // The plan must strike some seasonal columns and spare others.
  EXPECT_GT(seasonal_struck, 0u);
  EXPECT_GT(seasonal_live, 0u);
}

// Three weeks of hourly points with dirt for the full bank: missing
// runs, a dead stretch, spikes and a level shift.
std::vector<double> dirty_hourly_values() {
  const std::size_t n = 3 * 168;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    values[i] = 100.0 + 20.0 * std::sin(t * 0.2618) +
                5.0 * std::sin(t * 0.0374) + 3.0 * std::cos(t * 1.7) +
                (i >= 400 ? 60.0 : 0.0);
  }
  for (std::size_t i = 50; i < 58; ++i) values[i] = kNan;
  for (std::size_t i = 200; i < 230; ++i) values[i] = 0.0;
  values[260] *= 40.0;
  values[330] = kNan;
  values[331] = -1e6;
  return values;
}

bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// Rows as StreamingExtractor::feed_into writes them.
std::vector<std::vector<double>> stream_rows(
    detectors::StreamingExtractor& extractor,
    const std::vector<double>& values) {
  std::vector<std::vector<double>> rows;
  std::vector<double> row(extractor.num_features());
  for (const double v : values) {
    extractor.feed_into(v, row);
    rows.push_back(row);
  }
  return rows;
}

std::size_t mismatched_bits(const std::vector<std::vector<double>>& a,
                            const std::vector<std::vector<double>>& b) {
  std::size_t mismatches = a.size() == b.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    for (std::size_t f = 0; f < a[i].size(); ++f) {
      mismatches += same_bits(a[i][f], b[i][f]) ? 0 : 1;
    }
  }
  return mismatches;
}

// feed_into's untimed path skips the warm-up mask once every detector is
// warm and computes no fault key without a plan; timing each family
// (obs::set_detailed_timing) must not change a bit. The timed run records
// exactly one observation per point in each of the 14 family histograms
// and in opprentice.extract.feed.us; the untimed run records none.
TEST(DetectorBoundary, TimedAndUntimedFeedAgreeBitForBit) {
  util::clear_fault_plan();
  const detectors::SeriesContext ctx{24, 168};
  const std::vector<double> values = dirty_hourly_values();
  std::vector<std::string> names{"opprentice.extract.feed.us"};
  for (const auto& detector : detectors::standard_configurations(ctx)) {
    const std::string name = "opprentice.extract.family." +
                             detectors::family_of(detector->name()) + ".us";
    if (name != names.back()) names.push_back(name);
  }
  ASSERT_EQ(names.size(), 1u + 14u);
  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const auto& name : names) out.push_back(obs::histogram(name).count());
    return out;
  };
  const bool was_timed = obs::detailed_timing_enabled();
  const auto run = [&](bool timed) {
    obs::set_detailed_timing(timed);
    detectors::StreamingExtractor extractor(
        detectors::standard_configurations(ctx));
    auto rows = stream_rows(extractor, values);
    obs::set_detailed_timing(was_timed);
    return rows;
  };
  const auto before = counts();
  const auto untimed = run(false);
  EXPECT_EQ(counts(), before);
  const auto timed = run(true);
  const auto after = counts();
  for (std::size_t h = 0; h < names.size(); ++h) {
    EXPECT_EQ(after[h] - before[h], values.size()) << names[h];
  }
  ASSERT_EQ(untimed.front().size(), 133u);
  EXPECT_EQ(mismatched_bits(untimed, timed), 0u);
}

// The fault boundary as it was before the injection key became lazy: the
// key of every column and point is computed up front and every warm-up is
// checked on every point. The oracle for StreamingExtractor's boundary.
class EagerBoundary {
 public:
  EagerBoundary(std::vector<detectors::DetectorPtr> detectors,
                const detectors::FaultBoundary& boundary)
      : detectors_(std::move(detectors)),
        boundary_(boundary),
        consecutive_(detectors_.size(), 0),
        quarantined_(detectors_.size(), 0) {}

  std::vector<double> feed(double value) {
    std::vector<double> row(detectors_.size());
    for (std::size_t f = 0; f < detectors_.size(); ++f) {
      const std::uint64_t key =
          util::fault_key(f, points_) ^ boundary_.key_salt;
      double severity = 0.0;
      if (quarantined_[f] == 0) {
        bool failed = false;
        try {
          severity = detectors_[f]->feed(value);
          if (util::inject_fault(util::faults::kDetectorThrow, key)) {
            throw util::InjectedFault("injected detector.throw");
          }
          if (util::inject_fault(util::faults::kDetectorNan, key)) {
            severity = kNan;
          }
        } catch (const std::exception&) {
          failed = true;
        }
        if (failed || !std::isfinite(severity)) {
          severity = 0.0;
          if (++consecutive_[f] >= boundary_.quarantine_after &&
              boundary_.quarantine_after > 0) {
            quarantined_[f] = 1;
            obs::flight_record("detector", "quarantine",
                               f ^ boundary_.key_salt,
                               "configuration=" + detectors_[f]->name());
          }
        } else {
          consecutive_[f] = 0;
        }
      }
      row[f] = points_ < detectors_[f]->warmup_points() ? 0.0 : severity;
    }
    ++points_;
    return row;
  }

  const std::vector<std::uint8_t>& quarantined() const {
    return quarantined_;
  }

 private:
  std::vector<detectors::DetectorPtr> detectors_;
  detectors::FaultBoundary boundary_;
  std::vector<std::size_t> consecutive_;
  std::vector<std::uint8_t> quarantined_;
  std::size_t points_ = 0;
};

// Under an armed detector.throw/detector.nan plan, the key the extractor
// computes only when the plan is armed gives the same injections, the
// same quarantines and the same flight dump as the eager key.
TEST(DetectorBoundary, LazyFaultKeyMatchesEagerKey) {
  const detectors::SeriesContext ctx{24, 168};
  const std::vector<double> values = dirty_hourly_values();
  detectors::FaultBoundary boundary;
  boundary.quarantine_after = 2;
  boundary.key_salt = 0xfeed;
  util::FaultPlan plan;
  plan.seed = 53;
  plan.rates["detector.throw"] = 0.03;
  plan.rates["detector.nan"] = 0.03;
  const PlanGuard guard(plan);
  auto& recorder = obs::FlightRecorder::instance();

  recorder.clear();
  const std::uint64_t injected_before =
      counter_value("opprentice.faults.injected");
  detectors::StreamingExtractor lazy(detectors::standard_configurations(ctx),
                                     boundary);
  const auto lazy_rows = stream_rows(lazy, values);
  const std::uint64_t lazy_injected =
      counter_value("opprentice.faults.injected") - injected_before;
  const std::string lazy_dump = recorder.dump_json();
  EXPECT_EQ(recorder.dropped_count(), 0u);

  recorder.clear();
  const std::uint64_t eager_before =
      counter_value("opprentice.faults.injected");
  EagerBoundary eager(detectors::standard_configurations(ctx), boundary);
  std::vector<std::vector<double>> eager_rows;
  for (const double v : values) eager_rows.push_back(eager.feed(v));
  const std::uint64_t eager_injected =
      counter_value("opprentice.faults.injected") - eager_before;
  const std::string eager_dump = recorder.dump_json();
  recorder.clear();

  EXPECT_EQ(mismatched_bits(lazy_rows, eager_rows), 0u);
  EXPECT_EQ(lazy.quarantined(), eager.quarantined());
  EXPECT_EQ(lazy_injected, eager_injected);
  EXPECT_EQ(lazy_dump, eager_dump);
  // The plan must inject, and quarantine some columns but not all.
  const auto& quarantined = lazy.quarantined();
  const auto tripped = static_cast<std::size_t>(
      std::count(quarantined.begin(), quarantined.end(), 1));
  EXPECT_GT(lazy_injected, 0u);
  EXPECT_GT(tripped, 0u);
  EXPECT_LT(tripped, quarantined.size());
  EXPECT_NE(lazy_dump.find("\"quarantine\""), std::string::npos);
}

// ---- end-to-end: the weekly driver under fire ----------------------------

TEST(ChaosPipeline, WeeklyDriverSurvivesDetectorAndForestFaults) {
  util::FaultPlan plan;
  plan.seed = 777;
  plan.rates["detector.throw"] = 0.02;
  plan.rates["detector.nan"] = 0.02;
  plan.rates["forest.train"] = 0.5;
  const PlanGuard guard(plan);

  datagen::KpiPreset preset = datagen::pv_preset(datagen::Scale::kSmall);
  preset.model.weeks = 4;
  const auto injected_before = counter_value("opprentice.faults.injected");
  const core::ExperimentData data = core::prepare_experiment(
      datagen::generate_kpi(preset.model, preset.injection));

  core::DriverOptions opt;
  opt.initial_weeks = 2;
  opt.forest.num_trees = 12;
  opt.forest.seed = 42;

  const auto run = core::run_weekly_incremental(
      data.dataset, data.points_per_week, data.warmup, opt);
  ASSERT_FALSE(run.weeks.empty());
  // Degraded-but-finite: a failed week's scores stay NaN (its decisions
  // are 0), but nothing is infinite and nothing aborted the run.
  for (const double s : run.scores) {
    EXPECT_FALSE(std::isinf(s));
  }
  const auto decisions = core::decisions_from_weekly_cthlds(
      run, std::vector<double>(run.weeks.size(), 0.5));
  EXPECT_EQ(decisions.size(), run.scores.size());
  EXPECT_GT(counter_value("opprentice.faults.injected") - injected_before,
            0u);

  // The faulted run itself is deterministic: same plan, same output.
  const auto rerun = core::run_weekly_incremental(
      data.dataset, data.points_per_week, data.warmup, opt);
  ASSERT_EQ(rerun.scores.size(), run.scores.size());
  for (std::size_t i = 0; i < run.scores.size(); ++i) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &run.scores[i], sizeof(a));
    std::memcpy(&b, &rerun.scores[i], sizeof(b));
    EXPECT_EQ(a, b) << "row " << i;
  }
}

TEST(ChaosPipeline, WeeklyDriverSurvivesIngestFaults) {
  // Dirty the stream itself, repair it, and run the full pipeline on the
  // repaired grid with synthetic labels.
  datagen::KpiPreset preset = datagen::pv_preset(datagen::Scale::kSmall);
  preset.model.weeks = 3;
  const ts::TimeSeries original =
      datagen::generate_kpi(preset.model, preset.injection).series;

  std::vector<ts::RawPoint> points;
  points.reserve(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    points.push_back({original.timestamp(i), original[i]});
  }
  {
    util::FaultPlan plan;
    plan.seed = 31337;
    plan.rates["ingest.gap"] = 0.02;
    plan.rates["ingest.nan"] = 0.02;
    plan.rates["ingest.duplicate"] = 0.01;
    plan.rates["ingest.disorder"] = 0.01;
    const PlanGuard guard(plan);
    ts::inject_ingest_faults(points);
  }  // detector/forest run fault-free: this test isolates ingest damage

  const auto repaired = ts::repair_series(
      "ingest-chaos", std::move(points), 0, ts::RepairPolicy::kFillInterpolate);
  EXPECT_GT(repaired.report.total(), 0u);
  ASSERT_GE(repaired.series.size(), 2u * repaired.series.points_per_week());

  // Synthetic labels: one window per week on the repaired grid.
  ts::LabelSet labels;
  const std::size_t ppw = repaired.series.points_per_week();
  for (std::size_t begin = 100; begin + 30 < repaired.series.size();
       begin += ppw) {
    labels.add_window({begin, begin + 30});
  }
  const ml::Dataset dataset = core::build_dataset(repaired.series, labels);

  core::DriverOptions opt;
  opt.initial_weeks = 2;
  opt.forest.num_trees = 12;
  opt.forest.seed = 42;
  const auto run = core::run_weekly_incremental(dataset, ppw, ppw, opt);
  ASSERT_FALSE(run.weeks.empty());
  for (const double s : run.scores) {
    EXPECT_FALSE(std::isinf(s));
  }
}

// ---- fleet-level ingest defects (DESIGN.md §5i) --------------------------

// Three series fed interleaved dirty chunks through one engine, each
// carrying exactly one handcrafted defect class: repairs must be
// attributed to the right series id, in the per-series totals, the
// global counters, and the flight-recorder details.
TEST(ChaosFleet, InterleavedIngestAttributesRepairsPerSeries) {
  constexpr std::int64_t kStart = 1700000000;
  constexpr std::int64_t kInterval = 600;
  auto at = [&](std::size_t slot) {
    return kStart + static_cast<std::int64_t>(slot) * kInterval;
  };
  auto value_at = [](std::size_t slot) {
    return 10.0 + std::sin(static_cast<double>(slot) * 0.1);
  };

  // Four 8-slot chunks per series. A drops one interior slot in chunks
  // 0-2 (3 gaps), B repeats one slot in chunks 0-1 (2 duplicates), C
  // swaps one adjacent pair in chunks 1-2 (2 out-of-order points).
  auto chunk_for = [&](char series, std::size_t chunk) {
    std::vector<ts::RawPoint> points;
    const std::size_t begin = 8 * chunk;
    for (std::size_t slot = begin; slot < begin + 8; ++slot) {
      points.push_back({at(slot), value_at(slot)});
    }
    if (series == 'A' && chunk < 3) {
      points.erase(points.begin() + 5);  // slots 5, 13, 21 go missing
    }
    if (series == 'B' && chunk < 2) {
      points.insert(points.begin() + 5, points[4]);  // slots 4, 12 repeat
    }
    if (series == 'C' && chunk >= 1 && chunk < 3) {
      std::swap(points[2], points[3]);  // slots 10/11 and 18/19 swap
    }
    return points;
  };

  const std::uint64_t gaps_before = counter_value("opprentice.ingest.gaps");
  const std::uint64_t dups_before =
      counter_value("opprentice.ingest.duplicates");
  const std::uint64_t disorder_before =
      counter_value("opprentice.ingest.out_of_order");

  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  core::FleetEngine engine(options);
  const auto a = engine.add_series("fleet-gappy");
  const auto b = engine.add_series("fleet-doubled");
  const auto c = engine.add_series("fleet-shuffled");

  for (std::size_t chunk = 0; chunk < 4; ++chunk) {
    engine.ingest_raw("fleet-gappy", chunk_for('A', chunk), kInterval,
                      ts::RepairPolicy::kFillInterpolate);
    engine.ingest_raw("fleet-doubled", chunk_for('B', chunk), kInterval,
                      ts::RepairPolicy::kFillInterpolate);
    engine.ingest_raw("fleet-shuffled", chunk_for('C', chunk), kInterval,
                      ts::RepairPolicy::kFillInterpolate);
  }

  const auto stats_a = engine.stats(a);
  EXPECT_EQ(stats_a.repairs.gaps, 3u);
  EXPECT_EQ(stats_a.repairs.duplicates, 0u);
  EXPECT_EQ(stats_a.repairs.out_of_order, 0u);
  EXPECT_EQ(stats_a.points_seen, 32u) << "gap slots must be interpolated";

  const auto stats_b = engine.stats(b);
  EXPECT_EQ(stats_b.repairs.duplicates, 2u);
  EXPECT_EQ(stats_b.repairs.gaps, 0u);
  EXPECT_EQ(stats_b.repairs.out_of_order, 0u);
  EXPECT_EQ(stats_b.points_seen, 32u) << "duplicate slots must collapse";

  const auto stats_c = engine.stats(c);
  EXPECT_EQ(stats_c.repairs.out_of_order, 2u);
  EXPECT_EQ(stats_c.repairs.gaps, 0u);
  EXPECT_EQ(stats_c.repairs.duplicates, 0u);
  EXPECT_EQ(stats_c.points_seen, 32u);

  // The global instruments carry exactly the per-series sums.
  EXPECT_EQ(counter_value("opprentice.ingest.gaps"), gaps_before + 3);
  EXPECT_EQ(counter_value("opprentice.ingest.duplicates"), dups_before + 2);
  EXPECT_EQ(counter_value("opprentice.ingest.out_of_order"),
            disorder_before + 2);
}

// Per-call reports are this call's defects only; the per-series total
// accumulates across interleaved calls and survives clean chunks.
TEST(ChaosFleet, IngestReportIsPerCallAndTotalsAccumulate) {
  constexpr std::int64_t kInterval = 600;
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{16, 112};
  core::FleetEngine engine(options);
  const auto s = engine.add_series("fleet-mixed");

  // Chunk 1: one gap. Chunk 2: clean. Chunk 3: one duplicate.
  std::vector<ts::RawPoint> chunk1 = clean_points(8);
  chunk1.erase(chunk1.begin() + 3);
  std::vector<ts::RawPoint> chunk2 = clean_points(8, kInterval,
                                                  1700000000 + 8 * kInterval);
  std::vector<ts::RawPoint> chunk3 = clean_points(8, kInterval,
                                                  1700000000 + 16 * kInterval);
  chunk3.insert(chunk3.begin() + 2, chunk3[1]);

  const auto report1 =
      engine.ingest_raw("fleet-mixed", std::move(chunk1), kInterval,
                        ts::RepairPolicy::kFillInterpolate);
  EXPECT_EQ(report1.repairs.gaps, 1u);
  EXPECT_EQ(report1.repairs.duplicates, 0u);

  const auto report2 =
      engine.ingest_raw("fleet-mixed", std::move(chunk2), kInterval,
                        ts::RepairPolicy::kFillInterpolate);
  EXPECT_EQ(report2.repairs.total(), 0u) << "clean chunks must report nothing";

  const auto report3 =
      engine.ingest_raw("fleet-mixed", std::move(chunk3), kInterval,
                        ts::RepairPolicy::kFillInterpolate);
  EXPECT_EQ(report3.repairs.duplicates, 1u);
  EXPECT_EQ(report3.repairs.gaps, 0u);

  const auto stats = engine.stats(s);
  EXPECT_EQ(stats.repairs.gaps, 1u);
  EXPECT_EQ(stats.repairs.duplicates, 1u);
  EXPECT_EQ(stats.points_seen, 24u);
}

}  // namespace
