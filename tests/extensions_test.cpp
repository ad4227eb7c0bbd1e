// Tests for the extension features: model serialization, mRMR feature
// selection, the duration filter, cross-KPI severity normalization, and
// the extension detector families (CUSUM, Holt).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "core/duration_filter.hpp"
#include "core/transfer.hpp"
#include "detectors/basic_detectors.hpp"
#include "detectors/extra_detectors.hpp"
#include "ml/feature_selection.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;

ml::Dataset blobs(std::size_t n, double separation, std::uint64_t seed = 1,
                  std::size_t noise_features = 1) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> cols(1 + noise_features);
  std::vector<std::uint8_t> labels(n);
  std::vector<std::string> names{"signal"};
  for (std::size_t f = 0; f < noise_features; ++f) {
    names.push_back("noise " + std::to_string(f));  // space: tests encoding
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < 0.3;
    labels[i] = anomaly;
    cols[0].push_back(rng.normal(anomaly ? separation : 0.0, 1.0));
    for (std::size_t f = 0; f < noise_features; ++f) {
      cols[1 + f].push_back(rng.normal(0.0, 1.0));
    }
  }
  return ml::Dataset(std::move(names), std::move(cols), std::move(labels));
}

// ---- serialization ----

TEST(Serialize, RoundTripPreservesScores) {
  const ml::Dataset train = blobs(800, 3.0);
  const ml::Dataset test = blobs(200, 3.0, 9);
  ml::ForestOptions opts;
  opts.num_trees = 12;
  ml::RandomForest forest(opts);
  forest.train(train);

  std::stringstream buffer;
  ml::save_forest(buffer, forest, train.feature_names());
  const ml::LoadedForest loaded = ml::load_forest(buffer);

  EXPECT_EQ(loaded.feature_names, train.feature_names());
  EXPECT_EQ(loaded.forest.tree_count(), forest.tree_count());
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.forest.score(test.row(i)),
                     forest.score(test.row(i)));
  }
}

TEST(Serialize, FeatureNamesWithSpacesSurvive) {
  const ml::Dataset train = blobs(200, 2.0, 1, 2);
  ml::RandomForest forest;
  forest.train(train);
  std::stringstream buffer;
  ml::save_forest(buffer, forest, train.feature_names());
  const auto loaded = ml::load_forest(buffer);
  EXPECT_EQ(loaded.feature_names[1], "noise 0");
}

TEST(Serialize, UntrainedForestThrows) {
  ml::RandomForest forest;
  std::stringstream buffer;
  EXPECT_THROW(ml::save_forest(buffer, forest, {}), std::logic_error);
}

TEST(Serialize, GarbageInputThrows) {
  std::stringstream buffer("not a forest at all");
  EXPECT_THROW(ml::load_forest(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedInputThrows) {
  const ml::Dataset train = blobs(100, 2.0);
  ml::RandomForest forest;
  forest.train(train);
  std::stringstream buffer;
  ml::save_forest(buffer, forest, train.feature_names());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(ml::load_forest(truncated), std::runtime_error);
}

TEST(Serialize, VersionMismatchThrows) {
  std::stringstream buffer("opprentice-forest v999\ntrees 0 features 0\n");
  EXPECT_THROW(ml::load_forest(buffer), std::runtime_error);
}

// One tree over features a, b: a <= 1.5 goes to the next node (fraction
// 0), NaN included, and a > 1.5 to the node two on (fraction 1).
std::string forest_text(const std::string& nodes, std::size_t count = 3,
                        const std::string& version = "v2") {
  return "opprentice-forest " + version +
         "\ntrees 1 features 2\nnames a b\ntree " + std::to_string(count) +
         "\n" + nodes;
}

const std::string kValidNodes = "0 1.5 2\n-1 0 0\n-1 1 0\n";

TEST(Serialize, HandWrittenTreeLoadsAndScores) {
  std::stringstream buffer(forest_text(kValidNodes));
  const ml::LoadedForest loaded = ml::load_forest(buffer);
  EXPECT_EQ(loaded.forest.score(std::vector<double>{1.0, 0.0}), 0.0);
  EXPECT_EQ(loaded.forest.score(std::vector<double>{2.0, 0.0}), 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(loaded.forest.score(std::vector<double>{nan, 0.0}), 0.0);
}

TEST(Serialize, VersionOneIsRefused) {
  std::stringstream buffer(forest_text(kValidNodes, 3, "v1"));
  EXPECT_THROW(ml::load_forest(buffer), std::runtime_error);
}

// Trees a walk could leave (reading out of bounds) or never finish.
TEST(Serialize, MalformedTreesAreRefused) {
  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"self-loop", forest_text("0 1.5 0\n-1 1 0\n-1 0 0\n")},
      {"right child is the left child",
       forest_text("0 1.5 1\n-1 1 0\n-1 0 0\n")},
      {"backward offset", forest_text("0 1.5 2\n1 0.5 -1\n-1 0 0\n")},
      {"negative offset", forest_text("0 1.5 -7\n-1 1 0\n-1 0 0\n")},
      {"offset past the tree", forest_text("0 1.5 3\n-1 1 0\n-1 0 0\n")},
      {"internal last node", forest_text("-1 1 0\n-1 0 0\n0 1.5 2\n")},
      {"feature past the count", forest_text("2 1.5 2\n-1 1 0\n-1 0 0\n")},
      {"truncated tree", forest_text("0 1.5 2\n-1 1 0\n")},
      {"empty tree", forest_text("", 0)},
      {"malformed value", forest_text("0 1.5x 2\n-1 1 0\n-1 0 0\n")},
  };
  for (const auto& c : cases) {
    std::stringstream buffer(c.text);
    EXPECT_THROW(ml::load_forest(buffer), std::runtime_error) << c.what;
  }
}

// ---- mRMR ----

TEST(Mrmr, FirstPickIsMostRelevant) {
  const ml::Dataset d = blobs(2000, 3.0, 1, 4);
  const auto selected = ml::mrmr_select(d, 3);
  ASSERT_GE(selected.size(), 1u);
  EXPECT_EQ(selected[0], 0u);  // the signal feature
}

TEST(Mrmr, PenalizesRedundantCopies) {
  // signal + exact copy of signal + independent weak feature: mRMR should
  // prefer the weak-but-novel feature over the redundant copy for pick 2.
  util::Rng rng(5);
  const std::size_t n = 3000;
  std::vector<std::vector<double>> cols(3);
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < 0.3;
    labels[i] = anomaly;
    const double signal = rng.normal(anomaly ? 3.0 : 0.0, 1.0);
    cols[0].push_back(signal);
    cols[1].push_back(signal);  // perfect copy: zero new information
    cols[2].push_back(rng.normal(anomaly ? 0.8 : 0.0, 1.0));  // weak, novel
  }
  const ml::Dataset d({"signal", "copy", "weak"}, std::move(cols),
                      std::move(labels));
  const auto selected = ml::mrmr_select(d, 2);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[1], 2u) << "mRMR must prefer the novel feature";
}

TEST(Mrmr, ClampsKAndKeepsOrderUnique) {
  const ml::Dataset d = blobs(500, 2.0, 1, 3);
  const auto selected = ml::mrmr_select(d, 100);
  EXPECT_EQ(selected.size(), 4u);
  std::set<std::size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), selected.size());
}

TEST(Mrmr, FeatureMiSymmetricAndNonNegative) {
  util::Rng rng(7);
  // Large sample: the plug-in MI estimator has a positive finite-sample
  // bias of about (bins-1)^2 / (2n).
  std::vector<double> a(20000), b(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = 0.7 * a[i] + 0.3 * rng.normal();
  }
  const double ab = ml::feature_mutual_information(a, b);
  const double ba = ml::feature_mutual_information(b, a);
  EXPECT_GT(ab, 0.1);
  EXPECT_NEAR(ab, ba, 0.05);
  // Independent features: near-zero MI.
  std::vector<double> c(20000);
  for (auto& v : c) v = rng.normal();
  EXPECT_LT(ml::feature_mutual_information(a, c), 0.05);
}

// ---- duration filter ----

TEST(DurationFilterTest, FiresOnceWhenRunReachesMin) {
  core::DurationFilter filter({.min_run = 3, .merge_gap = 0});
  EXPECT_FALSE(filter.feed(true));
  EXPECT_FALSE(filter.feed(true));
  EXPECT_TRUE(filter.feed(true));    // run hits 3: alarm
  EXPECT_FALSE(filter.feed(true));   // still the same incident: no re-alarm
  EXPECT_TRUE(filter.in_incident());
}

TEST(DurationFilterTest, NormalPointResetsRun) {
  core::DurationFilter filter({.min_run = 3, .merge_gap = 0});
  filter.feed(true);
  filter.feed(true);
  filter.feed(false);
  EXPECT_EQ(filter.current_run(), 0u);
  EXPECT_FALSE(filter.feed(true));
  EXPECT_FALSE(filter.feed(true));
  EXPECT_TRUE(filter.feed(true));
}

TEST(DurationFilterTest, MergeGapBridgesFlicker) {
  core::DurationFilter filter({.min_run = 4, .merge_gap = 1});
  filter.feed(true);
  filter.feed(true);
  EXPECT_FALSE(filter.feed(false));  // bridged
  EXPECT_TRUE(filter.feed(true));    // run = 2 + gap 1 + 1 = 4: alarm
}

TEST(DurationFilterTest, LongGapStillResets) {
  core::DurationFilter filter({.min_run = 3, .merge_gap = 1});
  filter.feed(true);
  filter.feed(true);
  filter.feed(false);
  filter.feed(false);  // gap exceeds merge_gap: reset
  EXPECT_EQ(filter.current_run(), 0u);
}

TEST(DurationFilterTest, MinRunOneAlarmsImmediately) {
  core::DurationFilter filter({.min_run = 1});
  EXPECT_TRUE(filter.feed(true));
  EXPECT_FALSE(filter.feed(true));
}

TEST(DurationFilterTest, ResetClearsState) {
  core::DurationFilter filter({.min_run = 2});
  filter.feed(true);
  filter.reset();
  EXPECT_FALSE(filter.feed(true));
  EXPECT_TRUE(filter.feed(true));
}

// ---- cross-KPI severity normalization ----

TEST(Transfer, NormalizedScalesAreComparable) {
  // Same-shape severities at 100x different scales normalize to the same
  // range.
  util::Rng rng(11);
  std::vector<double> small(1000), large(1000);
  for (std::size_t i = 0; i < small.size(); ++i) {
    const double s = std::abs(rng.normal());
    small[i] = s;
    large[i] = 100.0 * s;
  }
  const ml::Dataset ref({"sev"}, {small}, std::vector<std::uint8_t>(1000, 0));
  const ml::Dataset other({"sev"}, {large},
                          std::vector<std::uint8_t>(1000, 0));
  core::SeverityNormalizer norm_small, norm_large;
  norm_small.fit(ref);
  norm_large.fit(other);
  const auto a = norm_small.transform(ref);
  const auto b = norm_large.transform(other);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(a.value(i, 0), b.value(i, 0), 1e-9);
  }
}

TEST(Transfer, ClassifierTransfersAcrossScales) {
  // Train on KPI A; detect on KPI B = same generator at 50x scale.
  // With normalization the forest transfers; without, severities are off
  // the training distribution's scale entirely.
  const ml::Dataset a = blobs(3000, 4.0, 21, 1);
  // B: same distribution scaled by 50.
  std::vector<std::vector<double>> cols;
  for (std::size_t f = 0; f < a.num_features(); ++f) {
    std::vector<double> col(a.column(f).begin(), a.column(f).end());
    for (double& v : col) v *= 50.0;
    cols.push_back(std::move(col));
  }
  const ml::Dataset b(a.feature_names(), std::move(cols), a.labels());

  core::SeverityNormalizer norm_a, norm_b;
  norm_a.fit(a);
  norm_b.fit(b);

  ml::ForestOptions opts;
  opts.num_trees = 12;
  ml::RandomForest forest(opts);
  forest.train(norm_a.transform(a));

  const auto scores = forest.score_all(norm_b.transform(b));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < b.num_rows(); ++i) {
    correct += (scores[i] >= 0.5) == (b.label(i) != 0);
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(b.num_rows()),
            0.9);
}

TEST(Transfer, UnfittedThrows) {
  core::SeverityNormalizer norm;
  EXPECT_THROW(norm.transform(blobs(10, 1.0)), std::logic_error);
}

TEST(Transfer, FeatureCountMismatchThrows) {
  core::SeverityNormalizer norm;
  norm.fit(blobs(100, 1.0, 1, 1));
  EXPECT_THROW(norm.transform(blobs(10, 1.0, 1, 3)), std::logic_error);
}

// ---- extension detectors ----

TEST(Cusum, AccumulatesSustainedSmallShift) {
  detectors::CusumDetector cusum(0.5, 50);
  util::Rng rng(13);
  // Baseline noise, then a sustained +1.5-sigma shift.
  double before = 0.0, after = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double shift = i >= 200 ? 1.5 : 0.0;
    const double sev = cusum.feed(rng.normal(10.0 + shift, 1.0));
    if (i == 199) before = sev;
    if (i == 240) after = sev;
  }
  EXPECT_GT(after, before + 10.0);  // evidence accumulates over the shift
}

TEST(Cusum, DownwardShiftAlsoDetected) {
  detectors::CusumDetector cusum(0.5, 50);
  util::Rng rng(17);
  // Measure while the rolling baseline is still mostly pre-shift: CUSUM
  // evidence decays again once the baseline has absorbed the new level.
  double after = 0.0;
  for (int i = 0; i < 240; ++i) {
    const double shift = i >= 200 ? -1.5 : 0.0;
    const double sev = cusum.feed(rng.normal(10.0 + shift, 1.0));
    if (i == 235) after = sev;
  }
  EXPECT_GT(after, 10.0);
}

TEST(Holt, TracksLinearTrendUnlikeEwma) {
  detectors::HoltDetector holt(0.5, 0.3);
  detectors::EwmaDetector ewma(0.5);
  // Clean linear ramp: Holt's trend term learns it; EWMA always lags.
  double holt_sev = 0.0, ewma_sev = 0.0;
  for (int i = 0; i < 200; ++i) {
    holt_sev = holt.feed(10.0 + 2.0 * i);
    ewma_sev = ewma.feed(10.0 + 2.0 * i);
  }
  EXPECT_LT(holt_sev, 0.1);
  EXPECT_GT(ewma_sev, 1.0);
}

TEST(ExtensionFamilies, RegisterIntoRegistry) {
  auto registry = detectors::DetectorRegistry::with_standard_families();
  detectors::register_extension_families(registry);
  EXPECT_EQ(registry.family_count(), 16u);
  const auto all =
      registry.instantiate_all(detectors::SeriesContext{24, 168});
  EXPECT_EQ(all.size(), 133u + 3u + 4u);
}

TEST(ExtensionFamilies, ExtensionDetectorsHonorContract) {
  auto registry = detectors::DetectorRegistry::with_standard_families();
  detectors::register_extension_families(registry);
  util::Rng rng(19);
  for (const char* family : {"cusum", "holt"}) {
    for (auto& d :
         registry.instantiate_family(family, {24, 168})) {
      std::vector<double> first;
      for (int i = 0; i < 300; ++i) {
        const double v =
            i == 150 ? std::nan("") : rng.normal(100.0, 5.0);
        const double sev = d->feed(v);
        EXPECT_GE(sev, 0.0) << d->name();
        EXPECT_TRUE(std::isfinite(sev)) << d->name();
        first.push_back(sev);
      }
      d->reset();
      rng.reseed(19);  // replay identical input
      for (int i = 0; i < 300; ++i) {
        const double v =
            i == 150 ? std::nan("") : rng.normal(100.0, 5.0);
        EXPECT_DOUBLE_EQ(d->feed(v), first[static_cast<std::size_t>(i)])
            << d->name();
      }
      rng.reseed(19);
    }
  }
}

}  // namespace
