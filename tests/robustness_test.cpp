// Robustness & property tests:
//  - §6 "Dirty data": (a) recent-window detectors recover quickly from
//    missing/corrupt points, (b) MAD variants beat mean/std variants under
//    contamination, (c) the forest survives a few contaminated features.
//  - ROC curves and footnote 3's PR-vs-ROC imbalance claim.
//  - Invariance properties: AUCPR under monotone score transforms, the
//    forest under per-feature monotone transforms (a consequence of
//    quantile binning), confusion-count identities.
//  - Failure injection: constant series, all-missing series, single-class
//    training, NaNs at prediction time.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "detectors/basic_detectors.hpp"
#include "detectors/registry.hpp"
#include "detectors/seasonal_detectors.hpp"
#include "eval/pr_curve.hpp"
#include "eval/roc_curve.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

detectors::SeriesContext small_ctx() {
  return {24, 168};
}

std::vector<double> periodic(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = 100.0 +
            30.0 * std::sin(2 * 3.14159265 *
                            static_cast<double>(i % 24) / 24.0) +
            rng.normal(0.0, 1.0);
  }
  return xs;
}

// ---- §6(a): recovery from dirty data ----

TEST(DirtyData, RecentWindowDetectorsRecoverQuickly) {
  // After a block of missing data, severity estimates must return to the
  // clean baseline within roughly one window length.
  detectors::WeightedMaDetector clean(10), dirty(10);
  const auto xs = periodic(500);
  std::vector<double> clean_sev, dirty_sev;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    clean_sev.push_back(clean.feed(xs[i]));
    const bool missing = i >= 200 && i < 215;
    dirty_sev.push_back(dirty.feed(missing ? kNaN : xs[i]));
  }
  // 30 points after the gap (3 window lengths), severities agree again.
  for (std::size_t i = 260; i < 300; ++i) {
    EXPECT_NEAR(dirty_sev[i], clean_sev[i], 2.0) << "at " << i;
  }
}

TEST(DirtyData, AllDetectorsSurviveLongMissingBlock) {
  for (auto& d : detectors::standard_configurations(small_ctx())) {
    const auto xs = periodic(3 * 168);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // A two-day outage in week 2.
      const std::size_t outage_begin = 168 * 3 / 2;
      const bool missing = i >= outage_begin && i < outage_begin + 48;
      const double sev = d->feed(missing ? kNaN : xs[i]);
      EXPECT_TRUE(std::isfinite(sev)) << d->name() << " at " << i;
    }
  }
}

// ---- §6(b): MAD variants are more robust ----

TEST(DirtyData, MadVariantMoreRobustToContamination) {
  // Corrupt one historical day with extreme values. The mean/std baseline
  // absorbs the garbage into an enormous sigma, squashing all later
  // severities — it would MISS a genuine anomaly. The median/MAD variant
  // ignores the outliers and still flags the anomaly loudly.
  const auto ctx = small_ctx();
  detectors::HistoricalAverageDetector mean_based(3, ctx);
  detectors::HistoricalMadDetector mad_based(3, ctx);
  auto xs = periodic(6 * 168);
  for (std::size_t i = 3 * 168; i < 3 * 168 + 24; ++i) {
    xs[i] = 100000.0;  // a day of garbage (e.g. a broken exporter)
  }
  const std::size_t probe = 4 * 168 + 12;
  xs[probe] *= 1.5;  // a genuine anomaly after the dirty day
  double sev_mean = 0.0, sev_mad = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double a = mean_based.feed(xs[i]);
    const double b = mad_based.feed(xs[i]);
    if (i == probe) {
      sev_mean = a;
      sev_mad = b;
    }
  }
  EXPECT_GT(sev_mad, 5.0);             // clearly flagged
  EXPECT_LT(sev_mean, sev_mad / 3.0);  // suppressed by the dirty sigma
}

// ---- §6(c): the ensemble survives contaminated features ----

TEST(DirtyData, ForestSurvivesContaminatedFeatureColumns) {
  util::Rng rng(3);
  const std::size_t n = 3000;
  std::vector<std::vector<double>> cols(10);
  std::vector<std::uint8_t> labels(n);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < 10; ++f) {
    // Appended, not "f" + std::to_string(f): GCC 12 at -O3 flags that
    // operator+'s insert with a false -Wrestrict.
    names.push_back(std::string("f").append(std::to_string(f)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < 0.1;
    labels[i] = anomaly;
    // Features 0-6 carry signal; 7-9 will be contaminated.
    for (std::size_t f = 0; f < 7; ++f) {
      cols[f].push_back(rng.normal(anomaly ? 3.0 : 0.0, 1.0));
    }
    for (std::size_t f = 7; f < 10; ++f) {
      cols[f].push_back(rng.normal(anomaly ? 3.0 : 0.0, 1.0));
    }
  }
  ml::Dataset clean(names, cols, labels);
  // Contaminate: three columns become garbage in train AND test.
  for (std::size_t f = 7; f < 10; ++f) {
    for (auto& v : cols[f]) v = rng.uniform(-1e6, 1e6);
  }
  ml::Dataset contaminated(names, cols, labels);

  ml::ForestOptions opts;
  opts.num_trees = 16;
  ml::RandomForest on_clean(opts), on_dirty(opts);
  on_clean.train(clean.slice(0, 2000));
  on_dirty.train(contaminated.slice(0, 2000));

  const auto test_clean = clean.slice(2000, n);
  const auto test_dirty = contaminated.slice(2000, n);
  const double aucpr_clean =
      eval::PrCurve(on_clean.score_all(test_clean), test_clean.labels())
          .aucpr();
  const double aucpr_dirty =
      eval::PrCurve(on_dirty.score_all(test_dirty), test_dirty.labels())
          .aucpr();
  EXPECT_GT(aucpr_dirty, aucpr_clean - 0.1);  // barely hurt
}

// ---- ROC curves ----

TEST(Roc, PerfectRankingAurocIsOne) {
  const std::vector<double> scores{0.9, 0.8, 0.2, 0.1};
  const std::vector<std::uint8_t> truth{1, 1, 0, 0};
  EXPECT_NEAR(eval::RocCurve(scores, truth).auroc(), 1.0, 1e-9);
}

TEST(Roc, RandomScoresAurocNearHalf) {
  util::Rng rng(7);
  const std::size_t n = 20000;
  std::vector<double> scores(n);
  std::vector<std::uint8_t> truth(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = rng.uniform();
    truth[i] = rng.uniform() < 0.2;
  }
  EXPECT_NEAR(eval::RocCurve(scores, truth).auroc(), 0.5, 0.02);
}

TEST(Roc, SingleClassIsEmpty) {
  const std::vector<double> scores{0.9, 0.1};
  EXPECT_TRUE(
      eval::RocCurve(scores, std::vector<std::uint8_t>{1, 1}).empty());
  EXPECT_TRUE(
      eval::RocCurve(scores, std::vector<std::uint8_t>{0, 0}).empty());
}

TEST(Roc, TprMatchesRecall) {
  const std::vector<double> scores{0.9, 0.8, 0.7, 0.6, 0.5};
  const std::vector<std::uint8_t> truth{1, 0, 1, 1, 0};
  const eval::RocCurve roc(scores, truth);
  const eval::PrCurve pr(scores, truth);
  ASSERT_EQ(roc.points().size(), pr.points().size());
  for (std::size_t i = 0; i < roc.points().size(); ++i) {
    EXPECT_NEAR(roc.points()[i].true_positive_rate, pr.points()[i].recall,
                1e-12);
  }
}

TEST(Roc, Footnote3PrExposesImbalanceRocHides) {
  // Footnote 3: with heavy imbalance, ROC looks nearly perfect while the
  // PR curve exposes the flood of false alarms. Build a detector that
  // ranks all positives above 99% of negatives — but the 1% of negatives
  // it confuses outnumber the positives 10:1.
  util::Rng rng(11);
  const std::size_t n = 100000;
  std::vector<double> scores;
  std::vector<std::uint8_t> truth;
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < 0.001;  // 0.1% positives
    truth.push_back(anomaly);
    if (anomaly) {
      scores.push_back(rng.uniform(0.8, 1.0));
    } else if (rng.uniform() < 0.01) {
      scores.push_back(rng.uniform(0.8, 1.0));  // confused negatives
    } else {
      scores.push_back(rng.uniform(0.0, 0.5));
    }
  }
  const double auroc = eval::RocCurve(scores, truth).auroc();
  const double aucpr = eval::PrCurve(scores, truth).aucpr();
  EXPECT_GT(auroc, 0.95);  // looks excellent
  EXPECT_LT(aucpr, 0.3);   // is actually drowning in false alarms
}

// ---- invariance properties ----

TEST(Invariance, AucprInvariantUnderMonotoneScoreTransform) {
  util::Rng rng(13);
  std::vector<double> scores(5000);
  std::vector<std::uint8_t> truth(5000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    truth[i] = rng.uniform() < 0.1;
    scores[i] = rng.normal(truth[i] != 0 ? 1.0 : 0.0, 1.0);
  }
  const double base = eval::PrCurve(scores, truth).aucpr();
  std::vector<double> transformed(scores);
  for (double& s : transformed) s = std::exp(0.5 * s) + 3.0;
  EXPECT_NEAR(eval::PrCurve(transformed, truth).aucpr(), base, 1e-12);
}

TEST(Invariance, ForestInvariantUnderMonotoneFeatureTransform) {
  // Quantile binning only consumes the order of feature values, so a
  // strictly monotone per-feature transform applied to train AND test
  // leaves the forest's scores bit-identical (same seed).
  util::Rng rng(17);
  const std::size_t n = 2000;
  std::vector<std::vector<double>> cols(3);
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.uniform() < 0.2;
    for (auto& col : cols) {
      col.push_back(rng.normal(labels[i] != 0 ? 2.0 : 0.0, 1.0));
    }
  }
  const ml::Dataset original({"a", "b", "c"}, cols, labels);
  for (auto& col : cols) {
    for (double& v : col) v = std::atan(v) * 100.0 - 7.0;  // monotone
  }
  const ml::Dataset transformed({"a", "b", "c"}, cols, labels);

  ml::ForestOptions opts;
  opts.num_trees = 8;
  opts.seed = 99;
  ml::RandomForest f1(opts), f2(opts);
  f1.train(original.slice(0, 1500));
  f2.train(transformed.slice(0, 1500));
  for (std::size_t i = 1500; i < n; ++i) {
    EXPECT_DOUBLE_EQ(f1.score(original.row(i)), f2.score(transformed.row(i)))
        << "row " << i;
  }
}

TEST(Invariance, ConfusionCountsPartitionTheData) {
  util::Rng rng(19);
  std::vector<std::uint8_t> pred(1000), truth(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    pred[i] = rng.uniform() < 0.3;
    truth[i] = rng.uniform() < 0.2;
  }
  const auto c = eval::confusion(pred, truth);
  EXPECT_EQ(c.true_positives + c.false_positives + c.false_negatives +
                c.true_negatives,
            1000u);
  std::size_t actual_pos = 0;
  for (auto t : truth) actual_pos += t;
  EXPECT_EQ(c.actual_positives(), actual_pos);
}

TEST(Invariance, PrCurveFinalPointHasFullRecall) {
  util::Rng rng(23);
  std::vector<double> scores(500);
  std::vector<std::uint8_t> truth(500);
  for (std::size_t i = 0; i < 500; ++i) {
    scores[i] = rng.uniform();
    truth[i] = rng.uniform() < 0.3;
  }
  const eval::PrCurve curve(scores, truth);
  ASSERT_FALSE(curve.empty());
  EXPECT_DOUBLE_EQ(curve.points().back().recall, 1.0);
}

// ---- failure injection ----

TEST(FailureInjection, DetectorsOnConstantSeries) {
  for (auto& d : detectors::standard_configurations(small_ctx())) {
    for (int i = 0; i < 2 * 168; ++i) {
      const double sev = d->feed(42.0);
      EXPECT_TRUE(std::isfinite(sev)) << d->name();
      EXPECT_GE(sev, 0.0) << d->name();
    }
  }
}

TEST(FailureInjection, DetectorsOnAllMissingSeries) {
  for (auto& d : detectors::standard_configurations(small_ctx())) {
    for (int i = 0; i < 400; ++i) {
      EXPECT_EQ(d->feed(kNaN), 0.0) << d->name();
    }
  }
}

TEST(FailureInjection, ForestOnSingleClassTrainsAndScoresZero) {
  // All-normal training data: every tree is a pure "normal" leaf.
  ml::Dataset d({"f"}, {{1, 2, 3, 4, 5, 6, 7, 8}},
                std::vector<std::uint8_t>(8, 0));
  ml::RandomForest forest;
  forest.train(d);
  EXPECT_DOUBLE_EQ(forest.score(std::vector<double>{100.0}), 0.0);
}

TEST(FailureInjection, ForestScoresRowWithNaNFeature) {
  util::Rng rng(29);
  std::vector<std::vector<double>> cols(2);
  std::vector<std::uint8_t> labels(500);
  for (std::size_t i = 0; i < 500; ++i) {
    labels[i] = rng.uniform() < 0.3;
    cols[0].push_back(rng.normal(labels[i] != 0 ? 3.0 : 0.0, 1.0));
    cols[1].push_back(rng.normal());
  }
  ml::RandomForest forest;
  forest.train(ml::Dataset({"a", "b"}, cols, labels));
  // NaN goes left at every split, as training bins it lowest; the score
  // must still be a valid probability.
  const double s = forest.score(std::vector<double>{kNaN, 0.0});
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(FailureInjection, TinyTrainingSets) {
  ml::Dataset d({"f"}, {{1.0, 10.0}}, {0, 1});
  ml::RandomForest forest;
  forest.train(d);  // must not crash
  EXPECT_GE(forest.score(std::vector<double>{5.0}), 0.0);
}

}  // namespace
