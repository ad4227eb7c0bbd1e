// Unit tests for src/ml: dataset, binning, decision tree, random forest,
// linear baselines, naive Bayes, mutual information, k-fold.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/kfold.hpp"
#include "ml/linear_models.hpp"
#include "ml/mutual_information.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::ml;

// Two Gaussian blobs: feature 0 separates the classes, feature 1 is noise.
Dataset blobs(std::size_t n, double separation, std::uint64_t seed = 1,
              std::size_t noise_features = 1, double positive_rate = 0.5) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> cols(1 + noise_features);
  std::vector<std::uint8_t> labels(n);
  std::vector<std::string> names;
  names.emplace_back("signal");
  for (std::size_t f = 0; f < noise_features; ++f) {
    names.push_back("noise" + std::to_string(f));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool anomaly = rng.uniform() < positive_rate;
    labels[i] = anomaly ? 1 : 0;
    cols[0].push_back(rng.normal(anomaly ? separation : 0.0, 1.0));
    for (std::size_t f = 0; f < noise_features; ++f) {
      cols[1 + f].push_back(rng.normal(0.0, 1.0));
    }
  }
  return Dataset(std::move(names), std::move(cols), std::move(labels));
}

double accuracy(const BinaryClassifier& clf, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const bool predicted = clf.score(data.row(i)) >= 0.5;
    correct += predicted == (data.label(i) != 0);
  }
  return static_cast<double>(correct) / static_cast<double>(data.num_rows());
}

// ---- Dataset ----

TEST(Dataset, ShapeValidation) {
  EXPECT_THROW(Dataset({"a"}, {{1.0, 2.0}}, {0}), std::invalid_argument);
  EXPECT_THROW(Dataset({"a", "b"}, {{1.0}}, {0}), std::invalid_argument);
}

TEST(Dataset, SliceCopiesRowRange) {
  const Dataset d = blobs(100, 2.0);
  const Dataset head = d.slice(0, 60);
  const Dataset tail = d.slice(60, 100);
  ASSERT_EQ(head.num_rows(), 60u);
  ASSERT_EQ(tail.num_rows(), 40u);
  for (std::size_t i = 0; i < 100; ++i) {
    const Dataset& part = i < 60 ? head : tail;
    const std::size_t row = i < 60 ? i : i - 60;
    EXPECT_DOUBLE_EQ(part.value(row, 0), d.value(i, 0));
    EXPECT_EQ(part.label(row), d.label(i));
  }
}

TEST(Dataset, SelectFeaturesReorders) {
  const Dataset d = blobs(10, 2.0, 1, 2);
  const Dataset sel = d.select_features({2, 0});
  ASSERT_EQ(sel.num_features(), 2u);
  EXPECT_EQ(sel.feature_names()[0], "noise1");
  EXPECT_EQ(sel.feature_names()[1], "signal");
  EXPECT_DOUBLE_EQ(sel.value(3, 1), d.value(3, 0));
}

TEST(Dataset, SelectRowsPicksSubset) {
  const Dataset d = blobs(20, 2.0);
  const Dataset sel = d.select_rows({5, 1, 19});
  ASSERT_EQ(sel.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(sel.value(0, 0), d.value(5, 0));
  EXPECT_EQ(sel.label(2), d.label(19));
}

TEST(Dataset, PositivesCount) {
  const Dataset d({"f"}, {{1, 2, 3, 4}}, {0, 1, 1, 0});
  EXPECT_EQ(d.positives(), 2u);
}

TEST(Dataset, BadIndicesThrow) {
  const Dataset d = blobs(10, 1.0);
  EXPECT_THROW(d.slice(5, 11), std::out_of_range);
  EXPECT_THROW(d.select_features({7}), std::out_of_range);
  EXPECT_THROW(d.select_rows({10}), std::out_of_range);
}

// ---- binning ----

TEST(Binning, CodesMonotoneWithValue) {
  std::vector<double> col(1000);
  util::Rng rng(3);
  for (auto& v : col) v = rng.uniform(-5, 5);
  const FeatureBinner binner = FeatureBinner::fit(col);
  EXPECT_LE(binner.bin_of(-10.0), binner.bin_of(0.0));
  EXPECT_LE(binner.bin_of(0.0), binner.bin_of(10.0));
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-5, 5), b = rng.uniform(-5, 5);
    if (a <= b) {
      EXPECT_LE(binner.bin_of(a), binner.bin_of(b));
    }
  }
}

TEST(Binning, ConstantColumnSingleBin) {
  const std::vector<double> col(100, 3.0);
  const FeatureBinner binner = FeatureBinner::fit(col);
  EXPECT_EQ(binner.num_bins(), 1u);
  EXPECT_EQ(binner.bin_of(2.0), binner.bin_of(4.0));
}

TEST(Binning, FewDistinctValuesGetDistinctBins) {
  const std::vector<double> col{1.0, 2.0, 3.0, 1.0, 2.0, 3.0};
  const FeatureBinner binner = FeatureBinner::fit(col);
  EXPECT_NE(binner.bin_of(1.0), binner.bin_of(2.0));
  EXPECT_NE(binner.bin_of(2.0), binner.bin_of(3.0));
}

TEST(Binning, UpperEdgeSeparates) {
  const std::vector<double> col{1.0, 2.0, 3.0, 4.0};
  const FeatureBinner binner = FeatureBinner::fit(col);
  const std::uint8_t c2 = binner.bin_of(2.0);
  const double edge = binner.upper_edge(c2);
  EXPECT_GE(edge, 2.0);
  EXPECT_LT(edge, 3.0);
}

TEST(Binning, MaxBinsOutsideOneByteCodesThrows) {
  // 300 distinct values, so every bin count tried here could be filled.
  std::vector<double> column(300);
  std::iota(column.begin(), column.end(), 0.0);
  const Dataset data({"v"}, {column}, std::vector<std::uint8_t>(300, 0));
  for (const std::size_t max_bins : {0u, 257u, 300u}) {
    EXPECT_THROW(FeatureBinner::fit(column, max_bins), std::invalid_argument)
        << max_bins;
    EXPECT_THROW(BinnedDataset(data, max_bins), std::invalid_argument)
        << max_bins;
  }
  // 256 bins is the most a one-byte code holds: the top value gets 255.
  const BinnedDataset full(data, 256);
  EXPECT_EQ(full.binner(0).num_bins(), 256u);
  EXPECT_EQ(full.codes(0).front(), 0);
  EXPECT_EQ(full.codes(0).back(), 255);
  EXPECT_EQ(FeatureBinner::fit(column, 1).num_bins(), 1u);
}

TEST(Binning, BinnedDatasetShape) {
  const Dataset d = blobs(50, 2.0, 1, 3);
  const BinnedDataset binned(d);
  EXPECT_EQ(binned.num_rows(), 50u);
  EXPECT_EQ(binned.num_features(), 4u);
  EXPECT_EQ(binned.codes(0).size(), 50u);
}

// ---- decision tree ----

TEST(DecisionTree, PerfectlySeparableDataFitsExactly) {
  Dataset d({"x"}, {{1, 2, 3, 10, 11, 12}}, {0, 0, 0, 1, 1, 1});
  DecisionTree tree;
  tree.train(d);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{2.0}), 0.0);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{11.0}), 1.0);
}

TEST(DecisionTree, LearnsBlobs) {
  const Dataset train = blobs(2000, 4.0, 1);
  const Dataset test = blobs(500, 4.0, 2);
  DecisionTree tree;
  tree.train(train);
  EXPECT_GT(accuracy(tree, test), 0.9);
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset train = blobs(500, 1.0, 1);
  TreeOptions opts;
  opts.max_depth = 3;
  DecisionTree tree(opts);
  tree.train(train);
  EXPECT_LE(tree.depth(), 4u);  // root at depth 1
}

TEST(DecisionTree, PureNodeIsLeaf) {
  Dataset d({"x"}, {{1, 2, 3}}, {0, 0, 0});
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{5.0}), 0.0);
}

TEST(DecisionTree, ImportancesFavorSignalFeature) {
  const Dataset train = blobs(2000, 3.0, 1, 3);
  DecisionTree tree;
  tree.train(train);
  const auto& imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 4u);
  for (std::size_t f = 1; f < 4; ++f) {
    EXPECT_GT(imp[0], imp[f]);
  }
}

TEST(DecisionTree, EmptyTrainThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.train(Dataset{}), std::invalid_argument);
}

// train_binned takes one bootstrap count per row, some non-zero, summing
// below 2^32 (node sizes are 32-bit halves of a packed sum).
TEST(DecisionTree, TrainBinnedRejectsBadCounts) {
  const BinnedDataset binned(Dataset({"x"}, {{1, 2}}, {0, 1}));
  DecisionTree tree;
  const std::vector<std::uint32_t> short_counts{1};
  const std::vector<std::uint32_t> none{0, 0};
  const std::vector<std::uint32_t> too_many{0xFFFFFFFFu, 1};
  EXPECT_THROW(tree.train_binned(binned, short_counts), std::invalid_argument);
  EXPECT_THROW(tree.train_binned(binned, none), std::invalid_argument);
  EXPECT_THROW(tree.train_binned(binned, too_many), std::invalid_argument);
  const std::vector<std::uint32_t> both{3, 1};
  tree.train_binned(binned, both);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{2.0}), 1.0);
}

TEST(DecisionTree, ScoreBeforeTrainThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.score(std::vector<double>{1.0}), std::logic_error);
}

TEST(DecisionTree, PrintRulesMentionsFeature) {
  Dataset d({"my_detector"}, {{1, 2, 3, 10, 11, 12}}, {0, 0, 0, 1, 1, 1});
  DecisionTree tree;
  tree.train(d);
  const std::string rules = tree.print_rules(d.feature_names());
  EXPECT_NE(rules.find("my_detector"), std::string::npos);
  EXPECT_NE(rules.find("Anomaly"), std::string::npos);
}

// ---- random forest ----

TEST(RandomForest, ScoresAreVoteFractions) {
  ForestOptions opts;
  opts.num_trees = 10;
  RandomForest forest(opts);
  forest.train(blobs(500, 3.0));
  const Dataset test = blobs(100, 3.0, 9);
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    const double s = forest.score(test.row(i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    // With 10 trees the score is a multiple of 0.1.
    EXPECT_NEAR(s * 10.0, std::round(s * 10.0), 1e-9);
  }
}

TEST(RandomForest, DeterministicBySeed) {
  const Dataset train = blobs(500, 2.0);
  const Dataset test = blobs(50, 2.0, 4);
  ForestOptions opts;
  opts.seed = 77;
  RandomForest a(opts), b(opts);
  a.train(train);
  b.train(train);
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.score(test.row(i)), b.score(test.row(i)));
  }
}

TEST(RandomForest, DifferentSeedsGrowDifferentForests) {
  const Dataset train = blobs(500, 1.0);
  ForestOptions a_opts, b_opts;
  a_opts.seed = 1;
  b_opts.seed = 2;
  RandomForest a(a_opts), b(b_opts);
  a.train(train);
  b.train(train);
  const Dataset test = blobs(200, 1.0, 5);
  bool any_diff = false;
  for (std::size_t i = 0; i < test.num_rows() && !any_diff; ++i) {
    any_diff = a.score(test.row(i)) != b.score(test.row(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  // Weak signal + noise features: the ensemble should generalize at least
  // as well as one fully grown tree.
  const Dataset train = blobs(3000, 1.5, 1, 8);
  const Dataset test = blobs(1000, 1.5, 2, 8);
  DecisionTree tree;
  tree.train(train);
  RandomForest forest;
  forest.train(train);
  EXPECT_GE(accuracy(forest, test) + 0.01, accuracy(tree, test));
}

TEST(RandomForest, RobustToIrrelevantFeatures) {
  // The Fig 10 property in miniature: adding many noise features should
  // not collapse forest accuracy.
  const Dataset few_noise = blobs(2000, 3.0, 1, 2);
  const Dataset many_noise = blobs(2000, 3.0, 1, 40);
  const Dataset test_few = blobs(500, 3.0, 2, 2);
  const Dataset test_many = blobs(500, 3.0, 2, 40);
  RandomForest a, b;
  a.train(few_noise);
  b.train(many_noise);
  EXPECT_GT(accuracy(b, test_many), accuracy(a, test_few) - 0.05);
}

TEST(RandomForest, ImportancesNormalized) {
  RandomForest forest;
  forest.train(blobs(1000, 2.0, 1, 5));
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 6u);
  const double sum = std::accumulate(imp.begin(), imp.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Signal feature dominates.
  for (std::size_t f = 1; f < imp.size(); ++f) EXPECT_GT(imp[0], imp[f]);
}

TEST(RandomForest, TreeCountMatchesOptions) {
  ForestOptions opts;
  opts.num_trees = 7;
  RandomForest forest(opts);
  forest.train(blobs(200, 2.0));
  EXPECT_EQ(forest.tree_count(), 7u);
}

// ---- linear models ----

TEST(LogisticRegression, LearnsLinearBoundary) {
  const Dataset train = blobs(2000, 3.0);
  const Dataset test = blobs(500, 3.0, 6);
  LogisticRegression lr;
  lr.train(train);
  EXPECT_GT(accuracy(lr, test), 0.9);
}

TEST(LogisticRegression, ScoresAreProbabilities) {
  LogisticRegression lr;
  lr.train(blobs(500, 2.0));
  const Dataset test = blobs(100, 2.0, 3);
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    const double s = lr.score(test.row(i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(LinearSvm, LearnsLinearBoundary) {
  const Dataset train = blobs(2000, 3.0);
  const Dataset test = blobs(500, 3.0, 6);
  LinearSvm svm;
  svm.train(train);
  EXPECT_GT(accuracy(svm, test), 0.85);
}

TEST(LinearModels, HandleImbalancedData) {
  // 5% positives: class weighting must keep recall usable.
  const Dataset train = blobs(4000, 3.5, 1, 1, 0.05);
  const Dataset test = blobs(1000, 3.5, 2, 1, 0.05);
  LogisticRegression lr;
  lr.train(train);
  std::size_t tp = 0, pos = 0;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    if (test.label(i) != 0) {
      ++pos;
      tp += lr.score(test.row(i)) >= 0.5;
    }
  }
  ASSERT_GT(pos, 0u);
  EXPECT_GT(static_cast<double>(tp) / static_cast<double>(pos), 0.5);
}

TEST(FeatureScalerTest, StandardizesColumns) {
  const Dataset d = blobs(1000, 0.0);
  FeatureScaler scaler;
  scaler.fit(d);
  // Transform all rows; each column should have ~zero mean, unit variance.
  util::RunningStats rs;
  for (std::size_t i = 0; i < d.num_rows(); ++i) {
    rs.add(scaler.transform(d.row(i))[0]);
  }
  EXPECT_NEAR(rs.mean(), 0.0, 1e-9);
  EXPECT_NEAR(rs.stddev(), 1.0, 1e-9);
}

// ---- naive Bayes ----

TEST(NaiveBayes, LearnsBlobs) {
  const Dataset train = blobs(2000, 3.0);
  const Dataset test = blobs(500, 3.0, 6);
  GaussianNaiveBayes nb;
  nb.train(train);
  EXPECT_GT(accuracy(nb, test), 0.9);
}

TEST(NaiveBayes, PosteriorInUnitInterval) {
  GaussianNaiveBayes nb;
  nb.train(blobs(500, 2.0));
  const Dataset test = blobs(100, 2.0, 3);
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    const double s = nb.score(test.row(i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(NaiveBayes, HurtByRedundantFeatures) {
  // Duplicate the signal feature many times: NB double-counts the
  // "independent" evidence and its calibration degrades; the forest does
  // not. This is the core Fig 10 contrast.
  const Dataset base_train = blobs(3000, 1.2, 1, 0);
  const Dataset base_test = blobs(1000, 1.2, 2, 0);
  auto duplicate = [](const Dataset& d, std::size_t copies) {
    std::vector<std::vector<double>> cols;
    std::vector<std::string> names;
    for (std::size_t c = 0; c < copies; ++c) {
      std::vector<double> col(d.num_rows());
      for (std::size_t i = 0; i < d.num_rows(); ++i) {
        col[i] = d.value(i, 0);
      }
      cols.push_back(std::move(col));
      names.push_back("copy" + std::to_string(c));
    }
    return Dataset(std::move(names), std::move(cols), d.labels());
  };
  GaussianNaiveBayes nb1, nb30;
  nb1.train(duplicate(base_train, 1));
  nb30.train(duplicate(base_train, 30));
  // Compare Brier-style calibration: mean squared error of the posterior.
  auto brier = [&](const GaussianNaiveBayes& nb, const Dataset& test) {
    double sum = 0.0;
    for (std::size_t i = 0; i < test.num_rows(); ++i) {
      const double err =
          nb.score(test.row(i)) - (test.label(i) != 0 ? 1.0 : 0.0);
      sum += err * err;
    }
    return sum / static_cast<double>(test.num_rows());
  };
  EXPECT_GT(brier(nb30, duplicate(base_test, 30)),
            brier(nb1, duplicate(base_test, 1)));
}

// ---- mutual information ----

TEST(MutualInformation, SignalBeatsNoise) {
  const Dataset d = blobs(3000, 3.0, 1, 4);
  const auto order = rank_features_by_mutual_information(d);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0u);  // the signal feature ranks first
}

TEST(MutualInformation, IndependentFeatureNearZero) {
  const Dataset d = blobs(5000, 0.0);
  const double mi = mutual_information(d.column(0), d.labels());
  EXPECT_LT(mi, 0.01);
}

TEST(MutualInformation, PerfectPredictorHighMi) {
  std::vector<double> feature(1000);
  std::vector<std::uint8_t> labels(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    labels[i] = i % 2;
    feature[i] = labels[i] != 0 ? 10.0 : 0.0;
  }
  // MI of a balanced perfect predictor is ln 2.
  EXPECT_NEAR(mutual_information(feature, labels), std::log(2.0), 0.01);
}

// ---- k-fold ----

TEST(KFold, FoldsPartitionRows) {
  const auto folds = contiguous_folds(103, 5);
  ASSERT_EQ(folds.size(), 5u);
  EXPECT_EQ(folds.front().test_begin, 0u);
  EXPECT_EQ(folds.back().test_end, 103u);
  for (std::size_t f = 0; f + 1 < folds.size(); ++f) {
    EXPECT_EQ(folds[f].test_end, folds[f + 1].test_begin);
  }
}

TEST(KFold, TrainingRowsExcludeTestBlock) {
  const auto folds = contiguous_folds(10, 5);
  const auto rows = training_rows(folds[1], 10);
  ASSERT_EQ(rows.size(), 8u);
  for (std::size_t r : rows) {
    EXPECT_TRUE(r < folds[1].test_begin || r >= folds[1].test_end);
  }
}

TEST(KFold, InvalidArgsThrow) {
  EXPECT_THROW(contiguous_folds(10, 1), std::invalid_argument);
  EXPECT_THROW(contiguous_folds(3, 5), std::invalid_argument);
}

}  // namespace
