// Random forest (§4.4.2), the learning algorithm Opprentice deploys.
//
// An ensemble of fully grown CART trees; each tree trains on a bootstrap
// sample of the rows and evaluates only a random subset of features per
// node. The anomaly probability of a point is the fraction of trees that
// vote "anomaly" ("if 40 trees out of 100 classify the point into an
// anomaly, its anomaly probability is 40%"); the cThld applied to this
// probability is configured separately (§4.5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace opprentice::ml {

struct ForestOptions {
  std::size_t num_trees = 48;
  std::size_t max_depth = 64;
  std::size_t min_samples_split = 2;
  // Features tried per node; 0 = floor(sqrt(num_features)).
  std::size_t mtry = 0;
  // Bootstrap sample size as a fraction of the training rows.
  double sample_fraction = 1.0;
  std::uint64_t seed = 42;
};

class RandomForest final : public BinaryClassifier {
 public:
  explicit RandomForest(ForestOptions options = {});

  std::string name() const override { return "random_forest"; }

  // Runs ForestTraining's stages back to back, each one's units over the
  // global thread pool, on every row of data.
  void train(const Dataset& data) override;
  // The same on rows [begin, end) of data, read in place: the forest of
  // train(data.slice(begin, end)), bit for bit, without the copy. With an
  // `order`, a ColumnOrder of data whose range holds [begin, end), each
  // column is binned from it instead of sorted: the same forest again.
  void train(const Dataset& data, std::size_t begin, std::size_t end,
             const ColumnOrder* order = nullptr);
  bool is_trained() const override { return !roots_.empty(); }

  // Fraction of trees voting anomaly, in [0, 1].
  double score(std::span<const double> features) const override;

  // Batch scoring, parallel over rows on the global thread pool. Votes
  // reduce per row in fixed tree order; results match serial score()
  // bit-for-bit at any thread count.
  std::vector<double> score_all(const Dataset& data) const override;
  // Scores rows [begin, end) of data in place: score_all(data.slice(begin,
  // end)) without the copy. Throws std::out_of_range on a bad range.
  std::vector<double> score_all(const Dataset& data, std::size_t begin,
                                std::size_t end) const;

  std::size_t tree_count() const { return roots_.size(); }

  // Tree t's nodes (see FlatNode), a slice of the forest's one array.
  std::span<const FlatNode> tree_nodes(std::size_t t) const;

  // Per-feature gini importance summed over the trees at train time,
  // normalized to sum to 1. Shows which detector configurations the
  // forest actually relies on. All zero for a loaded forest.
  std::vector<double> feature_importances() const;

  // Installs a deserialized forest (see ml/serialize.hpp): `nodes` holds
  // the trees back to back, tree t starting at roots[t]. Every internal
  // node's feature must be below `num_features` and both its children
  // inside its own tree, after it; load_forest checks this.
  void adopt(std::vector<FlatNode> nodes, std::vector<std::uint32_t> roots,
             std::size_t num_features);

 private:
  friend class ForestTraining;

  std::size_t count_votes(std::span<const double> features) const;

  ForestOptions options_;
  std::vector<FlatNode> nodes_;       // every tree, in tree order
  std::vector<std::uint32_t> roots_;  // where each tree starts in nodes_
  std::vector<double> importances_;   // unnormalized, summed in tree order
};

// One forest's training cut into stages of independent units (DESIGN.md
// §5i): binning with the bootstrap draw, then the trees, then assembly.
// RandomForest::train runs the stages back to back; core::FleetEngine
// spreads them over a series' next points. The units of a stage may run
// concurrently and in any order, and a stage may start any time after the
// one before it has finished: the forest depends only on the data and the
// options, bit for bit.
class ForestTraining {
 public:
  // Trains on rows [begin, end) of data and keeps only their labels and
  // the shape; stage 1 reads the rows in place. With an `order` (a
  // ColumnOrder of data, which must outlive stage 1), stage 1 bins each
  // column from it; without one, each bin unit sorts its column's rows.
  // Throws std::out_of_range on a bad range, std::invalid_argument on an
  // empty one, past FlatNode::kMaxFeatures features, or for an order
  // whose range or feature count does not fit.
  ForestTraining(const ForestOptions& options, const Dataset& data,
                 std::size_t begin, std::size_t end,
                 const ColumnOrder* order = nullptr);
  // Every row of data.
  ForestTraining(const ForestOptions& options, const Dataset& data);
  // Trains on a training set held as f32 columns outside a Dataset, one
  // row per label and `features` columns; stage 1 reads the columns from
  // bin(values, unit). Throws as the first constructor does.
  ForestTraining(const ForestOptions& options,
                 std::span<const std::uint8_t> labels, std::size_t features);

  // Stage 1: unit f < num_features bins column f of the constructor's
  // rows of `data`, the dataset given to it; the last unit draws every
  // tree's seed from the forest seed, in tree order, and keeps the forest
  // RNG as it stands before each tree's bootstrap draws.
  std::size_t bin_units() const { return binned_.num_features() + 1; }
  void bin(const Dataset& data, std::size_t unit);
  // The same for the f32 constructor: `values` holds its columns one
  // after another, labels.size() values each. The forest is that of
  // training on the columns widened to f64 in a Dataset, bit for bit.
  void bin(std::span<const float> values, std::size_t unit);

  // Stage 2, once every bin unit has run: unit t draws tree t's bootstrap
  // counts from its kept RNG and grows the tree.
  std::size_t tree_units() const { return trees_.size(); }
  void grow(std::size_t t);

  // Once every tree has grown: the forest. Call once.
  RandomForest assemble();

 private:
  // Checks the shape and sizes the bootstrap.
  ForestTraining(const ForestOptions& options, BinnedDataset binned);

  // The last bin unit.
  void draw();

  ForestOptions options_;
  std::size_t mtry_ = 0;
  std::size_t sample_size_ = 0;
  const ColumnOrder* order_ = nullptr;
  BinnedDataset binned_;
  std::vector<TreeOptions> tree_options_;
  // The forest RNG before tree t's bootstrap draws: a bootstrap is drawn
  // by the unit that grows its tree, and lives only while it grows.
  std::vector<util::Rng> tree_draws_;
  std::vector<DecisionTree> trees_;
};

}  // namespace opprentice::ml
