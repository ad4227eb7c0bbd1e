#include "ml/random_forest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::ml {

RandomForest::RandomForest(ForestOptions options) : options_(options) {}

void RandomForest::train(const Dataset& data) {
  train(data, 0, data.num_rows());
}

void RandomForest::train(const Dataset& data, std::size_t begin,
                         std::size_t end, const ColumnOrder* order) {
  obs::ScopedSpan span("forest.train", "ml");
  span.arg("rows", end - begin);
  span.arg("features", data.num_features());
  span.arg("trees", options_.num_trees);
  obs::Stopwatch watch;

  ForestTraining training(options_, data, begin, end, order);
  util::parallel_for(training.bin_units(),
                     [&](std::size_t unit) { training.bin(data, unit); });
  util::parallel_for(training.tree_units(),
                     [&](std::size_t t) { training.grow(t); });
  *this = training.assemble();

  obs::histogram("opprentice.forest.train.ms").record(watch.elapsed_ms());
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log(obs::LogLevel::kInfo, "forest", "train_done",
             {{"rows", end - begin},
              {"features", data.num_features()},
              {"trees", roots_.size()},
              {"ms", watch.elapsed_ms()}});
  }
}

ForestTraining::ForestTraining(const ForestOptions& options,
                               const Dataset& data)
    : ForestTraining(options, data, 0, data.num_rows()) {}

ForestTraining::ForestTraining(const ForestOptions& options,
                               const Dataset& data, std::size_t begin,
                               std::size_t end, const ColumnOrder* order)
    : options_(options),
      order_(order),
      binned_(BinnedDataset::unbinned(data, begin, end)),
      tree_options_(options.num_trees),
      tree_draws_(options.num_trees),
      trees_(options.num_trees) {
  if (binned_.num_rows() == 0) {
    throw std::invalid_argument("RandomForest::train: empty dataset");
  }
  if (data.num_features() > FlatNode::kMaxFeatures) {
    throw std::invalid_argument(
        "RandomForest::train: more features than a node can index");
  }
  if (order != nullptr &&
      (order->num_features() != data.num_features() ||
       begin < order->begin() || end > order->end())) {
    throw std::invalid_argument(
        "RandomForest::train: the column order does not hold the rows");
  }
  sample_size_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.sample_fraction *
                                  static_cast<double>(binned_.num_rows())));
  mtry_ = options_.mtry != 0
              ? options_.mtry
              : std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::sqrt(
                           static_cast<double>(data.num_features()))));
}

void ForestTraining::bin(const Dataset& data, std::size_t unit) {
  if (unit < binned_.num_features()) {
    if (order_ != nullptr) {
      binned_.bin_column(unit, data.column(unit), order_->rows(unit));
    } else {
      binned_.bin_column(unit, data.column(unit));
    }
    return;
  }
  // Per-tree seeds and bootstrap samples come serially from the forest
  // RNG, in tree order, so every tree's inputs are the same whichever
  // thread grows it. The walk only skips over each tree's draws; grow(t)
  // makes them again from the RNG kept here.
  util::Rng rng(options_.seed);
  for (std::size_t t = 0; t < tree_options_.size(); ++t) {
    TreeOptions& topt = tree_options_[t];
    topt.max_depth = options_.max_depth;
    topt.min_samples_split = options_.min_samples_split;
    topt.mtry = mtry_;
    topt.seed = rng.next_u64();
    tree_draws_[t] = rng;
    rng.discard_uniform_int(binned_.num_rows(), sample_size_);
  }
}

void ForestTraining::grow(std::size_t t) {
  // Each tree reads the shared BinnedDataset and writes only its own
  // slot. Its bootstrap, rows sampled with replacement, is kept as how
  // often each row was drawn, and freed once the tree has grown.
  obs::ScopedSpan tree_span("forest.tree", "ml");
  tree_span.arg("index", t);
  std::vector<std::uint32_t> counts(binned_.num_rows(), 0);
  util::Rng draws = tree_draws_[t];
  draws.tally_uniform_int(counts, sample_size_);
  DecisionTree tree(tree_options_[t]);
  tree.train_binned(binned_, counts);
  trees_[t] = std::move(tree);
}

RandomForest ForestTraining::assemble() {
  // One array for the whole forest, and one importance vector summed in
  // tree order; the trees themselves are dropped.
  RandomForest forest(options_);
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees_) total_nodes += tree.node_count();
  forest.nodes_.reserve(total_nodes);
  forest.importances_.assign(binned_.num_features(), 0.0);
  for (const DecisionTree& tree : trees_) {
    forest.roots_.push_back(static_cast<std::uint32_t>(forest.nodes_.size()));
    forest.nodes_.insert(forest.nodes_.end(), tree.nodes().begin(),
                         tree.nodes().end());
    const std::vector<double>& imp = tree.feature_importances();
    for (std::size_t f = 0; f < forest.importances_.size(); ++f) {
      forest.importances_[f] += imp[f];
    }
  }
  obs::counter("opprentice.forest.trains").add();
  return forest;
}

std::span<const FlatNode> RandomForest::tree_nodes(std::size_t t) const {
  const std::size_t end =
      t + 1 < roots_.size() ? roots_[t + 1] : nodes_.size();
  return std::span<const FlatNode>(nodes_).subspan(roots_[t], end - roots_[t]);
}

void RandomForest::adopt(std::vector<FlatNode> nodes,
                         std::vector<std::uint32_t> roots,
                         std::size_t num_features) {
  nodes_ = std::move(nodes);
  roots_ = std::move(roots);
  importances_.assign(num_features, 0.0);
}

std::size_t RandomForest::count_votes(std::span<const double> features) const {
  // kLanes trees are walked side by side: their node loads do not depend
  // on each other, so the cache misses of one walk overlap the others'.
  // Votes are integers, so their sum does not depend on the order.
  constexpr std::size_t kLanes = 8;
  const FlatNode* base = nodes_.data();
  const std::size_t trees = roots_.size();
  std::size_t votes = 0;
  std::size_t t = 0;
  for (; t + kLanes <= trees; t += kLanes) {
    std::array<const FlatNode*, kLanes> at{};
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      at[lane] = base + roots_[t + lane];
    }
    bool walking = true;
    while (walking) {
      walking = false;
      for (const FlatNode*& node : at) {
        node = descend(node, features);
        walking = walking || !node->is_leaf();
      }
    }
    for (const FlatNode* leaf : at) votes += leaf->value >= 0.5 ? 1 : 0;
  }
  for (; t < trees; ++t) {
    const FlatNode* node = base + roots_[t];
    while (!node->is_leaf()) node = descend(node, features);
    votes += node->value >= 0.5 ? 1 : 0;
  }
  return votes;
}

double RandomForest::score(std::span<const double> features) const {
  if (roots_.empty()) {
    throw std::logic_error("RandomForest::score: not trained");
  }
  // Hot path (§5.8: classification must stay << extraction): one relaxed
  // counter add always; clock reads only under detailed timing.
  static obs::Counter& scores_counter = obs::counter("opprentice.forest.scores");
  std::size_t votes = 0;
  if (obs::detailed_timing_enabled()) {
    static obs::Histogram& score_histogram = obs::histogram("opprentice.forest.score.us");
    const obs::Stopwatch watch;
    votes = count_votes(features);
    score_histogram.record(watch.elapsed_us());
  } else {
    votes = count_votes(features);
  }
  scores_counter.add();
  return static_cast<double>(votes) / static_cast<double>(roots_.size());
}

std::vector<double> RandomForest::score_all(const Dataset& data) const {
  return score_all(data, 0, data.num_rows());
}

std::vector<double> RandomForest::score_all(const Dataset& data,
                                            std::size_t begin,
                                            std::size_t end) const {
  if (roots_.empty()) {
    throw std::logic_error("RandomForest::score_all: not trained");
  }
  if (begin > end || end > data.num_rows()) {
    throw std::out_of_range("RandomForest::score_all: bad row range");
  }
  const std::size_t rows = end - begin;
  obs::ScopedSpan span("forest.score_all", "ml");
  span.arg("rows", rows);
  std::vector<double> scores(rows, 0.0);
  // Chunks of rows fan out across the pool; a row's votes are an integer
  // sum, so every score is bit-identical at any thread count. One row is
  // ~50 tree walks, far smaller than a dispatch, and each chunk gathers
  // its rows into one buffer of its own.
  constexpr std::size_t kChunk = 64;
  util::parallel_for((rows + kChunk - 1) / kChunk, [&](std::size_t chunk) {
    std::vector<double> row(data.num_features());
    const std::size_t last = std::min(rows, (chunk + 1) * kChunk);
    for (std::size_t i = chunk * kChunk; i < last; ++i) {
      for (std::size_t f = 0; f < row.size(); ++f) {
        row[f] = data.value(begin + i, f);
      }
      scores[i] = score(row);
    }
  });
  return scores;
}

std::vector<double> RandomForest::feature_importances() const {
  std::vector<double> total = importances_;
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace opprentice::ml
