#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::ml {

RandomForest::RandomForest(ForestOptions options) : options_(options) {}

void RandomForest::train(const Dataset& data) {
  if (data.empty()) {
    throw std::invalid_argument("RandomForest::train: empty dataset");
  }
  obs::ScopedSpan span("forest.train", "ml");
  span.arg("rows", data.num_rows());
  span.arg("features", data.num_features());
  span.arg("trees", options_.num_trees);
  obs::Stopwatch watch;

  trees_.clear();
  trained_features_ = data.num_features();

  const BinnedDataset binned(data);
  util::Rng rng(options_.seed);

  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.sample_fraction *
                                  static_cast<double>(data.num_rows())));
  const std::size_t mtry =
      options_.mtry != 0
          ? options_.mtry
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(data.num_features()))));

  // Per-tree seeds and bootstrap rows are drawn serially from the forest
  // RNG *before* dispatch, in tree order — the same stream a serial train
  // consumes — so the grown forest is bit-identical at any thread count.
  std::vector<TreeOptions> tree_options(options_.num_trees);
  std::vector<std::vector<std::size_t>> tree_rows(options_.num_trees);
  for (std::size_t t = 0; t < options_.num_trees; ++t) {
    TreeOptions& topt = tree_options[t];
    topt.max_depth = options_.max_depth;
    topt.min_samples_split = options_.min_samples_split;
    topt.mtry = mtry;
    topt.seed = rng.next_u64();

    // Bootstrap: rows sampled with replacement.
    tree_rows[t].resize(sample_size);
    for (auto& r : tree_rows[t]) r = rng.uniform_int(data.num_rows());
  }

  // Trees grow in parallel against the shared read-only BinnedDataset;
  // each task owns its pre-seeded options, row sample, and output slot.
  trees_.resize(options_.num_trees);
  util::parallel_for(options_.num_trees, [&](std::size_t t) {
    obs::ScopedSpan tree_span("forest.tree", "ml");
    tree_span.arg("index", t);
    DecisionTree tree(tree_options[t]);
    tree.train_binned(binned, std::move(tree_rows[t]));
    trees_[t] = std::move(tree);
  });

  obs::counter("opprentice.forest.trains").add();
  obs::histogram("opprentice.forest.train.ms").record(watch.elapsed_ms());
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log(obs::LogLevel::kInfo, "forest", "train_done",
             {{"rows", data.num_rows()},
              {"features", data.num_features()},
              {"trees", trees_.size()},
              {"ms", watch.elapsed_ms()}});
  }
}

double RandomForest::score(std::span<const double> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::score: not trained");
  }
  // Hot path (§5.8: classification must stay << extraction): one relaxed
  // counter add always; clock reads only under detailed timing.
  static obs::Counter& scores_counter = obs::counter("opprentice.forest.scores");
  const auto count_votes = [&] {
    std::size_t votes = 0;
    for (const auto& tree : trees_) {
      votes += tree.vote(features) ? 1 : 0;
    }
    return votes;
  };
  std::size_t votes = 0;
  if (obs::detailed_timing_enabled()) {
    static obs::Histogram& score_histogram = obs::histogram("opprentice.forest.score.us");
    const obs::Stopwatch watch;
    votes = count_votes();
    score_histogram.record(watch.elapsed_us());
  } else {
    votes = count_votes();
  }
  scores_counter.add();
  return static_cast<double>(votes) / static_cast<double>(trees_.size());
}

bool RandomForest::classify(std::span<const double> features,
                            double cthld) const {
  return score(features) >= cthld;
}

std::vector<double> RandomForest::score_all(const Dataset& data) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::score_all: not trained");
  }
  obs::ScopedSpan span("forest.score_all", "ml");
  span.arg("rows", data.num_rows());
  std::vector<double> scores(data.num_rows(), 0.0);
  // Rows fan out across the pool; within a row the trees are evaluated
  // in fixed order and votes are an integer sum, so every score is
  // bit-identical at any thread count. Chunked: one row is ~50 tree
  // walks, far smaller than a dispatch.
  util::parallel_for(
      data.num_rows(),
      [&](std::size_t i) { scores[i] = score(data.row(i)); },
      /*grain=*/64);
  return scores;
}

std::vector<double> RandomForest::feature_importances() const {
  std::vector<double> total(trained_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree.feature_importances();
    for (std::size_t f = 0; f < total.size() && f < imp.size(); ++f) {
      total[f] += imp[f];
    }
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace opprentice::ml
