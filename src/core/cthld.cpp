#include "core/cthld.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <optional>

#include "eval/pr_curve.hpp"
#include "ml/kfold.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::core {

void EwmaCthldPredictor::observe_best(double best_cthld) {
  if (!initialized_) {
    prediction_ = best_cthld;
    initialized_ = true;
  } else {
    prediction_ = alpha_ * best_cthld + (1.0 - alpha_) * prediction_;
  }
  if (obs::log_enabled(obs::LogLevel::kDebug)) {
    obs::log(obs::LogLevel::kDebug, "cthld", "ewma_update",
             {{"observed_best", best_cthld}, {"prediction", prediction_}});
  }
}

double five_fold_cthld(const ml::Dataset& training,
                       const eval::AccuracyPreference& pref,
                       const ml::ForestOptions& forest_options,
                       const FiveFoldOptions& options) {
  obs::ScopedSpan span("cthld.five_fold", "core");
  span.arg("rows", training.num_rows());
  span.arg("folds", options.folds);
  span.arg("candidates", options.candidates);
  const obs::Stopwatch watch;

  const std::size_t n = training.num_rows();
  if (n < options.folds * 2 || training.positives() == 0) return 0.5;

  // Per-fold held-out scores, sorted descending, with prefix true-positive
  // counts so the candidate sweep evaluates each threshold in O(log n).
  struct FoldScores {
    std::vector<double> sorted_scores;      // descending
    std::vector<std::size_t> prefix_tp;     // prefix_tp[k] = TP among top k
    std::size_t positives = 0;
  };
  // Folds train and score independently (their forest seeds and data are
  // fixed up front), so they fan out across the pool; per-fold results
  // land in indexed slots and are collected in fold order, keeping the
  // pick identical at any thread count. The forest's own parallel train
  // runs inline here (nested parallel_for), avoiding oversubscription.
  const auto splits = ml::contiguous_folds(n, options.folds);
  std::vector<std::optional<FoldScores>> fold_slots(splits.size());
  util::parallel_for(splits.size(), [&](std::size_t f) {
    const auto& fold = splits[f];
    const ml::Dataset train_part =
        training.select_rows(ml::training_rows(fold, n));
    if (train_part.positives() == 0) return;
    ml::RandomForest forest(forest_options);
    forest.train(train_part);

    // The held-out block is contiguous, so it is scored in place.
    const std::vector<double> scores =
        forest.score_all(training, fold.test_begin, fold.test_end);

    FoldScores fs;
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores[a] > scores[b];
    });
    fs.sorted_scores.reserve(order.size());
    fs.prefix_tp.reserve(order.size() + 1);
    fs.prefix_tp.push_back(0);
    for (std::size_t i : order) {
      const bool positive = training.label(fold.test_begin + i) != 0;
      fs.sorted_scores.push_back(scores[i]);
      fs.prefix_tp.push_back(fs.prefix_tp.back() + (positive ? 1 : 0));
      fs.positives += positive ? 1 : 0;
    }
    if (fs.positives > 0) fold_slots[f] = std::move(fs);
  });
  std::vector<FoldScores> folds;
  folds.reserve(splits.size());
  for (auto& slot : fold_slots) {
    if (slot) folds.push_back(std::move(*slot));
  }
  if (folds.empty()) return 0.5;

  // Sweep the candidate grid; keep the candidate with the best average
  // PC-Score across folds.
  double best_cthld = 0.5;
  double best_score = -1.0;
  for (std::size_t c = 0; c <= options.candidates; ++c) {
    const double cthld =
        static_cast<double>(c) / static_cast<double>(options.candidates);
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& fold : folds) {
      // Number of points with score >= cthld (scores sorted descending).
      const auto it = std::lower_bound(
          fold.sorted_scores.begin(), fold.sorted_scores.end(), cthld,
          [](double score, double t) { return score >= t; });
      const auto detected =
          static_cast<std::size_t>(it - fold.sorted_scores.begin());
      const std::size_t tp = fold.prefix_tp[detected];
      const double r = static_cast<double>(tp) /
                       static_cast<double>(fold.positives);
      if (detected == 0) continue;  // precision undefined
      const double p =
          static_cast<double>(tp) / static_cast<double>(detected);
      total += eval::pc_score(r, p, pref);
      ++counted;
    }
    if (counted == 0) continue;
    const double avg = total / static_cast<double>(counted);
    if (avg > best_score) {
      best_score = avg;
      best_cthld = cthld;
    }
  }
  obs::histogram("opprentice.cthld.five_fold.ms").record(watch.elapsed_ms());
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log(obs::LogLevel::kInfo, "cthld", "five_fold_done",
             {{"cthld", best_cthld},
              {"pc_score", best_score},
              {"ms", watch.elapsed_ms()}});
  }
  return best_cthld;
}

}  // namespace opprentice::core
