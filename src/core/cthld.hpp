// cThld configuration and prediction (§4.5).
//
// Offline ("oracle") mode picks the best cThld of a test set with the
// PC-Score. Online detection must *predict* next week's cThld from history:
// the paper's method is an EWMA over the historical best cThlds (the paper
// initializes it by 5-fold cross-validation; the fleet engine seeds it from
// its first observed best cThld instead). The baseline it beats is plain
// 5-fold cross-validation over all historical data, which
// five_fold_weekly_cthlds (weekly_driver.hpp) keeps as Fig 13's baseline
// row.
#pragma once

#include "eval/threshold_pickers.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"

namespace opprentice::core {

// The paper's EWMA weight on the newest best cThld ("to quickly catch up
// with the cThld variation"); the fleet engine's predictor uses it.
inline constexpr double kCthldEwmaAlpha = 0.8;

// EWMA predictor over weekly best cThlds:
//   cthld_pred(i) = alpha * best(i-1) + (1 - alpha) * cthld_pred(i-1)
class EwmaCthldPredictor {
 public:
  explicit EwmaCthldPredictor(double alpha = kCthldEwmaAlpha)
      : alpha_(alpha) {}

  // Prediction for the upcoming week; 0.5 before the first observation.
  double predict() const { return prediction_; }

  // Feeds the best cThld measured on the week that just ended; the first
  // call seeds the prediction with it. The fleet engine picks it from the
  // scores the series emitted on that week's labeled rows, from forests
  // that had not trained on them.
  void observe_best(double best_cthld);

 private:
  double alpha_;
  double prediction_ = 0.5;
  bool initialized_ = false;
};

struct FiveFoldOptions {
  std::size_t folds = 5;
  // §4.5.2: "we evaluate 1000 cThld candidates in a range of [0, 1]".
  std::size_t candidates = 1000;
};

// 5-fold cross-validation cThld selection: trains one forest per fold on
// the remaining rows, scores the held-out block, and returns the candidate
// cThld with the best average PC-Score across folds.
double five_fold_cthld(const ml::Dataset& training,
                       const eval::AccuracyPreference& pref,
                       const ml::ForestOptions& forest_options,
                       const FiveFoldOptions& options = {});

}  // namespace opprentice::core
