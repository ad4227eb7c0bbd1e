// cThld configuration and prediction (§4.5).
//
// Offline ("oracle") mode picks the best cThld of a test set with the
// PC-Score. Online detection must *predict* next week's cThld from history:
// the paper's method is an EWMA over the historical best cThlds (initialized
// by 5-fold cross-validation); the baseline it beats is plain 5-fold
// cross-validation over all historical data.
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

  // Initializes the first prediction. The paper uses 5-fold CV for it
  // (five_fold_cthld); the fleet engine seeds it with its first retrain's
  // best cThld on the newest labeled window, scored in sample by the
  // forest just trained on it (no earlier forest exists), and predicts
  // 0.5 until then.
  void initialize(double first_prediction);
  bool initialized() const { return initialized_; }

  // Prediction for the upcoming week.
  double predict() const { return prediction_; }

  // Feeds the best cThld measured on the week that just ended, scored by
  // a forest that had not trained on it (the fleet engine's live forest).
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
