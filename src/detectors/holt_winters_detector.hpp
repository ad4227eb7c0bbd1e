// Holt-Winters (triple exponential smoothing) detector [Brutlag, LISA'00].
//
// Additive seasonal model with a one-day season. The severity of a point is
// the absolute one-step forecast residual |value - (level + trend +
// season[slot])|, as described in §4.3.1 of the paper. Parameters alpha
// (level), beta (trend), gamma (season) are each sampled from
// {0.2, 0.4, 0.6, 0.8}, giving the 64 configurations of Table 3.
#pragma once

#include <vector>

#include "detectors/detector.hpp"

namespace opprentice::detectors {

class HoltWintersDetector final : public Detector {
 public:
  HoltWintersDetector(double alpha, double beta, double gamma,
                      const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return 2 * season_length_; }
  double feed(double value) override;
  void reset() override;

 private:
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double gamma_ = 0.0;
  std::size_t season_length_ = 0;

  // Model state.
  std::vector<double> season_;
  double level_ = 0.0;
  double trend_ = 0.0;
  bool model_ready_ = false;

  // First-season bootstrap.
  std::vector<double> first_day_;
  std::size_t index_ = 0;
};

}  // namespace opprentice::detectors
