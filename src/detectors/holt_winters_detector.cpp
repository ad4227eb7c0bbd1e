#include "detectors/holt_winters_detector.hpp"

#include <cmath>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {

HoltWintersDetector::HoltWintersDetector(double alpha, double beta,
                                         double gamma,
                                         const SeriesContext& ctx)
    : alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      season_length_(ctx.points_per_day) {
  first_day_.reserve(season_length_);
}

std::string HoltWintersDetector::name() const {
  std::ostringstream out;
  out << "holt_winters(a=" << alpha_ << ",b=" << beta_ << ",g=" << gamma_
      << ')';
  return out.str();
}

double HoltWintersDetector::feed(double value) {
  ++index_;
  if (!model_ready_) {
    // Bootstrap: collect one full day, then initialize level to the day
    // mean, trend to zero, and the season to the demeaned day profile.
    if (!util::is_missing(value)) {
      // Bootstrap only; capacity reserved in the constructor.
      first_day_.push_back(value);
    } else if (!first_day_.empty()) {
      first_day_.push_back(first_day_.back());  // hold last value
    }
    if (first_day_.size() >= season_length_) {
      level_ = util::mean(first_day_);
      trend_ = 0.0;
      season_.assign(season_length_, 0.0);
      for (std::size_t i = 0; i < season_length_; ++i) {
        season_[i] = first_day_[i] - level_;
      }
      model_ready_ = true;
    }
    return 0.0;
  }

  const std::size_t slot = (index_ - 1) % season_length_;
  const double forecast = level_ + trend_ + season_[slot];
  if (util::is_missing(value)) {
    // Advance the model along its own forecast so the phase stays aligned.
    const double prev_level = level_;
    level_ = forecast - season_[slot];
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    return 0.0;
  }

  const double severity = std::abs(value - forecast);

  const double prev_level = level_;
  level_ = alpha_ * (value - season_[slot]) +
           (1.0 - alpha_) * (prev_level + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  season_[slot] =
      gamma_ * (value - level_) + (1.0 - gamma_) * season_[slot];

  return sanitize_severity(severity);
}

void HoltWintersDetector::reset() {
  season_.clear();
  level_ = 0.0;
  trend_ = 0.0;
  model_ready_ = false;
  first_day_.clear();
  index_ = 0;
}

}  // namespace opprentice::detectors
