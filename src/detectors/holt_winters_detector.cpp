#include "detectors/holt_winters_detector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// Each lane runs one configuration's update: the same operations in the
// same order as a lone configuration, so a lane's bits do not depend on
// the others. The arrays of a bank never overlap; saying so lets the
// compiler vectorise the loops.

// A missing point advances every lane along its own forecast, so the
// phase stays aligned.
void hold_lanes(std::size_t lanes, const double* __restrict beta,
                double* __restrict level, double* __restrict trend,
                const double* __restrict season,
                double* __restrict severity) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double forecast = level[l] + trend[l] + season[l];
    const double prev_level = level[l];
    level[l] = forecast - season[l];
    trend[l] = beta[l] * (level[l] - prev_level) + (1.0 - beta[l]) * trend[l];
    severity[l] = 0.0;
  }
}

void update_lanes(std::size_t lanes, double value,
                  const double* __restrict alpha,
                  const double* __restrict beta,
                  const double* __restrict gamma, double* __restrict level,
                  double* __restrict trend, double* __restrict season,
                  double* __restrict severity) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double forecast = level[l] + trend[l] + season[l];
    severity[l] = std::abs(value - forecast);
    const double prev_level = level[l];
    level[l] = alpha[l] * (value - season[l]) +
               (1.0 - alpha[l]) * (prev_level + trend[l]);
    trend[l] = beta[l] * (level[l] - prev_level) + (1.0 - beta[l]) * trend[l];
    season[l] = gamma[l] * (value - level[l]) + (1.0 - gamma[l]) * season[l];
  }
}

}  // namespace

// ---- HoltWintersBank ----

HoltWintersBank::HoltWintersBank(std::size_t season_length)
    : season_length_(season_length) {
  first_day_.reserve(season_length_);
}

std::size_t HoltWintersBank::add_lane(double alpha, double beta,
                                      double gamma) {
  alpha_.push_back(alpha);
  beta_.push_back(beta);
  gamma_.push_back(gamma);
  level_.push_back(0.0);
  trend_.push_back(0.0);
  severity_.push_back(0.0);
  reset();
  return alpha_.size() - 1;
}

void HoltWintersBank::follow(std::size_t index, double value) {
  if (index == advanced_) {
    advance(value);
    return;
  }
  if (index != 0) {
    throw std::logic_error("HoltWintersBank: reader out of step");
  }
  reset();
  advance(value);
}

void HoltWintersBank::advance(double value) {
  ++advanced_;
  const std::size_t lanes = alpha_.size();
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
      const double level = util::mean(first_day_);
      std::fill(level_.begin(), level_.end(), level);
      std::fill(trend_.begin(), trend_.end(), 0.0);
      season_.resize(season_length_ * lanes);  // allocates once
      for (std::size_t i = 0; i < season_length_; ++i) {
        std::fill_n(season_.begin() + static_cast<std::ptrdiff_t>(i * lanes),
                    lanes, first_day_[i] - level);
      }
      model_ready_ = true;
    }
    return;
  }

  const std::size_t slot = (advanced_ - 1) % season_length_;
  double* season = season_.data() + slot * lanes;
  if (util::is_missing(value)) {
    hold_lanes(lanes, beta_.data(), level_.data(), trend_.data(), season,
               severity_.data());
  } else {
    update_lanes(lanes, value, alpha_.data(), beta_.data(), gamma_.data(),
                 level_.data(), trend_.data(), season, severity_.data());
  }
}

void HoltWintersBank::reset() {
  std::fill(level_.begin(), level_.end(), 0.0);
  std::fill(trend_.begin(), trend_.end(), 0.0);
  std::fill(severity_.begin(), severity_.end(), 0.0);
  model_ready_ = false;
  first_day_.clear();
  advanced_ = 0;
}

// ---- HoltWintersDetector ----

HoltWintersDetector::HoltWintersDetector(double alpha, double beta,
                                         double gamma,
                                         const SeriesContext& ctx)
    : HoltWintersDetector(
          alpha, beta, gamma,
          std::make_shared<HoltWintersBank>(ctx.points_per_day)) {}

HoltWintersDetector::HoltWintersDetector(double alpha, double beta,
                                         double gamma,
                                         std::shared_ptr<HoltWintersBank> bank)
    : alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      bank_(std::move(bank)),
      lane_(bank_->add_lane(alpha, beta, gamma)) {}

std::string HoltWintersDetector::name() const {
  std::ostringstream out;
  out << "holt_winters(a=" << alpha_ << ",b=" << beta_ << ",g=" << gamma_
      << ')';
  return out.str();
}

double HoltWintersDetector::feed(double value) {
  bank_->arrive(seen_++, value);
  return sanitize_severity(bank_->severity(lane_));
}

void HoltWintersDetector::reset() {
  seen_ = 0;
  bank_->reset();
}

}  // namespace opprentice::detectors
