#include "detectors/arima_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// Sample autocovariances c_0..c_max_lag.
std::vector<double> autocovariances(const std::vector<double>& xs,
                                    int max_lag) {
  const double m = util::mean(xs);
  const auto n = static_cast<double>(xs.size());
  std::vector<double> c(static_cast<std::size_t>(max_lag) + 1, 0.0);
  for (int lag = 0; lag <= max_lag; ++lag) {
    double sum = 0.0;
    for (std::size_t t = static_cast<std::size_t>(lag); t < xs.size(); ++t) {
      sum += (xs[t] - m) * (xs[t - static_cast<std::size_t>(lag)] - m);
    }
    c[static_cast<std::size_t>(lag)] = sum / n;
  }
  return c;
}

}  // namespace

ArParameters fit_ar_by_aic(const std::vector<double>& xs, int max_order) {
  ArParameters best;
  if (xs.size() < static_cast<std::size_t>(4 * (max_order + 1))) return best;

  const std::vector<double> c = autocovariances(xs, max_order);
  if (c[0] <= 0.0) return best;
  const double n = static_cast<double>(xs.size());

  // Levinson-Durbin recursion; evaluate AIC at each order.
  std::vector<double> phi(static_cast<std::size_t>(max_order) + 1, 0.0);
  std::vector<double> prev(phi);
  double err = c[0];
  double best_aic = std::numeric_limits<double>::infinity();

  for (int k = 1; k <= max_order; ++k) {
    double acc = c[static_cast<std::size_t>(k)];
    for (int j = 1; j < k; ++j) {
      acc -= phi[static_cast<std::size_t>(j)] *
             c[static_cast<std::size_t>(k - j)];
    }
    const double reflection = err > 0.0 ? acc / err : 0.0;
    prev = phi;
    phi[static_cast<std::size_t>(k)] = reflection;
    for (int j = 1; j < k; ++j) {
      phi[static_cast<std::size_t>(j)] =
          prev[static_cast<std::size_t>(j)] -
          reflection * prev[static_cast<std::size_t>(k - j)];
    }
    err *= (1.0 - reflection * reflection);
    if (err <= 0.0) break;

    const double aic = n * std::log(err) + 2.0 * static_cast<double>(k);
    if (aic < best_aic) {
      best_aic = aic;
      best.phi.assign(phi.begin() + 1, phi.begin() + 1 + k);
      best.noise_variance = err;
    }
  }
  return best;
}

ArimaDetector::ArimaDetector(const SeriesContext& ctx, int max_order)
    : max_order_(max_order),
      fit_window_(2 * ctx.points_per_week),
      refit_interval_(ctx.points_per_day),
      diffs_(fit_window_) {}

std::string ArimaDetector::name() const {
  return "arima(auto)";
}

std::size_t ArimaDetector::warmup_points() const {
  // Enough differenced points for a stable first fit.
  return std::max<std::size_t>(64, refit_interval_);
}

void ArimaDetector::refit() {
  std::vector<double> window;
  diffs_.copy_ordered(window);
  const ArParameters fitted = fit_ar_by_aic(window, max_order_);
  if (fitted.order() > 0) params_ = fitted;
  since_refit_ = 0;
}

double ArimaDetector::feed(double value) {
  ++seen_;
  if (util::is_missing(value)) return 0.0;
  if (!has_last_) {
    last_value_ = value;
    has_last_ = true;
    return 0.0;
  }

  const double diff = value - last_value_;
  last_value_ = value;

  double severity = 0.0;
  const auto order = static_cast<std::size_t>(params_.order());
  if (order > 0 && diffs_.size() >= order) {
    double predicted_diff = 0.0;
    for (std::size_t i = 0; i < order; ++i) {
      predicted_diff += params_.phi[i] * diffs_.back(i);
    }
    severity = std::abs(diff - predicted_diff);
  }

  diffs_.push(diff);
  ++since_refit_;
  const bool first_fit =
      params_.order() == 0 && diffs_.size() >= warmup_points();
  if (first_fit || since_refit_ >= refit_interval_) {
    // Amortized: once per refit_interval_ (a day of points). The refit is
    // the one allocating step of the steady state.
    refit();
  }

  return sanitize_severity(severity);
}

void ArimaDetector::reset() {
  diffs_.clear();
  params_ = ArParameters{};
  has_last_ = false;
  last_value_ = 0.0;
  since_refit_ = 0;
  seen_ = 0;
}

}  // namespace opprentice::detectors
