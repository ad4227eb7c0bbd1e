#include "detectors/basic_detectors.hpp"

#include <cmath>
#include <span>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

std::string with_param(const char* base, const char* param, double v) {
  std::ostringstream out;
  out << base << '(' << param << '=' << v << ')';
  return out.str();
}

std::string with_param(const char* base, const char* param, std::size_t v) {
  std::ostringstream out;
  out << base << '(' << param << '=' << v << ')';
  return out.str();
}

}  // namespace

// ---- SimpleThresholdDetector ----

std::string SimpleThresholdDetector::name() const {
  return "simple_threshold";
}

double SimpleThresholdDetector::feed(double value) {
  if (util::is_missing(value)) return 0.0;
  return sanitize_severity(value);
}

// ---- DiffDetector ----

DiffDetector::DiffDetector(DiffLag lag, const SeriesContext& ctx)
    : lag_(lag),
      lag_points_(lag == DiffLag::kLastSlot ? 1
                  : lag == DiffLag::kLastDay ? ctx.points_per_day
                                             : ctx.points_per_week),
      history_(lag_points_) {}

std::string DiffDetector::name() const {
  switch (lag_) {
    case DiffLag::kLastSlot: return "diff(lag=slot)";
    case DiffLag::kLastDay: return "diff(lag=day)";
    case DiffLag::kLastWeek: return "diff(lag=week)";
  }
  return "diff(?)";
}

double DiffDetector::feed(double value) {
  double severity = 0.0;
  if (!util::is_missing(value) && history_.full()) {
    const double ref = history_.back(lag_points_ - 1);
    if (!util::is_missing(ref)) severity = std::abs(value - ref);
  }
  history_.push(value);
  return sanitize_severity(severity);
}

void DiffDetector::reset() {
  history_.clear();
}

// ---- SimpleMaDetector ----

SimpleMaDetector::SimpleMaDetector(std::size_t window)
    : window_(window), history_(window) {}

std::string SimpleMaDetector::name() const {
  return with_param("simple_ma", "win", window_);
}

double SimpleMaDetector::feed(double value) {
  double severity = 0.0;
  // The mean of the present values among the previous window_ points,
  // summed newest first; NaNs (missing points) are skipped.
  if (!util::is_missing(value) && history_.full()) {
    const std::span<const double> held = history_.window();
    std::size_t present = 0;
    double sum = 0.0;
    for (std::size_t age = 0; age < window_; ++age) {
      const double h = held[window_ - 1 - age];
      if (!util::is_missing(h)) {
        sum += h;
        ++present;
      }
    }
    if (present > 0) {
      severity = std::abs(value - sum / static_cast<double>(present));
    }
  }
  history_.push(value);
  return sanitize_severity(severity);
}

void SimpleMaDetector::reset() {
  history_.clear();
}

// ---- WeightedMaDetector ----

WeightedMaDetector::WeightedMaDetector(std::size_t window)
    : window_(window), history_(window) {}

std::string WeightedMaDetector::name() const {
  return with_param("weighted_ma", "win", window_);
}

double WeightedMaDetector::feed(double value) {
  double severity = 0.0;
  if (!util::is_missing(value) && history_.full()) {
    const std::span<const double> held = history_.window();
    double sum = 0.0, wsum = 0.0;
    for (std::size_t age = 0; age < window_; ++age) {
      const double h = held[window_ - 1 - age];
      if (util::is_missing(h)) continue;
      const double w = static_cast<double>(window_ - age);  // recent = heavy
      sum += w * h;
      wsum += w;
    }
    if (wsum > 0.0) severity = std::abs(value - sum / wsum);
  }
  history_.push(value);
  return sanitize_severity(severity);
}

void WeightedMaDetector::reset() {
  history_.clear();
}

// ---- MaOfDiffDetector ----

MaOfDiffDetector::MaOfDiffDetector(std::size_t window)
    : window_(window), diff_sum_(window) {}

std::string MaOfDiffDetector::name() const {
  return with_param("ma_of_diff", "win", window_);
}

double MaOfDiffDetector::feed(double value) {
  if (util::is_missing(value)) return 0.0;
  if (has_last_) {
    diff_sum_.push(std::abs(value - last_value_));
    if (diffs_ < window_) ++diffs_;
  }
  last_value_ = value;
  has_last_ = true;
  if (diffs_ < window_) return 0.0;
  return sanitize_severity(diff_sum_.sum() / static_cast<double>(window_));
}

void MaOfDiffDetector::reset() {
  diff_sum_.clear();
  diffs_ = 0;
  has_last_ = false;
}

// ---- EwmaDetector ----

EwmaDetector::EwmaDetector(double alpha) : alpha_(alpha) {}

std::string EwmaDetector::name() const {
  return with_param("ewma", "alpha", alpha_);
}

double EwmaDetector::feed(double value) {
  if (util::is_missing(value)) return 0.0;
  if (!initialized_) {
    prediction_ = value;
    initialized_ = true;
    return 0.0;
  }
  const double severity = std::abs(value - prediction_);
  prediction_ = alpha_ * value + (1.0 - alpha_) * prediction_;
  return sanitize_severity(severity);
}

void EwmaDetector::reset() {
  prediction_ = 0.0;
  initialized_ = false;
}

}  // namespace opprentice::detectors
