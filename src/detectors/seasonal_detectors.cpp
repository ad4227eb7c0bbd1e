#include "detectors/seasonal_detectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// Floor on the normalization scale so a perfectly flat history does not
// blow the severity up to infinity.
constexpr double kScaleEpsilonFraction = 1e-6;

std::string weeks_name(const char* base, std::size_t win_weeks) {
  std::ostringstream out;
  out << base << "(win=" << win_weeks << "w)";
  return out.str();
}

}  // namespace

SeasonalDetectorBase::SeasonalDetectorBase(std::size_t period_points,
                                           std::size_t samples_per_slot,
                                           std::size_t scale_window,
                                           bool robust,
                                           ScaleSource scale_source)
    : period_(period_points),
      samples_per_slot_(samples_per_slot),
      robust_(robust),
      scale_source_(scale_source),
      // The historical families scale by the slot itself and never
      // read this ring.
      residuals_(scale_source == ScaleSource::kRecentResiduals ? scale_window
                                                               : 1),
      sorted_residuals_(
          robust && scale_source == ScaleSource::kRecentResiduals
              ? scale_window
              : 0) {
  if (period_ == 0 || samples_per_slot_ == 0 ||
      samples_per_slot_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "SeasonalDetectorBase: period and samples per slot must be positive");
  }
  slot_values_.resize(period_ * samples_per_slot_);
  slot_held_.resize(period_);
  if (robust_) slot_scratch_.resize(samples_per_slot_);
}

double SeasonalDetectorBase::feed(double value) {
  const std::size_t slot = index_ % period_;
  ++index_;
  double* values = &slot_values_[slot * samples_per_slot_];
  std::uint32_t& held = slot_held_[slot];

  double severity = 0.0;
  if (!util::is_missing(value) && held >= 1) {
    // Oldest first: mean and stddev sum in that order. The robust
    // statistics select inside a copy; the slot MAD below needs only the
    // same values, not their order.
    std::span<double> history{values, held};
    if (robust_) {
      history = std::span<double>{slot_scratch_.data(), held};
      std::copy(values, values + held, history.begin());
    }
    const double center =
        robust_ ? util::median_in_place(history) : util::mean(history);
    if (!util::is_missing(center)) {
      const double residual = value - center;

      double scale = std::numeric_limits<double>::quiet_NaN();
      if (scale_source_ == ScaleSource::kSlotHistory) {
        scale = robust_ ? util::mad_in_place(history) : util::stddev(history);
      } else if (residuals_.size() >= 16) {
        // The scale is taken over the signed residuals of the window.
        scale = robust_ ? sorted_residuals_.mad()
                        : util::stddev(residuals_.window());
      }
      const double floor_scale =
          std::abs(center) * kScaleEpsilonFraction + 1e-9;
      if (!util::is_missing(scale)) {
        severity = std::abs(residual) / std::max(scale, floor_scale);
      }
      if (scale_source_ == ScaleSource::kRecentResiduals) {
        if (robust_) {
          // NaN residuals stay out of the sorted copy, so a NaN leaving
          // (or nothing leaving yet) removes nothing from it.
          sorted_residuals_.replace(
              residuals_.full() ? residuals_.back(residuals_.size() - 1)
                                : std::numeric_limits<double>::quiet_NaN(),
              residual);
        }
        residuals_.push(residual);
      }
    }
  }
  if (!util::is_missing(value)) {
    if (held == samples_per_slot_) {
      std::copy(values + 1, values + held, values);
      values[held - 1] = value;
    } else {
      values[held++] = value;
    }
  }
  return sanitize_severity(severity);
}

void SeasonalDetectorBase::reset() {
  std::fill(slot_held_.begin(), slot_held_.end(), 0);
  residuals_.clear();
  sorted_residuals_.clear();
  index_ = 0;
}

// ---- TSD ----

TsdDetector::TsdDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_week, win_weeks, ctx.points_per_day,
                           /*robust=*/false, ScaleSource::kRecentResiduals),
      win_weeks_(win_weeks),
      points_per_week_(ctx.points_per_week) {}

std::string TsdDetector::name() const {
  return weeks_name("tsd", win_weeks_);
}

std::size_t TsdDetector::warmup_points() const {
  return points_per_week_;
}

// ---- TSD MAD ----

TsdMadDetector::TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_week, win_weeks, ctx.points_per_day,
                           /*robust=*/true, ScaleSource::kRecentResiduals),
      win_weeks_(win_weeks),
      points_per_week_(ctx.points_per_week) {}

std::string TsdMadDetector::name() const {
  return weeks_name("tsd_mad", win_weeks_);
}

std::size_t TsdMadDetector::warmup_points() const {
  return points_per_week_;
}

// ---- Historical average ----

HistoricalAverageDetector::HistoricalAverageDetector(std::size_t win_weeks,
                                                     const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_day, 7 * win_weeks,
                           ctx.points_per_day,
                           /*robust=*/false, ScaleSource::kSlotHistory),
      win_weeks_(win_weeks),
      points_per_day_(ctx.points_per_day) {}

std::string HistoricalAverageDetector::name() const {
  return weeks_name("historical_average", win_weeks_);
}

std::size_t HistoricalAverageDetector::warmup_points() const {
  // Need at least a handful of same-slot days for a usable sigma.
  return 3 * points_per_day_;
}

// ---- Historical MAD ----

HistoricalMadDetector::HistoricalMadDetector(std::size_t win_weeks,
                                             const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_day, 7 * win_weeks,
                           ctx.points_per_day,
                           /*robust=*/true, ScaleSource::kSlotHistory),
      win_weeks_(win_weeks),
      points_per_day_(ctx.points_per_day) {}

std::string HistoricalMadDetector::name() const {
  return weeks_name("historical_mad", win_weeks_);
}

std::size_t HistoricalMadDetector::warmup_points() const {
  return 3 * points_per_day_;
}

}  // namespace opprentice::detectors
