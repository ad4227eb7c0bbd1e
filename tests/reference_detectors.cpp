#include "reference_detectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>

#include "detectors/registry.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/svd.hpp"

namespace opprentice::detectors::reference {
namespace {

// The Table 3 grids of registry.cpp, in its order.
constexpr std::size_t kSvdRows[] = {10, 20, 30, 40, 50};
constexpr std::size_t kSvdCols[] = {3, 5, 7};
constexpr std::size_t kWaveletDays[] = {3, 5, 7};
constexpr util::FrequencyBand kWaveletBands[] = {
    util::FrequencyBand::kLow, util::FrequencyBand::kMid,
    util::FrequencyBand::kHigh};
constexpr std::size_t kWeekWindows[] = {1, 2, 3, 4, 5};

constexpr double kScaleEpsilonFraction = 1e-6;

const char* band_name(util::FrequencyBand band) {
  switch (band) {
    case util::FrequencyBand::kLow: return "low";
    case util::FrequencyBand::kMid: return "mid";
    case util::FrequencyBand::kHigh: return "high";
  }
  return "?";
}

}  // namespace

// ---- SVD ----

SvdDetector::SvdDetector(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), history_(rows * cols) {}

std::string SvdDetector::name() const {
  std::ostringstream out;
  out << "svd(row=" << rows_ << ",col=" << cols_ << ')';
  return out.str();
}

double SvdDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) history_.push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  history_.push(value);
  if (!history_.full()) return 0.0;

  // Column c holds segment c of the window, oldest first; the basis is
  // fitted on the past segments and the newest one projected onto it.
  util::Matrix past(rows_, cols_ - 1);
  std::vector<double> newest(rows_);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t pos = c * rows_ + r;
      const std::size_t age = rows_ * cols_ - 1 - pos;
      const double v = history_.back(age);
      if (c + 1 < cols_) {
        past(r, c) = v;
      } else {
        newest[r] = v;
      }
    }
  }
  const util::SvdResult d = util::svd(past);
  double coeff = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) coeff += d.u(r, 0) * newest[r];
  const double residual = newest[rows_ - 1] - coeff * d.u(rows_ - 1, 0);
  return sanitize_severity(std::abs(residual));
}

void SvdDetector::reset() {
  history_.clear();
  has_last_ = false;
  last_value_ = 0.0;
}

// ---- Wavelet ----

WaveletDetector::WaveletDetector(std::size_t win_days,
                                 util::FrequencyBand band,
                                 const SeriesContext& ctx)
    : win_days_(win_days),
      band_(band),
      window_points_(util::floor_pow2(win_days * ctx.points_per_day)),
      history_(window_points_) {}

std::string WaveletDetector::name() const {
  std::ostringstream out;
  out << "wavelet(win=" << win_days_ << "d,freq=" << band_name(band_) << ')';
  return out.str();
}

double WaveletDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) history_.push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  history_.push(value);
  if (!history_.full()) return 0.0;

  const std::vector<double> band_signal =
      util::band_reconstruction(history_.window(), band_);
  const double severity =
      band_ == util::FrequencyBand::kLow
          ? std::abs(band_signal.back() - util::median(band_signal))
          : std::abs(band_signal.back());
  return sanitize_severity(severity);
}

void WaveletDetector::reset() {
  history_.clear();
  has_last_ = false;
  last_value_ = 0.0;
}

// ---- Seasonal families ----

namespace {

// Population stddev by Welford's update, one division per element.
double welford_stddev(std::span<const double> xs) {
  util::RunningStats stats;
  for (const double x : xs) stats.add(x);
  return stats.stddev();
}

}  // namespace

SeasonalDetector::SeasonalDetector(Kind kind, std::size_t win_weeks,
                                   const SeriesContext& ctx)
    : kind_(kind),
      win_weeks_(win_weeks),
      ctx_(ctx),
      period_(historical() ? ctx.points_per_day : ctx.points_per_week),
      residuals_(ctx.points_per_day) {
  const std::size_t samples = historical() ? 7 * win_weeks : win_weeks;
  slots_.reserve(period_);
  for (std::size_t i = 0; i < period_; ++i) slots_.emplace_back(samples);
}

bool SeasonalDetector::robust() const {
  return kind_ == Kind::kTsdMad || kind_ == Kind::kHistoricalMad;
}

bool SeasonalDetector::historical() const {
  return kind_ == Kind::kHistoricalAverage || kind_ == Kind::kHistoricalMad;
}

std::string SeasonalDetector::name() const {
  const char* base = "";
  switch (kind_) {
    case Kind::kTsd: base = "tsd"; break;
    case Kind::kTsdMad: base = "tsd_mad"; break;
    case Kind::kHistoricalAverage: base = "historical_average"; break;
    case Kind::kHistoricalMad: base = "historical_mad"; break;
  }
  std::ostringstream out;
  out << base << "(win=" << win_weeks_ << "w)";
  return out.str();
}

std::size_t SeasonalDetector::warmup_points() const {
  return historical() ? 3 * ctx_.points_per_day : ctx_.points_per_week;
}

double SeasonalDetector::feed(double value) {
  const std::size_t slot = index_ % period_;
  ++index_;
  RingBuffer<double>& history = slots_[slot];

  double severity = 0.0;
  if (!util::is_missing(value) && history.size() >= 1) {
    const std::span<const double> held = history.window();
    const double center = robust() ? util::median(held) : util::mean(held);
    if (!util::is_missing(center)) {
      const double residual = value - center;
      double scale = std::numeric_limits<double>::quiet_NaN();
      if (historical()) {
        scale = robust() ? util::mad(held) : welford_stddev(held);
      } else if (residuals_.size() >= 16) {
        scale = robust() ? util::mad(residuals_.window())
                         : welford_stddev(residuals_.window());
      }
      const double floor_scale =
          std::abs(center) * kScaleEpsilonFraction + 1e-9;
      if (!util::is_missing(scale)) {
        severity = std::abs(residual) / std::max(scale, floor_scale);
      }
      if (!historical()) residuals_.push(residual);
    }
  }
  if (!util::is_missing(value)) history.push(value);
  return sanitize_severity(severity);
}

void SeasonalDetector::reset() {
  for (auto& s : slots_) s.clear();
  residuals_.clear();
  index_ = 0;
}

// ---- Banks ----

bool has_reference(const std::string& family) {
  return family == "svd" || family == "wavelet" || family == "tsd" ||
         family == "tsd_mad" || family == "historical_average" ||
         family == "historical_mad";
}

std::vector<DetectorPtr> reference_family(const std::string& family,
                                          const SeriesContext& ctx) {
  using Kind = SeasonalDetector::Kind;
  std::vector<DetectorPtr> out;
  if (family == "svd") {
    for (std::size_t rows : kSvdRows) {
      for (std::size_t cols : kSvdCols) {
        out.push_back(std::make_unique<SvdDetector>(rows, cols));
      }
    }
  } else if (family == "wavelet") {
    for (std::size_t days : kWaveletDays) {
      for (util::FrequencyBand band : kWaveletBands) {
        out.push_back(std::make_unique<WaveletDetector>(days, band, ctx));
      }
    }
  } else if (has_reference(family)) {
    const Kind kind = family == "tsd"                  ? Kind::kTsd
                      : family == "tsd_mad"            ? Kind::kTsdMad
                      : family == "historical_average" ? Kind::kHistoricalAverage
                                                       : Kind::kHistoricalMad;
    for (std::size_t weeks : kWeekWindows) {
      out.push_back(std::make_unique<SeasonalDetector>(kind, weeks, ctx));
    }
  } else {
    throw std::invalid_argument("no reference detector for family '" +
                                family + "'");
  }
  return out;
}

std::vector<DetectorPtr> reference_configurations(const SeriesContext& ctx) {
  const DetectorRegistry registry = DetectorRegistry::with_standard_families();
  std::vector<DetectorPtr> bank;
  for (const std::string& family : registry.family_names()) {
    std::vector<DetectorPtr> configs =
        has_reference(family) ? reference_family(family, ctx)
                              : registry.instantiate_family(family, ctx);
    for (auto& d : configs) bank.push_back(std::move(d));
  }
  return bank;
}

}  // namespace opprentice::detectors::reference
