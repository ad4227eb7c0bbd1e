#include "detectors/seasonal_detectors.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace opprentice::detectors {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// Floor on the normalization scale so a perfectly flat history does not
// blow the severity up to infinity.
constexpr double kScaleEpsilonFraction = 1e-6;
// A residual window gives a scale once it holds this many residuals.
constexpr std::size_t kMinResiduals = 16;

double severity_of(double residual, double scale, double center) {
  if (util::is_missing(scale)) return 0.0;
  const double floor_scale = std::abs(center) * kScaleEpsilonFraction + 1e-9;
  return sanitize_severity(std::abs(residual) / std::max(scale, floor_scale));
}

// util::stddev of M windows of n values at once: the same two passes in
// the same order per window, interleaved so the M sums do not wait on
// each other. A window holding a NaN (which util::stddev skips) makes its
// sum NaN and is left for the caller: out[k] is then NaN and the return
// value has bit k set.
template <std::size_t M>
unsigned stddev_sweep(const double* const* windows, std::size_t n,
                      double* out) {
  std::array<double, M> sum{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < M; ++k) sum[k] += windows[k][i];
  }
  const double count = static_cast<double>(n);
  std::array<double, M> mean{};
  for (std::size_t k = 0; k < M; ++k) mean[k] = sum[k] / count;
  std::array<double, M> squares{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < M; ++k) {
      const double d = windows[k][i] - mean[k];
      squares[k] += d * d;
    }
  }
  unsigned skipped = 0;
  for (std::size_t k = 0; k < M; ++k) {
    const double variance = squares[k] / count;
    out[k] = std::isnan(variance) ? kNaN : std::sqrt(variance);
    if (std::isnan(sum[k])) skipped |= 1u << k;
  }
  return skipped;
}

using Sweep = unsigned (*)(const double* const*, std::size_t, double*);
constexpr Sweep kSweeps[] = {nullptr,          &stddev_sweep<1>,
                             &stddev_sweep<2>, &stddev_sweep<3>,
                             &stddev_sweep<4>, &stddev_sweep<5>,
                             &stddev_sweep<6>, &stddev_sweep<7>,
                             &stddev_sweep<8>};
constexpr std::size_t kMaxSweepLanes = std::size(kSweeps) - 1;

}  // namespace

// ---- SeasonalSlotStore ----

void SeasonalSlotStore::SlotTable::resize(std::size_t new_depth) {
  if (period == 0 || new_depth > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "SeasonalSlotStore: needs a positive period and a depth below 2^32");
  }
  depth = new_depth;
  values.assign(period * depth, 0.0);
  held.assign(period, 0);
}

std::span<const double> SeasonalSlotStore::SlotTable::last(
    std::size_t n) const {
  const std::size_t h = held[slot];
  const std::size_t k = std::min<std::size_t>(h, n);
  return {values.data() + slot * depth + (h - k), k};
}

void SeasonalSlotStore::SlotTable::push(double value) {
  double* slot_values = &values[slot * depth];
  std::uint32_t& h = held[slot];
  if (h == depth) {
    std::copy(slot_values + 1, slot_values + h, slot_values);
    slot_values[h - 1] = value;
  } else {
    slot_values[h++] = value;
  }
}

SeasonalSlotStore::SeasonalSlotStore(const SeriesContext& ctx) {
  week_.period = ctx.points_per_week;
  day_.period = ctx.points_per_day;
}

void SeasonalSlotStore::require_week_depth(std::size_t depth) {
  if (depth > week_.depth) {
    week_.resize(depth);
    week_sorted_.resize(depth);
    week_medians_.resize(depth);
  }
  reset();
}

void SeasonalSlotStore::require_day_depth(std::size_t depth) {
  if (depth > day_.depth) day_.resize(depth);
  reset();
}

std::size_t SeasonalSlotStore::add_sorted_day_window(std::size_t depth) {
  if (day_.period == 0 || depth > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "SeasonalSlotStore: needs a positive period and a depth below 2^32");
  }
  window_depth_.push_back(depth);
  if (depth > sorted_depth_) {
    sorted_depth_ = depth;
    sorted_.assign(day_.period * depth, 0.0);
    sorted_tag_.assign(day_.period * depth, 0);
    day_pushed_.assign(day_.period, 0);
    window_values_.resize(depth);
  }
  reset();
  return window_depth_.size() - 1;
}

std::size_t SeasonalSlotStore::add_residual_lane(std::size_t capacity) {
  lanes_.emplace_back(capacity);
  scales_.push_back(kNaN);
  reset();
  return lanes_.size() - 1;
}

void SeasonalSlotStore::arrive(std::size_t index, double value) {
  if (index == next_) {
    if (!has_next_value_) {
      next_value_ = value;
      has_next_value_ = true;
    }
    return;
  }
  if (index == next_ + 1 && has_next_value_) {
    absorb(next_value_);
    ++next_;
    next_value_ = value;
    return;
  }
  if (index != 0) {
    throw std::logic_error("SeasonalSlotStore: reader out of step");
  }
  reset();
  next_value_ = value;
  has_next_value_ = true;
}

// Files the value of point next_ into its slots, then moves every table
// on to the next point's slot.
void SeasonalSlotStore::absorb(double value) {
  if (!util::is_missing(value)) {
    if (sorted_depth_ > 0) insert_sorted(value);
    if (week_.depth > 0) week_.push(value);
    if (day_.depth > 0) day_.push(value);
  }
  week_.advance();
  day_.advance();
}

std::span<const double> SeasonalSlotStore::week_values(
    std::size_t depth) const {
  return week_.last(depth);
}

std::span<const double> SeasonalSlotStore::day_values(
    std::size_t depth) const {
  return day_.last(depth);
}

// A full slot drops its oldest value: the hole it leaves slides to where
// the new value belongs, moving only the values in between.
void SeasonalSlotStore::insert_sorted(double value) {
  double* values = &sorted_[day_.slot * sorted_depth_];
  std::uint32_t* tags = &sorted_tag_[day_.slot * sorted_depth_];
  std::uint32_t& pushed = day_pushed_[day_.slot];
  const std::size_t size = std::min<std::size_t>(pushed, sorted_depth_);
  const bool full = size == sorted_depth_;
  std::size_t at = size;
  if (full) {
    const std::uint32_t oldest =
        pushed - static_cast<std::uint32_t>(sorted_depth_);
    at = static_cast<std::size_t>(std::find(tags, tags + size, oldest) - tags);
  }
  const std::size_t last = full ? size - 1 : size;
  for (; at > 0 && values[at - 1] > value; --at) {
    values[at] = values[at - 1];
    tags[at] = tags[at - 1];
  }
  for (; at < last && values[at + 1] < value; ++at) {
    values[at] = values[at + 1];
    tags[at] = tags[at + 1];
  }
  values[at] = value;
  tags[at] = pushed++;
}

std::span<const double> SeasonalSlotStore::sorted_day_values(
    std::size_t window) {
  const double* values = &sorted_[day_.slot * sorted_depth_];
  const std::uint32_t* tags = &sorted_tag_[day_.slot * sorted_depth_];
  const std::uint32_t pushed = day_pushed_[day_.slot];
  const std::size_t size = std::min<std::size_t>(pushed, sorted_depth_);
  const std::uint32_t first =
      pushed - std::min(pushed, static_cast<std::uint32_t>(window_depth_[window]));
  std::size_t n = 0;
  for (std::size_t i = 0; i < size; ++i) {
    window_values_[n] = values[i];
    n += tags[i] >= first ? 1 : 0;
  }
  return {window_values_.data(), n};
}

double SeasonalSlotStore::week_median(std::size_t depth) {
  if (medians_for_ != next_ + 1) {
    compute_week_medians();
    medians_for_ = next_ + 1;
  }
  const std::size_t held = week_.held[week_.slot];
  return week_medians_[std::min(depth, held) - 1];
}

// Inserts the slot's values newest first into a sorted copy; after j of
// them it holds the last j values, whose median is util::median's (the
// same order statistics, see util::sorted_median).
void SeasonalSlotStore::compute_week_medians() {
  const std::span<const double> values = week_.last(week_.depth);
  for (std::size_t j = 0; j < values.size(); ++j) {
    const double x = values[values.size() - 1 - j];
    std::size_t at = j;
    for (; at > 0 && week_sorted_[at - 1] > x; --at) {
      week_sorted_[at] = week_sorted_[at - 1];
    }
    week_sorted_[at] = x;
    week_medians_[j] =
        util::sorted_median(std::span<const double>(week_sorted_).first(j + 1));
  }
}

double SeasonalSlotStore::residual_scale(std::size_t lane) {
  if (scales_for_ != next_ + 1) {
    compute_scales();
    scales_for_ = next_ + 1;
  }
  return scales_[lane];
}

// The lanes' scales before any of this point's residuals is pushed. The
// lanes of a bank's TSD configurations push on the same points, so they
// are swept together. A lane holding a NaN residual, and every lane once
// they went out of step (a center that is NaN for some windows only,
// from infinities in the slot), takes util::stddev's own pass.
void SeasonalSlotStore::compute_scales() {
  const std::size_t n = lanes_.front().size();
  const bool together =
      n >= kMinResiduals && lanes_.size() <= kMaxSweepLanes &&
      std::all_of(lanes_.begin(), lanes_.end(),
                  [n](const RingBuffer<double>& lane) {
                    return lane.size() == n;
                  });
  if (together) {
    std::array<const double*, kMaxSweepLanes> windows{};
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      windows[k] = lanes_[k].window().data();
    }
    const unsigned with_nan =
        kSweeps[lanes_.size()](windows.data(), n, scales_.data());
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if ((with_nan >> k & 1u) != 0) {
        scales_[k] = util::stddev(lanes_[k].window());
      }
    }
    return;
  }
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    scales_[k] = lanes_[k].size() >= kMinResiduals
                     ? util::stddev(lanes_[k].window())
                     : kNaN;
  }
}

void SeasonalSlotStore::push_residual(std::size_t lane, double residual) {
  lanes_[lane].push(residual);
}

void SeasonalSlotStore::reset() {
  std::fill(week_.held.begin(), week_.held.end(), 0);
  std::fill(day_.held.begin(), day_.held.end(), 0);
  std::fill(day_pushed_.begin(), day_pushed_.end(), 0);
  week_.slot = 0;
  day_.slot = 0;
  for (RingBuffer<double>& lane : lanes_) lane.clear();
  medians_for_ = 0;
  scales_for_ = 0;
  next_ = 0;
  has_next_value_ = false;
}

// ---- SeasonalReader ----

SeasonalReader::SeasonalReader(const char* family, std::size_t win_weeks,
                               std::size_t warmup, const SeriesContext& ctx)
    : store_(ctx.slot_store != nullptr
                 ? ctx.slot_store
                 : std::make_shared<SeasonalSlotStore>(ctx)),
      win_weeks_(win_weeks),
      family_(family),
      warmup_(warmup) {
  if (win_weeks == 0) {
    throw std::invalid_argument("seasonal detector: window must be positive");
  }
}

std::string SeasonalReader::name() const {
  std::ostringstream out;
  out << family_ << "(win=" << win_weeks_ << "w)";
  return out.str();
}

bool SeasonalReader::arrive(double value) {
  store_->arrive(seen_++, value);
  return !util::is_missing(value);
}

void SeasonalReader::reset() {
  seen_ = 0;
  store_->reset();
}

// ---- TSD ----

TsdDetector::TsdDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalReader("tsd", win_weeks, ctx.points_per_week, ctx) {
  store_->require_week_depth(win_weeks);
  lane_ = store_->add_residual_lane(ctx.points_per_day);
}

double TsdDetector::feed(double value) {
  if (!arrive(value)) return 0.0;
  const std::span<const double> history = store_->week_values(win_weeks_);
  if (history.empty()) return 0.0;
  const double center = util::mean(history);
  if (util::is_missing(center)) return 0.0;
  const double residual = value - center;
  const double severity =
      severity_of(residual, store_->residual_scale(lane_), center);
  store_->push_residual(lane_, residual);
  return severity;
}

// ---- TSD MAD ----

TsdMadDetector::TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalReader("tsd_mad", win_weeks, ctx.points_per_week, ctx),
      residuals_(ctx.points_per_day),
      sorted_residuals_(ctx.points_per_day) {
  store_->require_week_depth(win_weeks);
}

double TsdMadDetector::feed(double value) {
  if (!arrive(value)) return 0.0;
  if (store_->week_values(win_weeks_).empty()) return 0.0;
  const double center = store_->week_median(win_weeks_);
  if (util::is_missing(center)) return 0.0;
  const double residual = value - center;
  const double scale =
      residuals_.size() >= kMinResiduals ? sorted_residuals_.mad() : kNaN;
  // NaN residuals stay out of the sorted copy, so a NaN leaving (or
  // nothing leaving yet) removes nothing from it.
  sorted_residuals_.replace(
      residuals_.full() ? residuals_.window().front() : kNaN, residual);
  residuals_.push(residual);
  return severity_of(residual, scale, center);
}

void TsdMadDetector::reset() {
  SeasonalReader::reset();
  residuals_.clear();
  sorted_residuals_.clear();
}

// ---- Historical average ----

HistoricalAverageDetector::HistoricalAverageDetector(std::size_t win_weeks,
                                                     const SeriesContext& ctx)
    // Needs a handful of same-slot days for a usable sigma.
    : SeasonalReader("historical_average", win_weeks, 3 * ctx.points_per_day,
                     ctx) {
  store_->require_day_depth(7 * win_weeks);
}

double HistoricalAverageDetector::feed(double value) {
  if (!arrive(value)) return 0.0;
  const std::span<const double> history = store_->day_values(7 * win_weeks_);
  if (history.empty()) return 0.0;
  const double center = util::mean(history);
  if (util::is_missing(center)) return 0.0;
  return severity_of(value - center, util::stddev(history, center), center);
}

// ---- Historical MAD ----

HistoricalMadDetector::HistoricalMadDetector(std::size_t win_weeks,
                                             const SeriesContext& ctx)
    : SeasonalReader("historical_mad", win_weeks, 3 * ctx.points_per_day,
                     ctx),
      window_(store_->add_sorted_day_window(7 * win_weeks)) {}

double HistoricalMadDetector::feed(double value) {
  if (!arrive(value)) return 0.0;
  const std::span<const double> sorted = store_->sorted_day_values(window_);
  if (sorted.empty()) return 0.0;
  const double center = util::sorted_median(sorted);
  if (util::is_missing(center)) return 0.0;
  return severity_of(value - center, util::sorted_mad(sorted), center);
}

}  // namespace opprentice::detectors
