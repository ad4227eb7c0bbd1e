#include "detectors/wavelet_detector.hpp"

#include <cmath>
#include <sstream>

namespace opprentice::detectors {
namespace {

const char* band_name(util::FrequencyBand band) {
  switch (band) {
    case util::FrequencyBand::kLow: return "low";
    case util::FrequencyBand::kMid: return "mid";
    case util::FrequencyBand::kHigh: return "high";
  }
  return "?";
}

}  // namespace

WaveletDetector::WaveletDetector(std::size_t win_days,
                                 util::FrequencyBand band,
                                 const SeriesContext& ctx)
    : win_days_(win_days),
      band_(band),
      window_points_(util::floor_pow2(win_days * ctx.points_per_day)),
      block_sums_(1) {
  // util::band_reconstruction's split of the Haar levels: the coarsest
  // third (with the approximation) is low, the middle third mid, the
  // finest third high.
  std::size_t levels = 0;
  while ((std::size_t{1} << levels) < window_points_) ++levels;
  const std::size_t low_end = (levels + 2) / 3;
  const std::size_t mid_end = low_end + (levels + 1) / 3;
  std::size_t fine_level = low_end;
  coarse_level_ = low_end;
  if (band_ == util::FrequencyBand::kMid) {
    fine_level = mid_end;
  } else if (band_ == util::FrequencyBand::kHigh) {
    coarse_level_ = mid_end;
    fine_level = levels;
  }
  for (std::size_t level = coarse_level_; level <= fine_level; ++level) {
    trailing_.emplace_back(window_points_ >> level);
  }
  if (band_ == util::FrequencyBand::kLow) {
    // The low band keeps the approximation and the coarsest details, so
    // it is constant on each of the window's 2^low_end blocks: the
    // block's mean.
    const std::size_t block = window_points_ >> low_end;
    block_sums_ = RingBuffer<double>(window_points_ - block + 1);
    block_means_.resize(window_points_ / block);
  }
}

std::string WaveletDetector::name() const {
  std::ostringstream out;
  out << "wavelet(win=" << win_days_ << "d,freq=" << band_name(band_) << ')';
  return out.str();
}

double WaveletDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  push(value);
  if (held_ < window_points_) return 0.0;

  double severity;
  if (band_ == util::FrequencyBand::kLow) {
    // Slow components: how far has the baseline drifted from its window
    // median (captures ramps and level shifts). Every block mean repeats
    // equally often, so the window median is theirs.
    const std::size_t blocks = block_means_.size();
    const std::size_t block = window_points_ / blocks;
    for (std::size_t b = 0; b < blocks; ++b) {
      block_means_[b] = block_sums_.back((blocks - 1 - b) * block) /
                        static_cast<double>(block);
    }
    const double newest = block_means_[blocks - 1];
    severity = std::abs(newest - util::median_in_place(block_means_));
  } else {
    // Fast components are zero-mean: the magnitude itself is the severity.
    // At each level the newest point ends a block of 2h points, where the
    // level's component is (mean of the last h - mean of the h before)/2.
    double component = 0.0;
    for (std::size_t i = 1; i < trailing_.size(); ++i) {
      const double block =
          static_cast<double>(window_points_ >> (coarse_level_ + i - 1));
      component += (2.0 * trailing_[i].sum() - trailing_[i - 1].sum()) / block;
    }
    severity = std::abs(component);
  }
  return sanitize_severity(severity);
}

void WaveletDetector::push(double value) {
  if (held_ < window_points_) ++held_;
  for (auto& sum : trailing_) sum.push(value);
  if (band_ == util::FrequencyBand::kLow) {
    block_sums_.push(trailing_[0].sum());
  }
}

void WaveletDetector::reset() {
  for (auto& sum : trailing_) sum.clear();
  block_sums_.clear();
  held_ = 0;
  has_last_ = false;
  last_value_ = 0.0;
}

}  // namespace opprentice::detectors
