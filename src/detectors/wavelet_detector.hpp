// Wavelet detector [Barford et al., IMW'02].
//
// A Haar multi-resolution analysis splits a sliding window of the signal
// into low / mid / high frequency bands. High/mid severities are the
// magnitude of the newest point's band component (sudden spikes and jitters
// live there); the low severity is the newest deviation of the
// low-frequency baseline from its window median (slow ramp-ups and level
// shifts live there). Table 3 samples win in {3, 5, 7} days and
// freq in {low, mid, high} — 9 configurations.
//
// The window is a power of two, so the newest point ends one dyadic block
// per level: its band component is a sum over the band's levels of
// differences of trailing sums, and the low band is the block means of
// the window. A point costs O(levels) rather than a transform of the
// window (DESIGN.md §6).
#pragma once

#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/hotpath.hpp"
#include "util/stats.hpp"
#include "util/wavelet.hpp"

namespace opprentice::detectors {

class WaveletDetector final : public Detector {
 public:
  WaveletDetector(std::size_t win_days, util::FrequencyBand band,
                  const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return window_points_; }
  OPPRENTICE_HOT double feed(double value) override;
  void reset() override;

 private:
  void push(double value);

  std::size_t win_days_ = 0;
  util::FrequencyBand band_;
  std::size_t window_points_ = 0;  // power of two
  // Haar level (1 = coarsest) just above the band's levels, which are
  // coarse_level_ + 1 .. coarse_level_ + trailing_.size() - 1.
  std::size_t coarse_level_ = 0;
  // trailing_[i] sums the last window_points_ >> (coarse_level_ + i)
  // points; the low band keeps only trailing_[0], one block.
  std::vector<util::SlidingSum> trailing_;
  // Low band: past block sums, one window deep, and the block means.
  RingBuffer<double> block_sums_;
  std::vector<double> block_means_;
  std::size_t held_ = 0;  // points pushed, up to window_points_
  double last_value_ = 0.0;
  bool has_last_ = false;
};

}  // namespace opprentice::detectors
