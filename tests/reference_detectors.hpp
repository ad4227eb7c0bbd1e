// Test-only reference detectors: the plain per-point implementations of
// the SVD, wavelet and seasonal detectors, which recompute their
// statistic from the whole window on every point (util::svd,
// util::band_reconstruction, util::median/util::mad, Welford's stddev).
// The detectors in src/detectors are checked against them by
// tests/detector_oracle_test.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/wavelet.hpp"

namespace opprentice::detectors::reference {

// Residual of the newest point after a rank-1 SVD re-projection of the
// row x col lag matrix, the basis fitted on the past segments only.
class SvdDetector final : public Detector {
 public:
  SvdDetector(std::size_t rows, std::size_t cols);

  std::string name() const override;
  std::size_t warmup_points() const override { return rows_ * cols_; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  RingBuffer<double> history_;
  double last_value_ = 0.0;
  bool has_last_ = false;
};

// Haar band reconstruction of the whole window on every point.
class WaveletDetector final : public Detector {
 public:
  WaveletDetector(std::size_t win_days, util::FrequencyBand band,
                  const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return window_points_; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t win_days_ = 0;
  util::FrequencyBand band_;
  std::size_t window_points_ = 0;
  RingBuffer<double> history_;
  double last_value_ = 0.0;
  bool has_last_ = false;
};

// The four seasonal families as they were first written: a ring per
// slot, and each statistic through util::median/util::mad (TSD-MAD,
// historical MAD) or util::mean and Welford's stddev (TSD, historical
// average). TSD and TSD-MAD center on the same slot over past weeks and
// scale by a day of recent residuals; the historical families center
// and scale on the same slot over past days.
class SeasonalDetector final : public Detector {
 public:
  enum class Kind { kTsd, kTsdMad, kHistoricalAverage, kHistoricalMad };

  SeasonalDetector(Kind kind, std::size_t win_weeks, const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override;
  double feed(double value) override;
  void reset() override;

 private:
  bool robust() const;
  bool historical() const;

  Kind kind_;
  std::size_t win_weeks_ = 0;
  SeriesContext ctx_;
  std::size_t period_ = 0;
  std::vector<RingBuffer<double>> slots_;
  RingBuffer<double> residuals_;
  std::size_t index_ = 0;
};

// True for the families above: svd, wavelet and the four seasonal ones.
bool has_reference(const std::string& family);

// One family's configurations in registry order, as reference detectors.
std::vector<DetectorPtr> reference_family(const std::string& family,
                                          const SeriesContext& ctx);

// The standard 133-configuration bank in registry order, with every
// configuration of a family that has_reference() replaced by its
// reference.
std::vector<DetectorPtr> reference_configurations(const SeriesContext& ctx);

}  // namespace opprentice::detectors::reference
