// The simple severity extractors of Table 3:
//   simple threshold, diff, simple MA, weighted MA, MA of diff, EWMA.
#pragma once

#include <cstddef>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"

namespace opprentice::detectors {

// Static-threshold detector (Amazon CloudWatch style): the severity is the
// value itself, so any sThld on the severity is a static value threshold.
class SimpleThresholdDetector final : public Detector {
 public:
  SimpleThresholdDetector() = default;
  std::string name() const override;
  std::size_t warmup_points() const override { return 0; }
  double feed(double value) override;
  void reset() override {}
};

// "Diff": absolute difference against the point one lag ago. The paper
// samples lag in {last-slot, last-day, last-week}.
enum class DiffLag { kLastSlot, kLastDay, kLastWeek };

class DiffDetector final : public Detector {
 public:
  DiffDetector(DiffLag lag, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override { return lag_points_; }
  double feed(double value) override;
  void reset() override;

 private:
  DiffLag lag_;
  std::size_t lag_points_ = 0;
  RingBuffer<double> history_;
};

// Simple moving average: severity = |value - mean of previous win points|.
class SimpleMaDetector final : public Detector {
 public:
  explicit SimpleMaDetector(std::size_t window);
  std::string name() const override;
  std::size_t warmup_points() const override { return window_; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t window_ = 0;
  RingBuffer<double> history_;
};

// Weighted moving average with linearly increasing weights (most recent
// point weighs most): severity = |value - weighted mean of prev win points|.
class WeightedMaDetector final : public Detector {
 public:
  explicit WeightedMaDetector(std::size_t window);
  std::string name() const override;
  std::size_t warmup_points() const override { return window_; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t window_ = 0;
  RingBuffer<double> history_;
};

// "MA of diff": moving average of the absolute last-slot differences;
// designed (by the studied search engine) to surface continuous jitters.
class MaOfDiffDetector final : public Detector {
 public:
  explicit MaOfDiffDetector(std::size_t window);
  std::string name() const override;
  std::size_t warmup_points() const override { return window_ + 1; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t window_ = 0;
  RingBuffer<double> diffs_;
  double diff_sum_ = 0.0;
  double last_value_ = 0.0;
  bool has_last_ = false;
};

// EWMA prediction: severity = |value - EWMA of past values|;
// alpha weighs the most recent data.
class EwmaDetector final : public Detector {
 public:
  explicit EwmaDetector(double alpha);
  std::string name() const override;
  std::size_t warmup_points() const override { return 8; }
  double feed(double value) override;
  void reset() override;

 private:
  double alpha_ = 0.0;
  double prediction_ = 0.0;
  bool initialized_ = false;
};

}  // namespace opprentice::detectors
