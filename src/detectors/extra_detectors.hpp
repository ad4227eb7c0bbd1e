// Extension detectors beyond the paper's 14.
//
// §4.3.2 / §8: "Emerging detectors, instead of going through
// time-consuming and often frustrating parameter tuning, can be easily
// plugged into Opprentice". These two families demonstrate that: a CUSUM
// change detector and a Holt (double exponential smoothing) predictor.
// They are NOT part of the standard 133 configurations; add them with
// register_extension_families().
#pragma once

#include "detectors/detector.hpp"
#include "detectors/registry.hpp"
#include "detectors/ring_buffer.hpp"

namespace opprentice::detectors {

// Two-sided CUSUM on standardized residuals from a rolling baseline:
//   S+ = max(0, S+ + z - k),  S- = max(0, S- - z - k),
// severity = max(S+, S-). Accumulates evidence of sustained small shifts
// that point-wise detectors miss.
class CusumDetector final : public Detector {
 public:
  // k: slack in standard deviations; window: rolling baseline length.
  CusumDetector(double k, std::size_t window);

  std::string name() const override;
  std::size_t warmup_points() const override { return window_; }
  double feed(double value) override;
  void reset() override;

 private:
  double k_ = 0.0;
  std::size_t window_ = 0;
  RingBuffer<double> history_;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
};

// Holt double exponential smoothing (level + trend, no season):
// severity = |value - one-step forecast|. Complements EWMA on trending
// KPIs.
class HoltDetector final : public Detector {
 public:
  HoltDetector(double alpha, double beta);

  std::string name() const override;
  std::size_t warmup_points() const override { return 8; }
  double feed(double value) override;
  void reset() override;

 private:
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double level_ = 0.0;
  double trend_ = 0.0;
  int seen_ = 0;
};

// Registers the "cusum" (3 configurations) and "holt" (4 configurations)
// families. Throws if they are already registered.
void register_extension_families(DetectorRegistry& registry);

}  // namespace opprentice::detectors
