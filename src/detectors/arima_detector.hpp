// ARIMA detector [Zhang et al., "Network anomography", IMC'05].
//
// §4.3.3: ARIMA's parameter space is too large to sample, so its "best"
// parameters are estimated from the data, giving exactly one configuration,
// and the estimates are refreshed periodically because data characteristics
// drift. We implement ARIMA(p, 1, 0): first-difference the series (KPI data
// are non-stationary), then fit an AR(p) model to the differences with
// Levinson-Durbin (Yule-Walker equations), selecting p in [1, max_order] by
// AIC — the same spirit as R's auto.arima, which the paper cites. The
// severity is the absolute one-step forecast residual.
#pragma once

#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"

namespace opprentice::detectors {

struct ArParameters {
  std::vector<double> phi;  // AR coefficients, phi[0] multiplies d_{t-1}
  double noise_variance = 0.0;
  int order() const { return static_cast<int>(phi.size()); }
};

// Fits AR(p) to `xs` with p in [1, max_order] chosen by AIC.
// Exposed for testing and for the parameter-estimation example.
ArParameters fit_ar_by_aic(const std::vector<double>& xs, int max_order);

class ArimaDetector final : public Detector {
 public:
  // ctx sizes the fitting window (two weeks) and refit cadence (daily).
  explicit ArimaDetector(const SeriesContext& ctx, int max_order = 6);

  std::string name() const override;
  std::size_t warmup_points() const override;
  double feed(double value) override;
  void reset() override;

  // Current AR order (0 until the first fit); for tests/examples.
  int current_order() const { return params_.order(); }

 private:
  void refit();

  int max_order_;
  std::size_t fit_window_;
  std::size_t refit_interval_;

  RingBuffer<double> diffs_;
  ArParameters params_;
  double last_value_ = 0.0;
  bool has_last_ = false;
  std::size_t since_refit_ = 0;
  std::size_t seen_ = 0;
};

}  // namespace opprentice::detectors
