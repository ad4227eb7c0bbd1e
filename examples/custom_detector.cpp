// Plugging a custom detector into Opprentice.
//
// §4.3.2: "Opprentice is not limited to the detectors we used, and can
// incorporate emerging detectors, as long as they meet our detector
// requirements" — i.e. they emit a non-negative severity per point and
// run online. This example adds a toy "rate of change" detector family to
// the standard registry and installs all 133 + 3 configurations in a
// FleetEngine through its detector factory.
//
// Exits 1 if the series never retrained or a point after week 8 went
// unclassified: an online loop that stopped learning is a failure.
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/registry.hpp"
#include "eval/metrics.hpp"
#include "labeling/operator_model.hpp"
#include "util/stats.hpp"

using namespace opprentice;

namespace {

// A deliberately simple detector: severity is the relative step change
// |v_t - v_{t-1}| / max(|v_{t-1}|, eps), smoothed over a window.
class RateOfChangeDetector final : public detectors::Detector {
 public:
  explicit RateOfChangeDetector(std::size_t window)
      : window_(window) {}

  std::string name() const override {
    return "rate_of_change(win=" + std::to_string(window_) + ")";
  }
  std::size_t warmup_points() const override { return window_ + 1; }

  double feed(double value) override {
    if (util::is_missing(value)) return 0.0;
    double severity = 0.0;
    if (has_last_) {
      const double rate =
          std::abs(value - last_) / std::max(std::abs(last_), 1e-9);
      smoothed_ += (rate - smoothed_) / static_cast<double>(window_);
      severity = smoothed_;
    }
    last_ = value;
    has_last_ = true;
    return detectors::sanitize_severity(severity);
  }

  void reset() override {
    has_last_ = false;
    smoothed_ = 0.0;
  }

 private:
  std::size_t window_;
  double last_ = 0.0;
  double smoothed_ = 0.0;
  bool has_last_ = false;
};

}  // namespace

int main() {
  // Build the registry: the 14 standard families + our custom family.
  auto registry = detectors::DetectorRegistry::with_standard_families();
  registry.register_family(
      "rate_of_change", [](const detectors::SeriesContext&) {
        std::vector<detectors::DetectorPtr> out;
        for (std::size_t win : {5, 15, 45}) {
          out.push_back(std::make_unique<RateOfChangeDetector>(win));
        }
        return out;
      });
  std::printf("registry: %zu detector families\n", registry.family_count());

  // Generate a jittery KPI where a change-rate feature should help.
  auto preset = datagen::srt_preset();
  preset.model.weeks = 12;
  preset.injection.kind_weights = {0.8, 0.3, 0.5, 0.3, 2.0, 0.8};  // jittery
  preset.injection.kind_phase_in.clear();
  const auto kpi = datagen::generate_kpi(preset.model, preset.injection);
  const auto labels = labeling::simulate_labeling(
      kpi.ground_truth, kpi.series.size(), labeling::OperatorModel{});

  const std::size_t week = kpi.series.points_per_week();
  const std::size_t split = 8 * week;
  const auto truth = labels.to_point_labels(kpi.series.size());

  core::FleetOptions options;
  options.ctx = {kpi.series.points_per_day(), week};
  options.detector_factory = [&registry](const detectors::SeriesContext& c) {
    return registry.instantiate_all(c);
  };
  core::FleetEngine engine(options);
  const core::SeriesHandle series = engine.add_series(kpi.series.name());

  // Stream every point, label weekly, and measure from week 8 on against
  // the operator labels.
  std::vector<std::uint8_t> decisions(kpi.series.size(), 0);
  bool unclassified = false;
  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    const auto detection = engine.feed(series, kpi.series[i]);
    decisions[i] = detection.is_anomaly ? 1 : 0;
    if (i >= split && !detection.classified) unclassified = true;
    if ((i + 1) % week == 0) {
      const std::size_t begin = i + 1 - week;
      engine.ingest_labels(series, std::span(truth).subspan(begin, week),
                           begin);
    }
  }
  const auto counts =
      eval::confusion(std::span(decisions).subspan(split),
                      std::span(truth).subspan(split));
  std::printf("online accuracy from week 8: recall=%.3f precision=%.3f\n",
              eval::recall(counts), eval::precision(counts));
  const std::size_t retrains = engine.stats(series).retrains;
  if (retrains == 0 || unclassified) {
    std::fprintf(stderr, "FAIL: the series %s\n",
                 retrains == 0 ? "never retrained"
                               : "left points after week 8 unclassified");
    return 1;
  }

  // Did the forest pick up the custom configurations?
  const auto importances = engine.feature_importances(series);
  std::printf("features: %zu (133 standard + 3 custom)\n",
              importances.size());
  std::printf("custom configuration importances:\n");
  for (const auto& [name, importance] : importances) {
    if (name.rfind("rate_of_change", 0) == 0) {
      std::printf("  %-24s %.2f%%\n", name.c_str(), 100.0 * importance);
    }
  }
  std::printf(
      "\nNo retuning was needed: the forest decides how much the new\n"
      "detector matters. That is the point of Opprentice.\n");
  return 0;
}
