// Online monitoring scenario: Opprentice watching a live KPI feed.
//
// Simulates the deployment of Fig 3: a monitoring agent feeds one point
// per interval into a FleetEngine, alerts fire when the forest's anomaly
// probability crosses the predicted cThld, and once a week the operator
// labels the new data (seconds of work). The engine retrains on its own
// weekly schedule and updates the cThld. A duration filter (§6 "Anomaly
// duration") suppresses alerts shorter than a configurable number of
// points. Alerts are reported from week 8 on, once the forest has had
// weeks of labels to learn from.
//
// Exits 1 if the series never retrained or a point after week 8 went
// unclassified: an online loop that stopped learning is a failure.
#include <cstdio>
#include <span>
#include <vector>

#include "core/duration_filter.hpp"
#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "labeling/operator_model.hpp"

int main() {
  using namespace opprentice;

  auto preset = datagen::pv_preset();
  preset.model.weeks = 14;
  const auto kpi = datagen::generate_kpi(preset.model, preset.injection);
  const auto labels = labeling::simulate_labeling(
      kpi.ground_truth, kpi.series.size(), labeling::OperatorModel{});
  const auto point_labels = labels.to_point_labels(kpi.series.size());

  const std::size_t week = kpi.series.points_per_week();
  const std::size_t alerts_from = 8 * week;

  core::FleetOptions options;
  options.ctx = {kpi.series.points_per_day(), week};
  core::FleetEngine engine(options);
  const core::SeriesHandle series = engine.add_series(kpi.series.name());
  std::printf("monitoring %s: alerts from week 8 on\n\n",
              kpi.series.name().c_str());

  // §6: "if operators are only interested in continuous anomalies that
  // last for more than 5 minutes, one can solve it through a simple
  // threshold filter" on the point-level decisions.
  core::DurationFilter alert_filter({.min_run = 2});
  std::size_t alerts = 0, true_alerts = 0;
  bool unclassified = false;
  double cthld = 0.5;

  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    const auto detection = engine.feed(series, kpi.series[i]);
    if (detection.classified) cthld = detection.cthld;
    if (i >= alerts_from) {
      if (!detection.classified) unclassified = true;
      if (alert_filter.feed(detection.is_anomaly)) {
        ++alerts;
        const bool genuine = kpi.ground_truth.is_anomalous(i);
        true_alerts += genuine;
        if (alerts <= 12) {
          std::printf(
              "ALERT t=%-6zu value=%-10.0f p(anomaly)=%.2f cThld=%.2f  %s\n",
              i, detection.value, detection.score, detection.cthld,
              genuine ? "[genuine incident]" : "[false alarm]");
        }
      }
    }
    if ((i + 1) % week == 0) {
      const std::size_t begin = i + 1 - week;
      engine.ingest_labels(
          series, std::span(point_labels).subspan(begin, week), begin);
      std::printf("-- week %zu labeled; %zu retrains so far; cThld %.3f\n",
                  (i + 1) / week, engine.stats(series).retrains, cthld);
    }
  }

  std::printf("\n%zu alerts fired, %zu matched a genuine incident (%.0f%%)\n",
              alerts, true_alerts,
              alerts == 0 ? 0.0
                          : 100.0 * static_cast<double>(true_alerts) /
                                static_cast<double>(alerts));
  std::printf(
      "(point-level accuracy is evaluated in the bench suite; alert-level\n"
      "precision here also reflects the duration filter)\n");
  const std::size_t retrains = engine.stats(series).retrains;
  if (retrains == 0 || unclassified) {
    std::fprintf(stderr, "FAIL: the series %s\n",
                 retrains == 0 ? "never retrained"
                               : "left points after week 8 unclassified");
    return 1;
  }
  return 0;
}
