// Quickstart: the whole Opprentice loop on a synthetic KPI in ~90 lines.
//
//  1. Generate a seasonal KPI with injected anomalies (stand-in for your
//     monitoring data) and simulate an operator labeling it.
//  2. Stream every point into a FleetEngine holding this one series; at
//     each week boundary hand it the operator's labels for that week. The
//     engine retrains its forest once a week on all labeled history and
//     adapts its cThld (Fig 3).
//  3. Report precision/recall of the online detections from week 8 on.
//
// Exits 1 if the series never retrained or a point after week 8 went
// unclassified: an online loop that stopped learning is a failure.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "eval/metrics.hpp"
#include "labeling/operator_model.hpp"

int main() {
  using namespace opprentice;

  // --- 1. Data: a PV-like KPI (strongly seasonal page views) ---
  datagen::KpiPreset preset = datagen::pv_preset();
  preset.model.weeks = 12;  // keep the demo quick
  const datagen::GeneratedKpi kpi =
      datagen::generate_kpi(preset.model, preset.injection);
  const ts::LabelSet operator_labels = labeling::simulate_labeling(
      kpi.ground_truth, kpi.series.size(), labeling::OperatorModel{});
  // §5.1: "The KPI data labeled by operators are the so called ground
  // truth" — accuracy is measured against the operator labels.
  const auto truth = operator_labels.to_point_labels(kpi.series.size());

  const std::size_t week = kpi.series.points_per_week();
  const std::size_t measured_from = 8 * week;

  std::printf("KPI %s: %zu points (%zu weeks), %zu labeled anomaly points\n",
              kpi.series.name().c_str(), kpi.series.size(),
              kpi.series.size() / week, operator_labels.anomalous_points());

  // --- 2. One series, the standard 133 configurations, library defaults
  // (accuracy preference: recall >= 0.66 and precision >= 0.66) ---
  core::FleetOptions options;
  options.ctx = {kpi.series.points_per_day(), week};
  core::FleetEngine engine(options);
  const core::SeriesHandle series = engine.add_series(kpi.series.name());

  std::vector<std::uint8_t> decisions(kpi.series.size(), 0);
  bool unclassified = false;
  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    const core::FleetDetection detection = engine.feed(series, kpi.series[i]);
    decisions[i] = detection.is_anomaly ? 1 : 0;
    if (i >= measured_from && !detection.classified) unclassified = true;

    if ((i + 1) % week == 0) {
      // The operator labels the week just seen (tens of seconds of work
      // with the labeling tool, §5.7).
      const std::size_t begin = i + 1 - week;
      engine.ingest_labels(series, std::span(truth).subspan(begin, week),
                           begin);
    }
  }

  // --- 3. Accuracy over the weeks after the first eight ---
  const core::FleetSeriesStats stats = engine.stats(series);
  const auto counts =
      eval::confusion(std::span(decisions).subspan(measured_from),
                      std::span(truth).subspan(measured_from));
  std::printf("%zu retrains; online detection from week 8: recall=%.3f "
              "precision=%.3f (preference: recall>=%.2f, precision>=%.2f)\n",
              stats.retrains, eval::recall(counts), eval::precision(counts),
              options.preference.min_recall,
              options.preference.min_precision);
  if (stats.retrains == 0 || unclassified) {
    std::fprintf(stderr, "FAIL: the series %s\n",
                 stats.retrains == 0 ? "never retrained"
                                     : "left points after week 8 unclassified");
    return 1;
  }

  // Which detector configurations did the forest actually rely on?
  auto ranked = engine.feature_importances(series);
  std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  std::printf("top detector configurations by forest importance:\n");
  for (std::size_t rank = 0; rank < 5; ++rank) {
    std::printf("  %zu. %-28s %.1f%%\n", rank + 1, ranked[rank].first.c_str(),
                100.0 * ranked[rank].second);
  }
  return 0;
}
