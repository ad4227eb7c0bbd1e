#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "datagen/kpi_presets.hpp"
#include "eval/pr_curve.hpp"
#include "labeling/operator_model.hpp"
#include "obs/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failed_checks.push_back(what);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void require_untimed(const char* phase) {
  if (opprentice::obs::detailed_timing_enabled()) {
    throw std::runtime_error(std::string("untraced phase '") + phase +
                             "' found in-program detailed timing on");
  }
}

GeneratedSeries generate_series(std::uint64_t seed, std::size_t index,
                                std::size_t weeks) {
  namespace datagen = opprentice::datagen;
  const std::uint64_t s = derive_seed(seed, index);
  datagen::KpiPreset preset = index % 2 == 0
                                  ? datagen::pv_preset(datagen::Scale::kSmall, s)
                                  : datagen::sr_preset(datagen::Scale::kSmall, s);
  preset.model.weeks = weeks;
  const datagen::GeneratedKpi kpi =
      datagen::generate_kpi(preset.model, preset.injection);
  opprentice::labeling::OperatorModel operator_model;
  operator_model.seed = s ^ 0x5EEDull;
  const opprentice::ts::LabelSet labels = opprentice::labeling::simulate_labeling(
      kpi.ground_truth, kpi.series.size(), operator_model);

  GeneratedSeries out;
  out.values.assign(kpi.series.values().begin(), kpi.series.values().end());
  out.truth = kpi.ground_truth.to_point_labels(out.values.size());
  out.labels = labels.to_point_labels(out.values.size());
  return out;
}

double window_aucpr(std::span<const double> scores,
                    std::span<const std::uint8_t> truth) {
  const opprentice::eval::PrCurve curve(scores, truth);
  if (curve.empty()) return std::nan("");
  return curve.aucpr();
}

std::string describe_tail(const TailStat& tail, const char* samples) {
  char buf[128];
  if (tail.supported) {
    std::snprintf(buf, sizeof(buf), "p%.4g of %zu %s (%zu beyond)",
                  tail.percentile, tail.count, samples, tail.beyond);
  } else {
    std::snprintf(buf, sizeof(buf), "max of %zu %s", tail.count, samples);
  }
  return buf;
}

}  // namespace perfbench
