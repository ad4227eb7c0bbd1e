// Unit tests for src/datagen: KPI models, anomaly injection, and the
// Table 1 statistics of the three presets.
#include <gtest/gtest.h>

#include <cmath>

#include "datagen/anomaly_injector.hpp"
#include "datagen/kpi_model.hpp"
#include "datagen/kpi_presets.hpp"
#include "timeseries/series_stats.hpp"
#include "util/stats.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::datagen;

KpiModel small_model() {
  KpiModel m;
  m.name = "toy";
  m.interval_seconds = 600;
  m.weeks = 3;
  m.base_level = 100.0;
  m.daily_amplitude = 0.3;
  m.noise_level = 0.02;
  m.seed = 5;
  return m;
}

// ---- generate_normal ----

TEST(KpiModel, DeterministicForSameSeed) {
  const auto a = generate_normal(small_model());
  const auto b = generate_normal(small_model());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(KpiModel, DifferentSeedsDiffer) {
  KpiModel m2 = small_model();
  m2.seed = 6;
  const auto a = generate_normal(small_model());
  const auto b = generate_normal(m2);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  EXPECT_LT(same, a.size() / 10);
}

TEST(KpiModel, LengthMatchesWeeks) {
  const auto s = generate_normal(small_model());
  EXPECT_EQ(s.size(), 3u * s.points_per_week());
}

TEST(KpiModel, ValuesNonNegative) {
  KpiModel m = small_model();
  m.daily_amplitude = 0.9;
  m.noise_level = 0.5;
  const auto s = generate_normal(m);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_GE(s[i], 0.0);
}

TEST(KpiModel, SeasonalTemplateIsWeekPeriodic) {
  const KpiModel m = small_model();
  const std::size_t week =
      static_cast<std::size_t>(ts::kSecondsPerWeek / m.interval_seconds);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(seasonal_template(m, i),
                seasonal_template(m, i + week), 1e-6 * m.base_level);
  }
}

TEST(KpiModel, TrendRaisesLevel) {
  KpiModel m = small_model();
  m.trend = 0.5;
  m.noise_level = 0.0;
  const double early = seasonal_template(m, 0);
  const std::size_t last = 3 * 1008 - 1008;  // same phase, 2 weeks later
  const double late = seasonal_template(m, last);
  EXPECT_GT(late, early);
}

TEST(KpiModel, WeekendsSitLower) {
  KpiModel m = small_model();
  m.weekly_amplitude = 0.2;
  m.noise_level = 0.0;
  // Day 5 (Saturday) midday vs day 0 (Monday) midday.
  const std::size_t ppd = 144;
  EXPECT_LT(seasonal_template(m, 5 * ppd + 72),
            seasonal_template(m, 0 * ppd + 72));
}

TEST(KpiModel, BurstsIncreaseDispersion) {
  KpiModel quiet = small_model();
  KpiModel bursty = small_model();
  bursty.burst_probability = 0.05;
  bursty.burst_magnitude = 10.0;
  const double cv_quiet =
      util::coefficient_of_variation(generate_normal(quiet).values());
  const double cv_bursty =
      util::coefficient_of_variation(generate_normal(bursty).values());
  EXPECT_GT(cv_bursty, 2.0 * cv_quiet);
}

// ---- inject_anomalies ----

TEST(Injector, HitsTargetFraction) {
  InjectionSpec spec;
  spec.anomaly_fraction = 0.05;
  spec.seed = 9;
  const auto kpi = inject_anomalies(generate_normal(small_model()), spec);
  const double frac = static_cast<double>(kpi.ground_truth.anomalous_points()) /
                      static_cast<double>(kpi.series.size());
  EXPECT_NEAR(frac, 0.05, 0.01);
}

TEST(Injector, WindowsAreDisjoint) {
  InjectionSpec spec;
  spec.anomaly_fraction = 0.08;
  const auto kpi = inject_anomalies(generate_normal(small_model()), spec);
  const auto& ws = kpi.ground_truth.windows();
  for (std::size_t i = 0; i + 1 < ws.size(); ++i) {
    EXPECT_LE(ws[i].end, ws[i + 1].begin);
  }
}

TEST(Injector, AnomaliesActuallyChangeValues) {
  const auto normal = generate_normal(small_model());
  InjectionSpec spec;
  spec.anomaly_fraction = 0.05;
  spec.min_magnitude = 0.3;
  const auto kpi = inject_anomalies(normal, spec);
  std::size_t changed = 0, total = 0;
  for (const auto& w : kpi.ground_truth.windows()) {
    for (std::size_t i = w.begin; i < w.end; ++i) {
      ++total;
      if (std::abs(kpi.series[i] - normal[i]) >
          1e-9 * std::abs(normal[i])) {
        ++changed;
      }
    }
  }
  ASSERT_GT(total, 0u);
  // The vast majority of anomalous points visibly deviate (ramp recovery
  // tails may touch zero deviation).
  EXPECT_GT(static_cast<double>(changed) / static_cast<double>(total), 0.9);
}

TEST(Injector, NormalPointsUntouched) {
  const auto normal = generate_normal(small_model());
  InjectionSpec spec;
  spec.anomaly_fraction = 0.05;
  const auto kpi = inject_anomalies(normal, spec);
  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    if (!kpi.ground_truth.is_anomalous(i)) {
      EXPECT_DOUBLE_EQ(kpi.series[i], normal[i]) << "at index " << i;
    }
  }
}

TEST(Injector, MissingFractionProducesNaNs) {
  InjectionSpec spec;
  spec.anomaly_fraction = 0.02;
  spec.missing_fraction = 0.05;
  const auto kpi = inject_anomalies(generate_normal(small_model()), spec);
  std::size_t missing = 0;
  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    if (std::isnan(kpi.series[i])) {
      ++missing;
      EXPECT_FALSE(kpi.ground_truth.is_anomalous(i));  // missing != anomaly
    }
  }
  const double frac = static_cast<double>(missing) /
                      static_cast<double>(kpi.series.size());
  EXPECT_NEAR(frac, 0.05, 0.015);
}

TEST(Injector, RecordsAnomalyMetadata) {
  InjectionSpec spec;
  spec.anomaly_fraction = 0.05;
  const auto kpi = inject_anomalies(generate_normal(small_model()), spec);
  EXPECT_EQ(kpi.anomalies.size(), kpi.ground_truth.window_count());
  for (const auto& a : kpi.anomalies) {
    EXPECT_GT(a.window.length(), 0u);
    EXPECT_NE(a.magnitude, 0.0);
  }
}

TEST(Injector, DeterministicBySeed) {
  InjectionSpec spec;
  spec.anomaly_fraction = 0.05;
  const auto a = inject_anomalies(generate_normal(small_model()), spec);
  const auto b = inject_anomalies(generate_normal(small_model()), spec);
  EXPECT_EQ(a.ground_truth.windows(), b.ground_truth.windows());
}

TEST(Injector, KindNamesAreStable) {
  EXPECT_STREQ(to_string(AnomalyKind::kSpike), "spike");
  EXPECT_STREQ(to_string(AnomalyKind::kDip), "dip");
  EXPECT_STREQ(to_string(AnomalyKind::kRampUp), "ramp-up");
  EXPECT_STREQ(to_string(AnomalyKind::kLevelShift), "level-shift");
}

// ---- presets vs Table 1 ----

struct PresetExpectation {
  const char* name;
  double cv_low, cv_high;        // Table 1 Cv with tolerance band
  double season_low, season_high;
  double anomaly_fraction;
  std::size_t weeks;
};

// gtest lists a parameter by printing it; without this it dumps the raw
// bytes, including the address of `name`, so the listed test name would
// change with every run under address-space randomisation.
void PrintTo(const PresetExpectation& expect, std::ostream* os) {
  *os << expect.name;
}

class PresetTable1 : public ::testing::TestWithParam<PresetExpectation> {};

TEST_P(PresetTable1, StatisticsMatchPaper) {
  const auto& expect = GetParam();
  KpiPreset preset;
  if (std::string(expect.name) == "PV") {
    preset = pv_preset();
  } else if (std::string(expect.name) == "#SR") {
    preset = sr_preset();
  } else {
    preset = srt_preset();
  }
  const auto kpi = generate_kpi(preset.model, preset.injection);
  const auto prof = ts::profile(kpi.series);

  EXPECT_EQ(kpi.series.name(), expect.name);
  EXPECT_NEAR(prof.length_weeks, static_cast<double>(expect.weeks), 0.01);
  EXPECT_GE(prof.coefficient_of_variation, expect.cv_low);
  EXPECT_LE(prof.coefficient_of_variation, expect.cv_high);
  EXPECT_GE(prof.daily_seasonality, expect.season_low);
  EXPECT_LE(prof.daily_seasonality, expect.season_high);

  const double frac =
      static_cast<double>(kpi.ground_truth.anomalous_points()) /
      static_cast<double>(kpi.series.size());
  EXPECT_NEAR(frac, expect.anomaly_fraction, 0.012);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PresetTable1,
    ::testing::Values(
        // Table 1: PV Cv=0.48 strong seasonality, 25 weeks, 7.8% anomalies.
        PresetExpectation{"PV", 0.3, 0.7, 0.8, 1.0, 0.078, 25},
        // #SR Cv=2.1 weak seasonality, 19 weeks, 2.8% anomalies.
        PresetExpectation{"#SR", 1.2, 3.2, -0.2, 0.4, 0.028, 19},
        // SRT Cv=0.07 moderate seasonality, 16 weeks, 7.4% anomalies.
        PresetExpectation{"SRT", 0.04, 0.12, 0.4, 0.8, 0.074, 16}),
    [](const ::testing::TestParamInfo<PresetExpectation>& param_info) {
      return std::string(param_info.param.name) == "#SR"
                 ? "SR"
                 : std::string(param_info.param.name);
    });

TEST(Presets, AllPresetsCoverPaperKpis) {
  const auto presets = all_presets();
  ASSERT_EQ(presets.size(), 3u);
  EXPECT_EQ(presets[0].model.name, "PV");
  EXPECT_EQ(presets[1].model.name, "#SR");
  EXPECT_EQ(presets[2].model.name, "SRT");
}

TEST(Presets, PaperScaleUsesMinuteBins) {
  EXPECT_EQ(pv_preset(Scale::kPaper).model.interval_seconds, 60);
  EXPECT_EQ(pv_preset(Scale::kSmall).model.interval_seconds, 600);
  // SRT is hourly at both scales, as in the paper.
  EXPECT_EQ(srt_preset(Scale::kPaper).model.interval_seconds, 3600);
  EXPECT_EQ(srt_preset(Scale::kSmall).model.interval_seconds, 3600);
}

TEST(Presets, ScaleFromEnvDefaultsToSmall) {
  // (Does not modify the environment; just checks the default path.)
  EXPECT_EQ(scale_from_env(), Scale::kSmall);
}

}  // namespace
