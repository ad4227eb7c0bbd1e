// Deep semantic tests for the detector configurations: oracle reference
// implementations and algebraic laws.
//
// Laws tested across whole families:
//  - residual-type detectors (diff, MAs, EWMA, Holt-Winters, SVD,
//    wavelet) are positively homogeneous: sev(c*x) = c * sev(x);
//  - normalized detectors (TSD, TSD-MAD, historical average/MAD) are
//    scale-invariant: sev(c*x) = sev(x) — their severity is a number of
//    sigmas/MADs;
//  - lag/MA detectors are shift-invariant: sev(x + k) = sev(x); the
//    simple threshold deliberately is not.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "detectors/basic_detectors.hpp"
#include "detectors/holt_winters_detector.hpp"
#include "detectors/registry.hpp"
#include "detectors/seasonal_detectors.hpp"
#include "detectors/svd_detector.hpp"
#include "detectors/wavelet_detector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::detectors;

SeriesContext small_ctx() {
  return {24, 168};
}

std::vector<double> noisy_periodic(std::size_t n, std::uint64_t seed = 5) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = 200.0 +
            50.0 * std::sin(2 * 3.14159265 *
                            static_cast<double>(i % 24) / 24.0) +
            rng.normal(0.0, 4.0);
  }
  return xs;
}

std::vector<double> run(Detector& d, const std::vector<double>& xs) {
  d.reset();
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(d.feed(x));
  return out;
}

// ---- oracle references ----

TEST(Oracle, SimpleMaMatchesBruteForce) {
  for (std::size_t win : {10u, 30u, 50u}) {
    SimpleMaDetector d(win);
    const auto xs = noisy_periodic(300);
    const auto sev = run(d, xs);
    for (std::size_t i = win; i < xs.size(); ++i) {
      double mean = 0.0;
      for (std::size_t j = i - win; j < i; ++j) mean += xs[j];
      mean /= static_cast<double>(win);
      EXPECT_NEAR(sev[i], std::abs(xs[i] - mean), 1e-9)
          << "win=" << win << " i=" << i;
    }
  }
}

TEST(Oracle, WeightedMaMatchesBruteForce) {
  for (std::size_t win : {10u, 20u}) {
    WeightedMaDetector d(win);
    const auto xs = noisy_periodic(200);
    const auto sev = run(d, xs);
    for (std::size_t i = win; i < xs.size(); ++i) {
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < win; ++j) {
        const double w = static_cast<double>(win - j);  // newest heaviest
        num += w * xs[i - 1 - j];
        den += w;
      }
      EXPECT_NEAR(sev[i], std::abs(xs[i] - num / den), 1e-9)
          << "win=" << win << " i=" << i;
    }
  }
}

// Also after an infinity and a ±1e300 pair have passed through the
// window: a running sum that subtracts what leaves would read 0 (inf -
// inf) or lose the small differences to rounding for good.
TEST(Oracle, MaOfDiffMatchesBruteForce) {
  const std::size_t win = 10;
  MaOfDiffDetector d(win);
  auto xs = noisy_periodic(150);
  xs[60] = std::numeric_limits<double>::infinity();
  xs[100] = 1e300;
  xs[101] = -1e300;
  const auto sev = run(d, xs);
  std::size_t after_spikes = 0;
  for (std::size_t i = win + 1; i < xs.size(); ++i) {
    double mean = 0.0;
    for (std::size_t j = i - win + 1; j <= i; ++j) {
      mean += std::abs(xs[j] - xs[j - 1]);
    }
    mean /= static_cast<double>(win);
    if (!(mean < 1e200)) continue;  // a spike is inside the window
    EXPECT_NEAR(sev[i], mean, 1e-9) << i;
    if (i > 102) ++after_spikes;
  }
  EXPECT_GT(after_spikes, 30u);
}

TEST(Oracle, EwmaMatchesClosedForm) {
  const double alpha = 0.3;
  EwmaDetector d(alpha);
  const auto xs = noisy_periodic(100);
  const auto sev = run(d, xs);
  double prediction = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_NEAR(sev[i], std::abs(xs[i] - prediction), 1e-9) << i;
    prediction = alpha * xs[i] + (1.0 - alpha) * prediction;
  }
}

TEST(Oracle, DiffMatchesLaggedDifference) {
  const auto ctx = small_ctx();
  const auto xs = noisy_periodic(3 * 168);
  const std::size_t lags[] = {1, ctx.points_per_day, ctx.points_per_week};
  const DiffLag kinds[] = {DiffLag::kLastSlot, DiffLag::kLastDay,
                           DiffLag::kLastWeek};
  for (int k = 0; k < 3; ++k) {
    DiffDetector d(kinds[k], ctx);
    const auto sev = run(d, xs);
    for (std::size_t i = lags[k]; i < xs.size(); ++i) {
      EXPECT_NEAR(sev[i], std::abs(xs[i] - xs[i - lags[k]]), 1e-9)
          << "lag=" << lags[k] << " i=" << i;
    }
  }
}

TEST(Oracle, TsdTemplateIsSlotMean) {
  // With win=3 weeks of history, the TSD residual at week 4 must be
  // the deviation from the mean of the same slot in weeks 1-3, divided
  // by the scale of recent residuals. We check the *ratio* structure:
  // a point pushed exactly to the slot mean has severity ~0.
  const auto ctx = small_ctx();
  TsdDetector d(3, ctx);
  auto xs = noisy_periodic(4 * 168);
  const std::size_t probe = 3 * 168 + 50;
  const double slot_mean =
      (xs[probe - 168] + xs[probe - 2 * 168] + xs[probe - 3 * 168]) / 3.0;
  xs[probe] = slot_mean;  // exactly on the template
  const auto sev = run(d, xs);
  EXPECT_NEAR(sev[probe], 0.0, 1e-9);
}

TEST(Oracle, HoltWintersMatchesReferenceRecursion) {
  const double a = 0.4, b = 0.2, g = 0.6;
  const auto ctx = small_ctx();
  HoltWintersDetector d(a, b, g, ctx);
  const auto xs = noisy_periodic(5 * 24);
  const auto sev = run(d, xs);

  // Reference implementation.
  const std::size_t m = ctx.points_per_day;
  std::vector<double> season(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(m));
  const double day_mean = util::mean(season);
  for (auto& s : season) s -= day_mean;
  double level = day_mean, trend = 0.0;
  for (std::size_t i = m; i < xs.size(); ++i) {
    const std::size_t slot = i % m;
    const double forecast = level + trend + season[slot];
    EXPECT_NEAR(sev[i], std::abs(xs[i] - forecast), 1e-9) << i;
    const double prev_level = level;
    level = a * (xs[i] - season[slot]) + (1 - a) * (prev_level + trend);
    trend = b * (level - prev_level) + (1 - b) * trend;
    season[slot] = g * (xs[i] - level) + (1 - g) * season[slot];
  }
}

// ---- algebraic laws over families ----

std::vector<DetectorPtr> family(const std::string& name) {
  return DetectorRegistry::with_standard_families().instantiate_family(
      name, small_ctx());
}

class ResidualFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(ResidualFamilies, PositivelyHomogeneous) {
  // sev(c * x) == c * sev(x) for residual-type detectors.
  const double c = 3.5;
  for (auto& d : family(GetParam())) {
    const auto xs = noisy_periodic(3 * 168);
    const auto base = run(*d, xs);
    auto scaled = xs;
    for (double& v : scaled) v *= c;
    const auto scaled_sev = run(*d, scaled);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_NEAR(scaled_sev[i], c * base[i],
                  1e-6 * (1.0 + std::abs(base[i])))
          << d->name() << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ResidualFamilies,
                         ::testing::Values("diff", "simple_ma", "weighted_ma",
                                           "ma_of_diff", "ewma",
                                           "holt_winters", "svd", "wavelet"),
                         [](const auto& param_info) { return param_info.param; });

class NormalizedFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(NormalizedFamilies, ScaleInvariant) {
  // sev(c * x) == sev(x): these detectors count sigmas/MADs.
  const double c = 7.0;
  for (auto& d : family(GetParam())) {
    const auto xs = noisy_periodic(4 * 168);
    const auto base = run(*d, xs);
    auto scaled = xs;
    for (double& v : scaled) v *= c;
    const auto scaled_sev = run(*d, scaled);
    // Inside the warm-up region the scale estimate can be degenerate
    // (single-sample sigma floored by an absolute epsilon), so exact
    // invariance only holds past warm-up — which is all that matters,
    // warm-up severities are masked anyway.
    for (std::size_t i = d->warmup_points(); i < xs.size(); ++i) {
      EXPECT_NEAR(scaled_sev[i], base[i], 1e-6 * (1.0 + base[i]))
          << d->name() << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, NormalizedFamilies,
                         ::testing::Values("tsd", "tsd_mad",
                                           "historical_average",
                                           "historical_mad"),
                         [](const auto& param_info) { return param_info.param; });

class ShiftInvariantFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(ShiftInvariantFamilies, ShiftInvariant) {
  // sev(x + k) == sev(x): residuals of lag/window predictors cancel a
  // constant offset.
  const double k = 1234.5;
  for (auto& d : family(GetParam())) {
    const auto xs = noisy_periodic(3 * 168);
    const auto base = run(*d, xs);
    auto shifted = xs;
    for (double& v : shifted) v += k;
    const auto shifted_sev = run(*d, shifted);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_NEAR(shifted_sev[i], base[i], 1e-5 * (1.0 + base[i]))
          << d->name() << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ShiftInvariantFamilies,
                         ::testing::Values("diff", "simple_ma", "weighted_ma",
                                           "ma_of_diff", "ewma"),
                         [](const auto& param_info) { return param_info.param; });

TEST(SimpleThresholdLaw, NotShiftInvariantByDesign) {
  // The static threshold is the one detector whose severity IS the value.
  SimpleThresholdDetector d;
  EXPECT_DOUBLE_EQ(d.feed(100.0), 100.0);
  EXPECT_DOUBLE_EQ(d.feed(100.0 + 50.0), 150.0);
}

// Detector instances must carry no shared mutable state (no lazily-built
// static tables, no common scratch buffers): two full 133-configuration
// extractors running concurrently on *different* series must each
// reproduce their serial severities exactly. Guards the determinism
// contract of the parallel extraction path (DESIGN.md "Parallel
// execution").
TEST(DetectorIsolation, ConcurrentExtractorsMatchSerial) {
  const SeriesContext ctx = small_ctx();
  const auto xs_a = noisy_periodic(2 * 168, /*seed=*/5);
  auto xs_b = noisy_periodic(2 * 168, /*seed=*/77);
  xs_b[200] = std::numeric_limits<double>::quiet_NaN();  // a missing point

  auto extract = [&](const std::vector<double>& xs) {
    auto configs = standard_configurations(ctx);
    std::vector<std::vector<double>> columns(configs.size());
    for (std::size_t f = 0; f < configs.size(); ++f) {
      columns[f] = run(*configs[f], xs);
    }
    return columns;
  };

  // Serial baselines first, then the same extractions on two racing
  // threads (fresh detector instances each).
  const auto serial_a = extract(xs_a);
  const auto serial_b = extract(xs_b);

  std::vector<std::vector<double>> concurrent_a, concurrent_b;
  std::thread ta([&] { concurrent_a = extract(xs_a); });
  std::thread tb([&] { concurrent_b = extract(xs_b); });
  ta.join();
  tb.join();

  ASSERT_EQ(concurrent_a.size(), serial_a.size());
  ASSERT_EQ(concurrent_b.size(), serial_b.size());
  for (std::size_t f = 0; f < serial_a.size(); ++f) {
    EXPECT_EQ(concurrent_a[f], serial_a[f]) << "column " << f;
    EXPECT_EQ(concurrent_b[f], serial_b[f]) << "column " << f;
  }
}

}  // namespace
