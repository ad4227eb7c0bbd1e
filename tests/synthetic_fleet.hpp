// Deterministic synthetic KPI values and a short-window detector bank
// for the fleet tests.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "detectors/registry.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::test_support {

// A daily-seasonal wave plus hash noise, a pure function of (series
// salt, point index, points_per_day).
inline double synthetic_fleet_value(std::uint64_t salt, std::size_t index,
                                    std::size_t points_per_day) {
  if (points_per_day == 0) points_per_day = 1;
  const double day_position =
      static_cast<double>(index % points_per_day) /
      static_cast<double>(points_per_day);
  const double seasonal =
      100.0 + 25.0 * std::sin(6.283185307179586 * day_position);
  // Hash noise in [-2, 2): a pure function of (salt, index).
  const std::uint64_t h = util::fault_key(salt, index);
  const double noise =
      static_cast<double>(h >> 11) * 0x1.0p-53 * 4.0 - 2.0;
  return seasonal + noise;
}

// The diff, simple_ma and ewma configurations that warm up within one
// day (8 at a 16-point day), for core::FleetOptions::detector_factory.
// Fleet tests that must train within 64 or 128 ticks install it: the
// standard bank is still warming up there (SVD alone takes 350 points).
inline std::vector<detectors::DetectorPtr> short_window_configurations(
    const detectors::SeriesContext& ctx) {
  const auto& registry = detectors::DetectorRegistry::with_standard_families();
  std::vector<detectors::DetectorPtr> out;
  for (const char* family : {"diff", "simple_ma", "ewma"}) {
    for (auto& config : registry.instantiate_family(family, ctx)) {
      if (config->warmup_points() <= ctx.points_per_day) {
        out.push_back(std::move(config));
      }
    }
  }
  return out;
}

}  // namespace opprentice::test_support
