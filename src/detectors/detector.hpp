// The unified detector model of §4.3.1:
//
//   data point --detector+parameters--> severity --sThld--> {1, 0}
//
// In Opprentice a detector never applies its own sThld; it only emits the
// non-negative severity, which becomes one ML feature. A detector with one
// concrete parameter assignment is a *configuration* (one feature column).
//
// Detectors are strictly online (§4.3.2): feed() may use only the points
// seen so far. Points inside the warm-up window carry severity 0 and are
// skipped during training/detection.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>

namespace opprentice::detectors {

class SeasonalSlotStore;

// Calendar shape of the series a detector instance is bound to.
struct SeriesContext {
  std::size_t points_per_day = 1440;
  std::size_t points_per_week = 10080;
  // The store the seasonal configurations built with this context share
  // (seasonal_detectors.hpp); DetectorRegistry sets one per bank. Null:
  // each seasonal configuration builds its own.
  std::shared_ptr<SeasonalSlotStore> slot_store = nullptr;
};

class Detector {
 public:
  virtual ~Detector() = default;

  // Unique configuration name, e.g. "ewma(alpha=0.3)".
  virtual std::string name() const = 0;

  // Number of leading points whose severity is not meaningful yet.
  virtual std::size_t warmup_points() const = 0;

  // Consumes the next data point and returns its severity (>= 0).
  // A NaN input (missing point) returns severity 0 and must leave the
  // detector able to continue on subsequent points.
  virtual double feed(double value) = 0;

  // Restores the just-constructed state.
  virtual void reset() = 0;

  // The address of the state this configuration shares with others of
  // its bank (a SeasonalSlotStore, a HoltWintersBank), or null.
  // Configurations returning the same address must be fed the same points
  // in step, on one thread.
  virtual const void* shared_state() const { return nullptr; }
};

using DetectorPtr = std::unique_ptr<Detector>;

// Clamps a raw severity: negative and NaN map to 0 (severities are
// non-negative by the model's definition).
inline double sanitize_severity(double severity) {
  if (std::isnan(severity) || severity < 0.0) return 0.0;
  if (std::isinf(severity)) return 1e30;
  return severity;
}

}  // namespace opprentice::detectors
