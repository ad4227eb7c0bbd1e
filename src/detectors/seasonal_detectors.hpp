// Seasonality-aware detectors of Table 3:
//
//  - TSD (time series decomposition): subtract the week-periodic template
//    (mean of the same slot-of-week over the past `win` weeks); severity is
//    the residual measured in standard deviations of recent residuals.
//  - TSD MAD: the robust variant — median template, MAD scale (§6 "dirty
//    data": MAD improves robustness to outliers and missing points).
//  - Historical average: Gaussian model per slot-of-day over the past
//    `win` weeks of days; severity = #stddevs from the slot mean.
//  - Historical MAD: robust variant with median / MAD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/stats.hpp"

namespace opprentice::detectors {

// Where the normalization scale of the residual comes from.
enum class ScaleSource {
  kRecentResiduals,  // TSD family: stddev/MAD of recent residuals
  kSlotHistory,      // historical family: stddev/MAD of the slot's history
};

// Common engine: per-slot value history + residual scale tracking.
class SeasonalDetectorBase : public Detector {
 public:
  // period_points: seasonal period (week for TSD, day for historical).
  // samples_per_slot: how many past same-slot values to keep.
  SeasonalDetectorBase(std::size_t period_points, std::size_t samples_per_slot,
                       std::size_t scale_window, bool robust,
                       ScaleSource scale_source);

  double feed(double value) override;
  void reset() override;

 private:
  std::size_t period_ = 0;
  std::size_t samples_per_slot_ = 0;
  bool robust_ = false;  // median/MAD instead of mean/std
  ScaleSource scale_source_;

  // Slot s keeps its last samples_per_slot_ values oldest first at
  // slot_values_[s * samples_per_slot_], slot_held_[s] of them; a value
  // pushed to a full slot shifts the others down by one (at most 35
  // values in the standard bank). The mean and stddev then read a slot in
  // place. One flat buffer instead of a ring object and an allocation per
  // slot (a week holds 1008 slots at 10-minute bins).
  std::vector<double> slot_values_;
  std::vector<std::uint32_t> slot_held_;
  std::vector<double> slot_scratch_;  // the robust statistics reorder it
  RingBuffer<double> residuals_;      // recent residuals, for the scale
  // The robust recent-residual scale's sorted copy of residuals_.
  util::SortedWindow sorted_residuals_;
  std::size_t index_ = 0;
};

class TsdDetector final : public SeasonalDetectorBase {
 public:
  TsdDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_week_ = 0;
};

class TsdMadDetector final : public SeasonalDetectorBase {
 public:
  TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_week_ = 0;
};

class HistoricalAverageDetector final : public SeasonalDetectorBase {
 public:
  HistoricalAverageDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_day_ = 0;
};

class HistoricalMadDetector final : public SeasonalDetectorBase {
 public:
  HistoricalMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_day_ = 0;
};

}  // namespace opprentice::detectors
