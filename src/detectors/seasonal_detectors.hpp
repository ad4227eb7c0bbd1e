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
//
// All four read the same past values of a slot, so the configurations of
// a bank share one SeasonalSlotStore (DESIGN.md §6b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/stats.hpp"

namespace opprentice::detectors {

// One series' past values by seasonal slot, shared by the seasonal
// configurations of a bank:
//
//  - a week-slot table (points_per_week slots) that TSD and TSD-MAD read
//    their last `win` values from;
//  - a day-slot table (points_per_day slots) that historical average
//    reads its last 7·`win` values from, and, per day slot, one sorted
//    copy of the values historical MAD reads, each tagged with its age;
//  - TSD's residual windows, one lane per configuration, whose two-pass
//    stddevs are taken in one sweep per point.
//
// A slot keeps its non-missing values oldest first, so every statistic
// sees the values a private per-configuration slot would hold, in the
// same order. Readers size the tables at construction, before the first
// point.
//
// The store follows the stream through its readers: each reader reports
// every point it is fed with arrive(), and the first report of point n
// files point n-1 into the tables, so the store advances exactly once per
// point however many readers report, and a reader that stops being fed
// (a quarantined column) holds nothing up. Readers of one store must
// therefore be fed the same points in step, on one thread. A reader
// reporting point 0 while the store is further on restarts the store, so
// a caller may also run the readers one after the other over the whole
// series, each from point 0.
class SeasonalSlotStore {
 public:
  explicit SeasonalSlotStore(const SeriesContext& ctx);

  // Sizing, from the readers' constructors.
  void require_week_depth(std::size_t depth);
  void require_day_depth(std::size_t depth);
  // Registers a window of the last `depth` values of every day slot,
  // read in ascending order; returns its index.
  std::size_t add_sorted_day_window(std::size_t depth);
  // A new residual window of `capacity` values; returns its lane.
  std::size_t add_residual_lane(std::size_t capacity);

  // A reader is fed point `index` (counted from 0), whose value is
  // `value`. Throws std::logic_error when the reader is out of step.
  void arrive(std::size_t index, double value);

  // The current point's slot, oldest first: its last `depth` values or
  // all it holds if fewer. Valid until the store advances.
  std::span<const double> week_values(std::size_t depth) const;
  std::span<const double> day_values(std::size_t depth) const;
  // The current day slot's last `depth` values (or all it holds if
  // fewer) in ascending order, where `window` is
  // add_sorted_day_window(depth). Valid until the next call.
  std::span<const double> sorted_day_values(std::size_t window);
  // util::median(week_values(depth)) for a non-empty slot; the medians of
  // every depth are taken together, once per point.
  double week_median(std::size_t depth);

  // The stddev of a lane's residuals before this point's are pushed;
  // NaN until it holds 16.
  double residual_scale(std::size_t lane);
  void push_residual(std::size_t lane, double residual);

  void reset();

 private:
  // One seasonal slot table: slot s keeps its last `depth` non-missing
  // values oldest first at values[s·depth], held[s] of them; a value
  // pushed to a full slot shifts the others down by one (35 values at
  // most in the standard bank). One flat buffer instead of a ring object
  // and an allocation per slot.
  struct SlotTable {
    std::size_t period = 0;
    std::size_t depth = 0;
    std::size_t slot = 0;  // the current point's slot
    std::vector<double> values;
    std::vector<std::uint32_t> held;

    void resize(std::size_t new_depth);
    std::span<const double> last(std::size_t n) const;
    void push(double value);
    void advance() { slot = slot + 1 == period ? 0 : slot + 1; }
  };

  void absorb(double value);
  void insert_sorted(double value);
  void compute_scales();
  void compute_week_medians();

  SlotTable week_;
  SlotTable day_;
  // Day slot s keeps its last sorted_depth_ non-missing values once
  // more, ascending, at sorted_[s·sorted_depth_], each with the number of
  // values pushed to the slot before it (sorted_tag_); day_pushed_[s]
  // counts them all. The window of the last d values is the entries
  // tagged at least day_pushed_[s] - d, copied out in order.
  std::size_t sorted_depth_ = 0;
  std::vector<double> sorted_;
  std::vector<std::uint32_t> sorted_tag_;
  std::vector<std::uint32_t> day_pushed_;
  std::vector<std::size_t> window_depth_;  // per add_sorted_day_window
  std::vector<double> window_values_;      // sorted_day_values' result
  std::vector<double> week_sorted_;   // work space of the week medians
  std::vector<double> week_medians_;  // week_median(d) at d - 1
  std::size_t medians_for_ = 0;       // 1 + the point they belong to
  std::vector<RingBuffer<double>> lanes_;
  std::vector<double> scales_;      // residual_scale() per lane
  std::size_t scales_for_ = 0;      // 1 + the point scales_ belong to
  std::size_t next_ = 0;            // the point readers are being fed
  double next_value_ = 0.0;         // its value, once a reader reported it
  bool has_next_value_ = false;
};

// Common reader state: the store, the configuration's window in weeks,
// and how many points it has been fed.
class SeasonalReader : public Detector {
 public:
  std::string name() const override;
  std::size_t warmup_points() const override { return warmup_; }
  const void* shared_state() const override { return store_.get(); }
  void reset() override;

 protected:
  // Shares ctx.slot_store, or builds a store of its own when it is null.
  SeasonalReader(const char* family, std::size_t win_weeks,
                 std::size_t warmup, const SeriesContext& ctx);

  // Reports `value` to the store; false when it is missing.
  bool arrive(double value);

  std::shared_ptr<SeasonalSlotStore> store_;
  std::size_t win_weeks_ = 0;

 private:
  const char* family_;
  std::size_t warmup_ = 0;
  std::size_t seen_ = 0;
};

class TsdDetector final : public SeasonalReader {
 public:
  TsdDetector(std::size_t win_weeks, const SeriesContext& ctx);
  double feed(double value) override;

 private:
  std::size_t lane_ = 0;
};

class TsdMadDetector final : public SeasonalReader {
 public:
  TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  double feed(double value) override;
  void reset() override;

 private:
  RingBuffer<double> residuals_;   // recent residuals, for the scale
  util::SortedWindow sorted_residuals_;  // their non-NaN values, sorted
};

class HistoricalAverageDetector final : public SeasonalReader {
 public:
  HistoricalAverageDetector(std::size_t win_weeks, const SeriesContext& ctx);
  double feed(double value) override;
};

class HistoricalMadDetector final : public SeasonalReader {
 public:
  HistoricalMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  double feed(double value) override;

 private:
  std::size_t window_ = 0;  // the store's sorted day window
};

}  // namespace opprentice::detectors
