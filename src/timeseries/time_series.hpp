// KPI time series: the (timestamp, value) data every Opprentice component
// consumes (§2.1 of the paper).
//
// Values are sampled on a fixed interval, so timestamps are implicit:
// timestamp(i) = start_epoch + i * interval. Missing points ("dirty data",
// §6) are stored as NaN.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace opprentice::ts {

// Seconds-based durations keep calendar arithmetic trivial.
inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86400;
inline constexpr std::int64_t kSecondsPerWeek = 7 * kSecondsPerDay;

// The grid rule every ingest path applies: a sampling interval is
// positive and divides one day evenly.
inline constexpr bool valid_interval(std::int64_t seconds) {
  return seconds > 0 && kSecondsPerDay % seconds == 0;
}

class TimeSeries {
 public:
  TimeSeries() = default;

  // interval_seconds must be positive and divide one day evenly, so that
  // "points per day/week" are well defined (all paper KPIs satisfy this).
  TimeSeries(std::string name, std::int64_t start_epoch,
             std::int64_t interval_seconds, std::vector<double> values);

  const std::string& name() const { return name_; }
  std::int64_t start_epoch() const { return start_epoch_; }
  std::int64_t interval_seconds() const { return interval_seconds_; }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](std::size_t i) const { return values_[i]; }
  double& operator[](std::size_t i) { return values_[i]; }

  std::span<const double> values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  std::int64_t timestamp(std::size_t i) const {
    return start_epoch_ + static_cast<std::int64_t>(i) * interval_seconds_;
  }

  std::size_t points_per_day() const;
  std::size_t points_per_week() const;

  // Sub-series covering [begin, end) points; keeps calendar alignment by
  // shifting start_epoch. Throws std::out_of_range on bad bounds.
  TimeSeries slice(std::size_t begin, std::size_t end) const;

  // Appends another series; it must have the same interval and start
  // exactly where this one ends. Throws std::invalid_argument otherwise.
  void append(const TimeSeries& tail);

  void push_back(double value) { values_.push_back(value); }

 private:
  std::string name_;
  std::int64_t start_epoch_ = 0;
  std::int64_t interval_seconds_ = kSecondsPerMinute;
  std::vector<double> values_;
};

}  // namespace opprentice::ts
