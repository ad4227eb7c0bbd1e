#include "reference_repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace opprentice::ts::reference {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kMaxGridExpansion = 1000;

void throw_dirty(const std::string& name, const RepairReport& report,
                 const char* what) {
  throw std::runtime_error("ingest of series '" + name +
                           "' failed under repair policy 'fail': " + what +
                           " (" + report.summary() + ")");
}

void fill_interpolate(std::vector<double>& values) {
  const std::size_t n = values.size();
  std::size_t i = 0;
  while (i < n && !std::isfinite(values[i])) ++i;
  if (i == n) return;
  for (std::size_t j = 0; j < i; ++j) values[j] = values[i];
  std::size_t last_finite = i;
  for (++i; i < n; ++i) {
    if (!std::isfinite(values[i])) continue;
    if (i > last_finite + 1) {
      const double lo = values[last_finite];
      const double hi = values[i];
      const double span = static_cast<double>(i - last_finite);
      for (std::size_t j = last_finite + 1; j < i; ++j) {
        const double t = static_cast<double>(j - last_finite) / span;
        values[j] = lo + (hi - lo) * t;
      }
    }
    last_finite = i;
  }
  for (std::size_t j = last_finite + 1; j < n; ++j) {
    values[j] = values[last_finite];
  }
}

}  // namespace

RepairResult repair_series(std::string name, std::vector<RawPoint> points,
                           std::int64_t interval_seconds,
                           RepairPolicy policy) {
  if (points.empty()) {
    throw std::runtime_error("ingest of series '" + name +
                             "': no data points");
  }

  RepairReport report;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].timestamp < points[i - 1].timestamp) ++report.out_of_order;
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const RawPoint& a, const RawPoint& b) {
                     return a.timestamp < b.timestamp;
                   });

  if (interval_seconds == 0) {
    for (std::size_t i = 1; i < points.size(); ++i) {
      const std::int64_t delta = points[i].timestamp - points[i - 1].timestamp;
      if (delta > 0 && (interval_seconds == 0 || delta < interval_seconds)) {
        interval_seconds = delta;
      }
    }
    if (interval_seconds == 0) {
      throw std::runtime_error(
          "ingest of series '" + name +
          "': cannot infer sampling interval (all timestamps identical)");
    }
  }
  if (!valid_interval(interval_seconds)) {
    throw std::runtime_error(
        "ingest of series '" + name + "': sampling interval " +
        std::to_string(interval_seconds) +
        "s must be positive and divide one day evenly");
  }

  const std::int64_t start = points.front().timestamp;
  const std::int64_t span = points.back().timestamp - start;
  const std::size_t slots = static_cast<std::size_t>(span / interval_seconds) + 1;
  if (slots > points.size() * kMaxGridExpansion) {
    throw std::runtime_error(
        "ingest of series '" + name + "': timestamp span " +
        std::to_string(span) + "s implies " + std::to_string(slots) +
        " grid slots for " + std::to_string(points.size()) +
        " points — refusing (corrupt timestamp?)");
  }

  std::vector<double> values(slots, kNan);
  std::vector<bool> filled(slots, false);
  for (const RawPoint& p : points) {
    const std::int64_t offset = p.timestamp - start;
    std::int64_t slot = (offset + interval_seconds / 2) / interval_seconds;
    if (slot < 0) slot = 0;
    if (static_cast<std::size_t>(slot) >= slots) {
      slot = static_cast<std::int64_t>(slots) - 1;
    }
    if (offset != slot * interval_seconds) ++report.misaligned;
    if (filled[static_cast<std::size_t>(slot)]) {
      ++report.duplicates;
      continue;
    }
    filled[static_cast<std::size_t>(slot)] = true;
    double v = p.value;
    if (!std::isfinite(v)) {
      ++report.bad_values;
      v = kNan;
    }
    values[static_cast<std::size_t>(slot)] = v;
  }
  for (std::size_t i = 0; i < slots; ++i) {
    if (!filled[i]) ++report.gaps;
  }

  if (policy == RepairPolicy::kFail && !report.clean()) {
    throw_dirty(name, report, "stream is dirty");
  }
  if (policy == RepairPolicy::kFillInterpolate) {
    fill_interpolate(values);
  }
  return RepairResult{
      TimeSeries(std::move(name), start, interval_seconds, std::move(values)),
      report};
}

}  // namespace opprentice::ts::reference
