#include "timeseries/repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::ts {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// A dirty stream could place two points a year apart; refusing grids far
// larger than the input keeps a corrupt timestamp from allocating GiBs.
constexpr std::size_t kMaxGridExpansion = 1000;

void throw_dirty(const std::string& name, const RepairReport& report,
                 const char* what) {
  throw std::runtime_error("ingest of series '" + name +
                           "' failed under repair policy 'fail': " + what +
                           " (" + report.summary() + ")");
}

// Instruments looked up once; addresses are stable for process lifetime.
struct IngestCounters {
  obs::Counter* out_of_order;
  obs::Counter* duplicates;
  obs::Counter* gaps;
  obs::Counter* bad_values;
  obs::Counter* misaligned;
};

void record_ingest_metrics(const RepairReport& report) {
  static const IngestCounters counters{
      &obs::counter("opprentice.ingest.out_of_order"),
      &obs::counter("opprentice.ingest.duplicates"),
      &obs::counter("opprentice.ingest.gaps"),
      &obs::counter("opprentice.ingest.bad_values"),
      &obs::counter("opprentice.ingest.misaligned")};
  if (report.clean()) return;  // the instruments exist; nothing to add
  counters.out_of_order->add(report.out_of_order);
  counters.duplicates->add(report.duplicates);
  counters.gaps->add(report.gaps);
  counters.bad_values->add(report.bad_values);
  counters.misaligned->add(report.misaligned);
}

// Linearly interpolates every interior NaN run between its nearest finite
// neighbors; leading/trailing runs copy the nearest finite value.
void fill_interpolate(std::vector<double>& values) {
  const std::size_t n = values.size();
  std::size_t i = 0;
  while (i < n && !std::isfinite(values[i])) ++i;
  if (i == n) return;  // nothing finite to anchor on; leave as-is
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

RepairPolicy parse_repair_policy(std::string_view text) {
  if (text == "fail") return RepairPolicy::kFail;
  if (text == "drop") return RepairPolicy::kDrop;
  if (text == "fill-interpolate") return RepairPolicy::kFillInterpolate;
  throw std::invalid_argument("unknown repair policy '" + std::string(text) +
                              "' (expected fail, drop, or fill-interpolate)");
}

const char* to_string(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kFail:
      return "fail";
    case RepairPolicy::kDrop:
      return "drop";
    case RepairPolicy::kFillInterpolate:
      return "fill-interpolate";
  }
  return "unknown";
}

std::string RepairReport::summary() const {
  return "out_of_order=" + std::to_string(out_of_order) +
         " duplicates=" + std::to_string(duplicates) +
         " gaps=" + std::to_string(gaps) +
         " bad_values=" + std::to_string(bad_values) +
         " misaligned=" + std::to_string(misaligned);
}

RepairResult repair_series(std::string name, std::vector<RawPoint> points,
                           std::int64_t interval_seconds,
                           RepairPolicy policy) {
  if (points.empty()) {
    throw std::runtime_error("ingest of series '" + name +
                             "': no data points");
  }

  RepairReport report;

  // Pass 1: ordering. Count inversions against the original arrival order
  // before sorting, so the report reflects what was actually dirty. With
  // no inversion the points are already sorted, and a stable sort of a
  // sorted run changes nothing.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].timestamp < points[i - 1].timestamp) ++report.out_of_order;
  }
  if (report.out_of_order > 0) {
    std::stable_sort(points.begin(), points.end(),
                     [](const RawPoint& a, const RawPoint& b) {
                       return a.timestamp < b.timestamp;
                     });
  }

  // Pass 2: interval. Infer from the smallest positive delta when the
  // caller did not specify one (on a clean stream this is exactly
  // t[1] - t[0]).
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

  // Pass 3: grid placement. Snap each point onto the fixed grid anchored
  // at the first timestamp; first write to a slot wins, extras count as
  // duplicates, empty slots are gaps. Sorted points map to non-decreasing
  // slots, so a duplicate repeats the last slot written, and the gaps are
  // the slots minus the distinct slots written.
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
  std::size_t distinct = 0;
  std::int64_t last_slot = -1;
  for (const RawPoint& p : points) {
    const std::int64_t offset = p.timestamp - start;
    std::int64_t slot = (offset + interval_seconds / 2) / interval_seconds;
    if (slot < 0) slot = 0;
    if (static_cast<std::size_t>(slot) >= slots) {
      slot = static_cast<std::int64_t>(slots) - 1;
    }
    if (offset != slot * interval_seconds) ++report.misaligned;
    if (slot == last_slot) {
      ++report.duplicates;
      continue;
    }
    last_slot = slot;
    ++distinct;
    double v = p.value;
    if (!std::isfinite(v)) {
      ++report.bad_values;
      v = kNan;
    }
    values[static_cast<std::size_t>(slot)] = v;
  }
  report.gaps = slots - distinct;

  if (policy == RepairPolicy::kFail && !report.clean()) {
    record_ingest_metrics(report);
    throw_dirty(name, report, "stream is dirty");
  }
  if (policy == RepairPolicy::kFillInterpolate) {
    fill_interpolate(values);
  }

  record_ingest_metrics(report);
  if (!report.clean()) {
    obs::log(obs::LogLevel::kWarn, "ingest", "repair",
             {{"series", name},
              {"policy", to_string(policy)},
              {"out_of_order", report.out_of_order},
              {"duplicates", report.duplicates},
              {"gaps", report.gaps},
              {"bad_values", report.bad_values},
              {"misaligned", report.misaligned}});
    // One flight event per dirty series, keyed by the input shape so
    // reruns over the same stream produce the same event.
    obs::flight_record(
        "ingest", "repair",
        util::fault_key(points.size(), static_cast<std::size_t>(start)),
        "series=" + name + " policy=" + to_string(policy) + " " +
            report.summary());
  }

  return RepairResult{
      TimeSeries(std::move(name), start, interval_seconds, std::move(values)),
      report};
}

void inject_ingest_faults(std::vector<RawPoint>& points,
                          std::uint64_t key_salt) {
  namespace faults = util::faults;
  if (!util::faults_enabled()) return;
  std::vector<RawPoint> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    RawPoint p = points[i];
    const std::uint64_t key = i ^ key_salt;
    if (util::inject_fault(faults::kIngestGap, key)) {
      continue;  // drop the point entirely -> a gap on the grid
    }
    if (util::inject_fault(faults::kIngestNan, key)) {
      p.value = kNan;
    }
    if (!out.empty() && util::inject_fault(faults::kIngestDuplicate, key)) {
      p.timestamp = out.back().timestamp;  // collide with the previous slot
    }
    out.push_back(p);
    if (out.size() >= 2 && util::inject_fault(faults::kIngestDisorder, key)) {
      std::swap(out[out.size() - 1], out[out.size() - 2]);
    }
  }
  points = std::move(out);
}

}  // namespace opprentice::ts
