// Shared definitions of the three benchmark workloads (README.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

// The paper's workload granularity: 10-minute bins.
inline constexpr std::int64_t kIntervalSeconds = 600;
inline constexpr std::size_t kPointsPerDay = 144;
inline constexpr std::size_t kPointsPerWeek = 7 * kPointsPerDay;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // how long the timed phase measures
  bool trace = false;     // false: end-to-end metrics; true: per-layer
  std::string out_dir;    // where a traced run writes its span file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. A failed output check sets correct to
// false and records why; the run still reports its metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::vector<std::string> notes;  // human-readable context lines

  void set(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

RunResult run_paper_stream(const RunOptions& options);
RunResult run_wire_live(const RunOptions& options);
RunResult run_weekly_retrain(const RunOptions& options);

// ---- shared helpers ----

// Per-series (or per-KPI) seed derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// Throws when in-program detailed timing is on: untraced phases must not
// pay for the program's own stopwatches (observer-effect guard).
void require_untimed(const char* phase);

// One generated KPI at 10-minute bins: values, injected ground truth, and
// the operator labels the program trains on.
struct GeneratedSeries {
  std::vector<double> values;
  std::vector<std::uint8_t> truth;
  std::vector<std::uint8_t> labels;
};

// Even indices get the PV preset, odd ones #SR, each with its own
// derived seed; `weeks` of points.
GeneratedSeries generate_series(std::uint64_t seed, std::size_t index,
                                std::size_t weeks);

// AUCPR of `scores` against `truth` (NaN scores are skipped); NaN when the
// window has no positive or no scored row.
double window_aucpr(std::span<const double> scores,
                    std::span<const std::uint8_t> truth);

// "p99 of 3024 ticks (30 beyond)", or "max of 2 rounds" when the sample
// supports no percentile.
std::string describe_tail(const TailStat& tail, const char* samples);

}  // namespace perfbench
