// Shared plumbing for the per-figure/per-table bench binaries.
//
// Every bench reproduces one table or figure of the paper's §5 on the
// three synthetic KPI presets (PV, #SR, SRT). Each binary computes its
// weekly-incrementally-retrained forest scores itself with
// core::run_weekly_incremental; results are deterministic.
#pragma once

#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/kpi_presets.hpp"
#include "eval/pr_curve.hpp"
#include "obs/obs.hpp"

namespace opprentice::bench {

// Shared flag harness for the bench binaries: parses and strips
//   --json <path>    write an obs metrics snapshot (JSON) on exit
//   --trace <path>   collect trace spans and write Chrome trace JSON
//   --threads <n>    thread-pool size (0 = hardware, 1 = serial)
// from argv (leaving unknown flags alone, so google-benchmark flags pass
// through) and performs the writes in the destructor. Passing --json also
// enables detailed timing so latency histograms populate.
//
// The --json file (schema "opprentice.bench.metrics/1"; see DESIGN.md
// "Observability") renders as
//   {schema, binary, scale, <extra json>, run_report, metrics}
// with the process metrics snapshot last.
class Session {
 public:
  Session(int& argc, char** argv);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& json_path() const { return json_path_; }
  const std::string& trace_path() const { return trace_path_; }

  // Run-report manifest (run_report.hpp) embedded into the --json
  // envelope as "run_report". Bench code decorates it (stages, seeds,
  // extra fields) before the destructor renders it.
  obs::RunReport& report() { return report_; }

  // Extra top-level JSON members (pre-rendered, comma-joined, no trailing
  // comma) merged into the --json envelope, e.g. a bench-specific summary.
  void set_extra_json(std::string extra) { extra_json_ = std::move(extra); }

 private:
  std::string binary_;
  std::string json_path_;
  std::string trace_path_;
  std::string extra_json_;
  obs::RunReport report_;
};

// The operators' actual preference in the paper (§2.2).
inline constexpr eval::AccuracyPreference kPaperPreference{0.66, 0.66};

// Forest configuration used by every experiment.
ml::ForestOptions standard_forest();
core::DriverOptions standard_driver();

// Prepares one KPI's experiment data (generation + operator labeling +
// 133-configuration feature extraction).
core::ExperimentData prepare_kpi(const datagen::KpiPreset& preset);

// All three KPIs at the environment's scale.
std::vector<core::ExperimentData> prepare_all_kpis();

// Test-region views of an incremental run.
std::vector<double> test_scores(const core::IncrementalRunResult& run);
std::vector<std::uint8_t> test_labels(const core::ExperimentData& data,
                                      const core::IncrementalRunResult& run);

// Banner helpers so bench output reads like the paper.
void print_header(const std::string& id, const std::string& title);
std::string fmt(double v, int precision = 3);

}  // namespace opprentice::bench
