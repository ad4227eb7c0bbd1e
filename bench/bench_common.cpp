#include "bench_common.hpp"

#include <cstdio>
#include <fstream>

#include "util/ascii_chart.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::bench {
namespace {

std::string scale_tag() {
  return datagen::scale_from_env() == datagen::Scale::kPaper ? "paper"
                                                             : "small";
}

// Removes argv[i] and argv[i+1], updating argc.
void strip_two(int& argc, char** argv, int i) {
  for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
  argc -= 2;
}

}  // namespace

Session::Session(int& argc, char** argv) : report_("bench", "") {
  binary_ = argc > 0 ? argv[0] : "bench";
  // Keep only the basename for the report.
  if (const auto slash = binary_.find_last_of('/');
      slash != std::string::npos) {
    binary_ = binary_.substr(slash + 1);
  }
  for (int i = 1; i + 1 < argc;) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json_path_ = argv[i + 1];
      strip_two(argc, argv, i);
    } else if (flag == "--trace") {
      trace_path_ = argv[i + 1];
      strip_two(argc, argv, i);
    } else if (flag == "--threads") {
      util::set_global_threads(
          util::resolve_thread_count(argv[i + 1]));
      strip_two(argc, argv, i);
    } else {
      ++i;
    }
  }
  if (!json_path_.empty()) obs::set_detailed_timing(true);
  if (!trace_path_.empty()) obs::enable_tracing();
  // Rebuild the report now that --threads (if any) was applied; record
  // the effective pool degree, not just the configured one.
  report_ = obs::RunReport("bench", binary_);
  report_.set_threads(util::global_thread_count());
  report_.set_seed("forest", standard_forest().seed);
}

Session::~Session() {
  if (!json_path_.empty()) {
    std::ofstream out(json_path_);
    out << "{\n\"schema\": \"opprentice.bench.metrics/1\",\n"
        << "\"binary\": \"" << binary_ << "\",\n"
        << "\"scale\": \"" << scale_tag() << "\",\n";
    if (!extra_json_.empty()) out << extra_json_ << ",\n";
    out << "\"run_report\": " << report_.to_json() << ",\n"
        << "\"metrics\": " << obs::Registry::instance().json() << "}\n";
    if (!out) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   json_path_.c_str());
    }
  }
  if (!trace_path_.empty() && !obs::write_trace(trace_path_)) {
    std::fprintf(stderr, "bench: cannot write --trace file %s\n",
                 trace_path_.c_str());
  }
}

ml::ForestOptions standard_forest() {
  ml::ForestOptions f;
  f.num_trees = 48;
  f.seed = 42;
  return f;
}

core::DriverOptions standard_driver() {
  core::DriverOptions d;
  d.initial_weeks = 8;
  d.forest = standard_forest();
  d.preference = kPaperPreference;
  return d;
}

core::ExperimentData prepare_kpi(const datagen::KpiPreset& preset) {
  const auto kpi = datagen::generate_kpi(preset.model, preset.injection);
  return core::prepare_experiment(kpi);
}

std::vector<core::ExperimentData> prepare_all_kpis() {
  std::vector<core::ExperimentData> out;
  for (const auto& preset : datagen::all_presets(datagen::scale_from_env())) {
    out.push_back(prepare_kpi(preset));
  }
  return out;
}

std::vector<double> test_scores(const core::IncrementalRunResult& run) {
  return std::vector<double>(
      run.scores.begin() + static_cast<std::ptrdiff_t>(run.test_start),
      run.scores.end());
}

std::vector<std::uint8_t> test_labels(const core::ExperimentData& data,
                                      const core::IncrementalRunResult& run) {
  const auto& labels = data.dataset.labels();
  return std::vector<std::uint8_t>(
      labels.begin() + static_cast<std::ptrdiff_t>(run.test_start),
      labels.end());
}

void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("Opprentice reproduction (synthetic KPIs; see DESIGN.md)\n");
  std::printf("================================================================\n");
}

std::string fmt(double v, int precision) {
  return util::format_double(v, precision);
}

}  // namespace opprentice::bench
