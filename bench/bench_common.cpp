#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::bench {
namespace {

std::string cache_dir() {
  if (const char* env = std::getenv("OPPRENTICE_NO_CACHE");
      env != nullptr && std::string(env) == "1") {
    return {};
  }
  if (const char* env = std::getenv("OPPRENTICE_CACHE_DIR")) return env;
  return "bench-cache";
}

std::string scale_tag() {
  return datagen::scale_from_env() == datagen::Scale::kPaper ? "paper"
                                                             : "small";
}

// Fingerprint of everything a cached result depends on: every feature
// column (strided), the labels and every DriverOptions field. An entry
// goes stale the moment the generator, the labeling, any detector or any
// forest option changes.
std::uint64_t fingerprint(const core::ExperimentData& data,
                          const core::DriverOptions& options) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  auto mix_double = [&mix](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(data.dataset.num_rows());
  mix(data.dataset.num_features());
  mix(data.points_per_week);
  mix(data.warmup);
  for (std::size_t f = 0; f < data.dataset.num_features(); ++f) {
    const auto col = data.dataset.column(f);
    for (std::size_t i = 0; i < col.size(); i += 97) mix_double(col[i]);
  }
  const auto& labels = data.dataset.labels();
  for (std::size_t i = 0; i < labels.size(); i += 13) mix(labels[i]);

  mix(options.initial_weeks);
  mix(options.forest.num_trees);
  mix(options.forest.max_depth);
  mix(options.forest.min_samples_split);
  mix(options.forest.mtry);
  mix_double(options.forest.sample_fraction);
  mix(options.forest.seed);
  mix_double(options.preference.min_recall);
  mix_double(options.preference.min_precision);
  return h;
}

std::string run_cache_path(const std::string& kpi_name,
                           const core::ExperimentData& data,
                           const core::DriverOptions& options,
                           const std::string& kind) {
  const std::string dir = cache_dir();
  if (dir.empty()) return {};
  std::ostringstream name;
  name << dir << '/' << kind << '-' << kpi_name << '-' << scale_tag() << "-h"
       << std::hex << fingerprint(data, options) << ".txt";
  std::string path = name.str();
  // '#SR' is not filesystem-friendly.
  for (char& c : path) {
    if (c == '#') c = 'n';
  }
  return path;
}

// Reads one whitespace-separated number. Unlike `in >> *out` it accepts
// the "nan" that `out << NaN` writes: a run's scores before its first test
// week are NaN.
bool read_double(std::istream& in, double* out) {
  std::string token;
  if (!(in >> token)) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

bool load_run(const std::string& path, core::IncrementalRunResult* run) {
  std::ifstream in(path);
  if (!in) return false;
  std::size_t n = 0, weeks = 0;
  if (!(in >> n >> run->test_start >> weeks)) return false;
  run->scores.resize(n);
  for (auto& s : run->scores) {
    if (!read_double(in, &s)) return false;
  }
  run->weeks.resize(weeks);
  for (auto& w : run->weeks) {
    if (!(in >> w.test_begin >> w.test_end) ||
        !read_double(in, &w.best.cthld) || !read_double(in, &w.best.recall) ||
        !read_double(in, &w.best.precision)) {
      return false;
    }
  }
  return true;
}

void save_run(const std::string& path,
              const core::IncrementalRunResult& run) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out.precision(17);
  out << run.scores.size() << ' ' << run.test_start << ' '
      << run.weeks.size() << '\n';
  for (double s : run.scores) out << s << ' ';
  out << '\n';
  for (const auto& w : run.weeks) {
    out << w.test_begin << ' ' << w.test_end << ' ' << w.best.cthld << ' '
        << w.best.recall << ' ' << w.best.precision << '\n';
  }
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

core::IncrementalRunResult cached_weekly_incremental(
    const core::ExperimentData& data, const core::DriverOptions& options,
    const std::string& kpi_name) {
  const std::string path = run_cache_path(kpi_name, data, options, "incremental");
  core::IncrementalRunResult run;
  if (!path.empty() && load_run(path, &run) &&
      run.scores.size() == data.dataset.num_rows()) {
    obs::counter("opprentice.bench.cache.hits").add();
    return run;
  }
  obs::counter("opprentice.bench.cache.misses").add();
  obs::ScopedSpan span("bench.cache_fill", "bench");
  span.arg("rows", data.dataset.num_rows());
  run = core::run_weekly_incremental(data.dataset, data.points_per_week,
                                     data.warmup, options);
  if (!path.empty()) save_run(path, run);
  return run;
}

std::vector<double> cached_five_fold_cthlds(
    const core::ExperimentData& data, const core::DriverOptions& options,
    const std::string& kpi_name) {
  const std::string path = run_cache_path(kpi_name, data, options, "fivefold");
  if (!path.empty()) {
    std::ifstream in(path);
    if (in) {
      std::size_t n = 0;
      if (in >> n) {
        std::vector<double> cthlds(n);
        bool ok = true;
        for (auto& c : cthlds) ok = ok && read_double(in, &c);
        if (ok) {
          obs::counter("opprentice.bench.cache.hits").add();
          return cthlds;
        }
      }
    }
  }
  obs::counter("opprentice.bench.cache.misses").add();
  obs::ScopedSpan span("bench.cache_fill", "bench");
  const auto cthlds = core::five_fold_weekly_cthlds(
      data.dataset, data.points_per_week, data.warmup, options);
  if (!path.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out.precision(17);
    out << cthlds.size() << '\n';
    for (double c : cthlds) out << c << ' ';
    out << '\n';
  }
  return cthlds;
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
