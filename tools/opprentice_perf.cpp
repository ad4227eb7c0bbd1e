// opprentice_perf — the perf-regression gate (perf_gate.hpp).
//
//   opprentice_perf [options] baseline.json fresh.json
//
// Compares a fresh bench JSON against the committed baseline; exits 0
// when every gated metric is inside its tolerance (and, for a §5.8
// baseline, the §5.8 ordering holds), 1 on a regression, 2 on a usage or
// parse error. The baseline decides the gate set: a §5.8 baseline (one
// with a "sec58" object) gates the four default metrics plus the
// ordering bits; any other baseline gates only the --metric keys. CI
// runs this after every Release build (BENCH_sec58.json and
// BENCH_paper_stream.json are the committed baselines,
// BENCH_history.jsonl the trend file).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perf_gate.hpp"
#include "util/json.hpp"

namespace {

int usage() {
  std::printf(
      "opprentice_perf — bench-JSON perf-regression gate\n"
      "\n"
      "usage: opprentice_perf [options] baseline.json fresh.json\n"
      "       opprentice_perf --self-test\n"
      "\n"
      "options:\n"
      "  --tolerance X        default allowed relative increase\n"
      "                       (0.25 = fresh may be 25%% slower; default)\n"
      "  --metric key=X[:higher|:lower]\n"
      "                       per-metric tolerance, repeatable; a metric is\n"
      "                       lower-is-better unless it ends in :higher\n"
      "                       (then it may fall to baseline / (1 + X),\n"
      "                       e.g. a throughput). Against a\n"
      "                       baseline with a sec58 object it overrides\n"
      "                       the default keys (extraction_us_per_point,\n"
      "                       classification_us_per_point,\n"
      "                       training_ms_per_round, five_fold_cthld_ms)\n"
      "                       or adds one; against any other baseline the\n"
      "                       --metric keys are the whole gate (at least\n"
      "                       one required). A dotted key such as\n"
      "                       metrics.lag_p50_ms.value is an absolute\n"
      "                       path, e.g. into a perfbench result line\n"
      "  --history file.jsonl append the fresh numbers (one JSON object\n"
      "                       per line) and print trend sparklines\n"
      "  --label NAME         history row label (a commit id or CI run\n"
      "                       number; default \"run\")\n"
      "  --self-test          verify the gate on planted passing and\n"
      "                       regressing bench pairs\n"
      "\n"
      "exit: 0 pass, 1 regression, 2 usage/parse error\n");
  return 2;
}

// Strict non-negative double parse (std::strtod; no partial parses).
bool parse_tolerance(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !(v >= 0.0)) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opprentice;
  perf::GateOptions options;
  std::string history_path;
  std::string label = "run";
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--self-test") return perf::self_test();
    if (arg == "--tolerance") {
      const char* v = value();
      if (v == nullptr || !parse_tolerance(v, &options.default_tolerance)) {
        std::fprintf(stderr, "--tolerance: expected a non-negative number\n");
        return 2;
      }
    } else if (arg == "--metric") {
      const char* v = value();
      const std::string spec = v == nullptr ? "" : v;
      perf::MetricSpec metric;
      if (!perf::parse_metric_spec(spec, &metric)) {
        std::fprintf(stderr,
                     "--metric: expected key=tolerance[:higher|:lower], got "
                     "'%s'\n",
                     spec.c_str());
        return 2;
      }
      options.metrics.push_back(metric);
    } else if (arg == "--history") {
      const char* v = value();
      if (v == nullptr) return usage();
      history_path = v;
    } else if (arg == "--label") {
      const char* v = value();
      if (v == nullptr) return usage();
      label = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return usage();

  try {
    const auto baseline = util::json::parse_file(files[0]);
    const auto fresh = util::json::parse_file(files[1]);
    const auto metrics = perf::gated_metrics(baseline, options);
    if (metrics.empty()) {
      std::fprintf(stderr,
                   "%s has no sec58 object: name the metrics to gate with "
                   "--metric\n",
                   files[0].c_str());
      return 2;
    }
    const auto result = perf::run_gate(baseline, fresh, options);
    std::printf("baseline: %s\nfresh:    %s\n%s", files[0].c_str(),
                files[1].c_str(), result.summary.c_str());
    if (!history_path.empty()) {
      if (!perf::append_history(
              history_path,
              perf::history_row(label, fresh, metrics))) {
        std::fprintf(stderr, "warning: cannot append to %s\n",
                     history_path.c_str());
      }
      const std::string trend =
          perf::render_history(history_path, metrics);
      if (!trend.empty()) std::printf("%s", trend.c_str());
    }
    return result.pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
