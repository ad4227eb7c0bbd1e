// opprentice_perf — the perf-regression gate (perf_gate.hpp).
//
//   opprentice_perf [options] baseline.json fresh.json
//
// Compares a fresh perfbench result line against the committed baseline
// on the --metric keys, the whole gate; exits 0 when every gated metric is
// inside its tolerance, 1 on a regression, 2 on a usage or parse error or
// a key neither document measures. CI runs this on the paper_stream
// workload (BENCH_paper_stream.json is the committed baseline,
// BENCH_history.jsonl the trend file).
#include <cstdio>
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
      "  --metric key=X[:higher|:lower]\n"
      "                       one gated metric, repeatable, at least one\n"
      "                       required; the keys are the whole gate. The\n"
      "                       key is a dotted path into both documents\n"
      "                       (e.g. metrics.lag_p50_ms.value) that at\n"
      "                       least one of them must hold. X is the\n"
      "                       allowed relative worsening (0.25 = fresh may\n"
      "                       be 25%% slower); a metric is lower-is-better\n"
      "                       unless it ends in :higher (then it may fall\n"
      "                       to baseline / (1 + X), e.g. a throughput)\n"
      "  --history file.jsonl append the fresh numbers (one JSON object\n"
      "                       per line) and print trend sparklines\n"
      "  --label NAME         history row label (a commit id or CI run\n"
      "                       number; default \"run\")\n"
      "  --self-test          verify the gate on planted passing and\n"
      "                       regressing bench pairs\n"
      "\n"
      "exit: 0 pass, 1 regression, 2 usage/parse error or a key\n"
      "      measured in neither document\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opprentice;
  std::vector<perf::MetricSpec> metrics;
  std::string history_path;
  std::string label = "run";
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--self-test") return perf::self_test();
    if (arg == "--metric") {
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
      metrics.push_back(metric);
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
  if (metrics.empty()) {
    std::fprintf(stderr, "name the metrics to gate with --metric\n");
    return 2;
  }

  try {
    const auto baseline = util::json::parse_file(files[0]);
    const auto fresh = util::json::parse_file(files[1]);
    const auto result = perf::run_gate(baseline, fresh, metrics);
    std::printf("baseline: %s\nfresh:    %s\n%s", files[0].c_str(),
                files[1].c_str(), result.summary.c_str());
    if (!result.unreadable.empty()) {
      std::fflush(stdout);  // the table first, then the error naming keys
      for (const auto& key : result.unreadable) {
        std::fprintf(stderr, "error: --metric %s is measured in neither %s "
                     "nor %s\n", key.c_str(), files[0].c_str(),
                     files[1].c_str());
      }
      return 2;
    }
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
