// perfbench: the repository benchmark (README.md).
//
//   perfbench --workload <paper_stream|wire_live|weekly_retrain>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints human-readable lines, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check failed, 2 on bad arguments, 3 when the run could not
// complete (no result line then).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json_util.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's "end_to_end" and "per_layer" names.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"points_per_s", "points/s"},
    {"lag_p50_ms", "ms"},    {"lag_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.exchange_us", "us/frame"},
    {"net.encode_us", "us/frame"},
    {"net.on_bytes_us", "us/frame"},
    {"net.tick_us", "us/tick"},
    {"net.queue_wait_ms", "ms"},
    {"net.bytes_per_point", "B/pt"},
    {"net.retry_frac", "ratio"},
    {"timeseries.repair_us_per_point", "us/pt"},
    {"timeseries.repairs_bad_values", "count"},
    {"timeseries.repairs_other", "count"},
    {"core.feed_us_p50", "us/pt"},
    {"core.feed_us_p99", "us/pt"},
    {"core.retrain_feed_ms", "ms/retrain"},
    {"core.pool_speedup", "x"},
    {"core.apply_other_us_per_point", "us/pt"},
    {"core.bytes_per_series.empty", "B"},
    {"core.bytes_per_series.warm", "B"},
    {"core.bytes_per_series.trained", "B"},
    {"core.retrains", "count"},
    {"core.train_failures", "count"},
    {"core.quarantined", "count"},
    {"detectors.extract_us", "us/pt"},
    {"detectors.simple_threshold_us", "us/pt"},
    {"detectors.diff_us", "us/pt"},
    {"detectors.simple_ma_us", "us/pt"},
    {"detectors.weighted_ma_us", "us/pt"},
    {"detectors.ma_of_diff_us", "us/pt"},
    {"detectors.ewma_us", "us/pt"},
    {"detectors.tsd_us", "us/pt"},
    {"detectors.tsd_mad_us", "us/pt"},
    {"detectors.historical_average_us", "us/pt"},
    {"detectors.historical_mad_us", "us/pt"},
    {"detectors.holt_winters_us", "us/pt"},
    {"detectors.svd_us", "us/pt"},
    {"detectors.wavelet_us", "us/pt"},
    {"detectors.arima_us", "us/pt"},
    {"detectors.batch_extract_s", "s"},
    {"ml.score_us", "us/pt"},
    {"ml.train_ms", "ms/round"},
    {"ml.train_rows", "rows"},
    {"ml.score_all_us_per_row", "us/row"},
    {"eval.cthld_pick_ms", "ms/pick"},
    {"eval.aucpr", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_stream|wire_live|weekly_retrain> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

// Puts the program in the state every phase is measured in: no
// in-program tracing or detailed timing, no logging, no fault plan, and
// a pool of at most four lanes.
void configure_program() {
  namespace obs = opprentice::obs;
  obs::disable_tracing();
  obs::set_detailed_timing(false);
  obs::set_log_level(obs::LogLevel::kOff);
  opprentice::util::clear_fault_plan();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opprentice::util::set_global_threads(std::min(4u, hw));
}

// Orders the result's metrics by the spec list; an idle layer (a metric
// the workload does not exercise) reports 0. False when the workload
// reported a metric outside the list or left an end-to-end one out.
bool conform(RunResult& result, bool trace, std::string* error) {
  const auto* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const perfbench::Metric& m : result.metrics) {
    if (std::none_of(begin, end, [&](const MetricSpec& s) {
          return m.name == s.name;
        })) {
      *error = "metric '" + m.name + "' is not in the metric list";
      return false;
    }
  }
  std::vector<perfbench::Metric> ordered;
  for (const auto* spec = begin; spec != end; ++spec) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const perfbench::Metric& m) { return m.name == spec->name; });
    if (it == result.metrics.end() && !trace) {
      *error = std::string("end-to-end metric '") + spec->name + "' missing";
      return false;
    }
    ordered.push_back(perfbench::Metric{
        spec->name, it == result.metrics.end() ? 0.0 : it->value, spec->unit});
  }
  result.metrics = std::move(ordered);
  return true;
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : result.metrics) {
    if (!first) out += ", ";
    first = false;
    opprentice::obs::append_json_string(out, m.name);
    out += ": {\"value\": ";
    opprentice::obs::append_json_double(out, m.value);
    out += ", \"unit\": ";
    opprentice::obs::append_json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      workload = std::string(value);
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, &options.seed);
      if (!have_seed) usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      std::uint64_t seconds = 0;
      have_seconds = parse_u64(value, &seconds) && seconds > 0 &&
                     seconds <= 3600;
      if (!have_seconds) usage("--seconds must be a whole number in [1, 3600]");
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      if (!have_trace) usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = std::string(value);
    } else {
      usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }

  configure_program();
  RunResult result;
  try {
    if (workload == "paper_stream") {
      result = perfbench::run_paper_stream(options);
    } else if (workload == "wire_live") {
      result = perfbench::run_wire_live(options);
    } else if (workload == "weekly_retrain") {
      result = perfbench::run_weekly_retrain(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 3;
  }
  std::string error;
  if (!conform(result, options.trace, &error)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), error.c_str());
    return 3;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : result.notes) {
    std::printf("  %s\n", line.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& check : result.failed_checks) {
    std::printf("  CHECK FAILED: %s\n", check.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
