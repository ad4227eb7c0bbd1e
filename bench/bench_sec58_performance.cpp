// §5.8: "Detection lag and training time."
//
// Paper numbers (Xeon E5-2420): feature extraction ~0.15 s/point over 133
// configurations, classification < 0.0001 s/point, offline training < 5
// minutes per round. Absolute numbers differ on this host; the claims to
// preserve are classification << extraction << data interval, and training
// far below the weekly retraining budget. After the benchmarks run, main
// checks each claim whose both sides this run measured and exits 1 if one
// fails (ctest `bench_sec58_ordering` runs the three benchmarks they need).
//
// `--json <file>` writes the bench envelope (schema
// "opprentice.bench.metrics/1"; see DESIGN.md "Observability") with a
// "benchmarks" array of per-iteration timings.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detectors/feature_extractor.hpp"
#include "ml/random_forest.hpp"
#include "obs/json_util.hpp"
#include "util/thread_pool.hpp"

using namespace opprentice;

namespace {

const core::ExperimentData& experiment() {
  static const core::ExperimentData data =
      bench::prepare_kpi(datagen::pv_preset(datagen::scale_from_env()));
  return data;
}

void BM_FeatureExtractionPerPoint(benchmark::State& state) {
  const auto& data = experiment();
  const detectors::SeriesContext ctx{data.series.points_per_day(),
                                     data.series.points_per_week()};
  detectors::StreamingExtractor extractor(
      detectors::standard_configurations(ctx));
  // Warm the detectors on two weeks of history first.
  std::size_t i = 0;
  const std::size_t warm = 2 * data.points_per_week;
  for (; i < warm && i < data.series.size(); ++i) {
    extractor.feed(data.series[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.feed(data.series[i % data.series.size()]));
    ++i;
  }
  state.SetLabel("all 133 configurations");
}
BENCHMARK(BM_FeatureExtractionPerPoint)->Unit(benchmark::kMicrosecond);

void BM_ClassificationPerPoint(benchmark::State& state) {
  const auto& data = experiment();
  ml::RandomForest forest(bench::standard_forest());
  forest.train(
      data.dataset.slice(data.warmup, 8 * data.points_per_week));
  const auto row = data.dataset.row(9 * data.points_per_week);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.score(row));
  }
  state.SetLabel("random forest, 48 trees");
}
BENCHMARK(BM_ClassificationPerPoint)->Unit(benchmark::kMicrosecond);

// Thread-count sweep (arg = pool size). All parallel paths are
// bit-identical across the sweep (tests/parallel_equivalence_test.cpp);
// these benchmarks measure only how much wall clock the pool buys.
void BM_TrainingPerRound(benchmark::State& state) {
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  const auto& data = experiment();
  const ml::Dataset train =
      data.dataset.slice(data.warmup, 8 * data.points_per_week);
  for (auto _ : state) {
    ml::RandomForest forest(bench::standard_forest());
    forest.train(train);
    benchmark::DoNotOptimize(forest.tree_count());
  }
  state.SetLabel(std::to_string(train.num_rows()) + " rows x 133 features");
  util::set_global_threads(0);
}
BENCHMARK(BM_TrainingPerRound)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Batch extraction of all 133 configurations over the full series — the
// §5.8 "all the detectors can run in parallel" claim, realized by the
// pool (one task per configuration).
void BM_BatchExtraction(benchmark::State& state) {
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  const auto& data = experiment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detectors::extract_standard_features(data.series));
  }
  state.SetLabel(std::to_string(data.series.size()) +
                 " points x 133 configurations");
  util::set_global_threads(0);
}
BENCHMARK(BM_BatchExtraction)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_FiveFoldCthld(benchmark::State& state) {
  const auto& data = experiment();
  const ml::Dataset train =
      data.dataset.slice(data.warmup, 8 * data.points_per_week);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::five_fold_cthld(
        train, bench::kPaperPreference, bench::standard_forest()));
  }
  state.SetLabel("5 forests + 1000-candidate sweep");
}
BENCHMARK(BM_FiveFoldCthld)->Unit(benchmark::kMillisecond)->Iterations(1);

// Per-family extraction cost: where the 0.15 s/point budget goes. The
// paper notes "all the detectors can run in parallel", so the per-family
// figures are also the per-worker costs of a parallel deployment.
void BM_FamilyPerPoint(benchmark::State& state, const std::string& family) {
  const auto& data = experiment();
  const detectors::SeriesContext ctx{data.series.points_per_day(),
                                     data.series.points_per_week()};
  auto configs = detectors::DetectorRegistry::with_standard_families()
                     .instantiate_family(family, ctx);
  std::size_t i = 0;
  const std::size_t warm =
      std::min<std::size_t>(2 * data.points_per_week, data.series.size());
  for (; i < warm; ++i) {
    for (auto& d : configs) d->feed(data.series[i]);
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (auto& d : configs) {
      sum += d->feed(data.series[i % data.series.size()]);
    }
    benchmark::DoNotOptimize(sum);
    ++i;
  }
  state.SetLabel(std::to_string(configs.size()) + " configurations");
}

const int kFamilyBenchmarks = [] {
  for (const char* family :
       {"simple_threshold", "diff", "simple_ma", "weighted_ma", "ma_of_diff",
        "ewma", "tsd", "tsd_mad", "historical_average", "historical_mad",
        "holt_winters", "svd", "wavelet", "arima"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Family/") + family).c_str(),
        [family](benchmark::State& state) {
          BM_FamilyPerPoint(state, family);
        })
        ->Unit(benchmark::kMicrosecond);
  }
  return 0;
}();

// Keeps console output and captures per-iteration runs for the --json
// report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    // Keep per-iteration runs only (aggregates reappear under
    // --benchmark_repetitions); erroneous runs report zero time and are
    // filtered by the `> 0` guards below. The field reporting errors is
    // not used because its name changed across benchmark versions.
    for (const auto& run : report) {
      if (run.run_type == Run::RT_Iteration) runs_.push_back(run);
    }
    ConsoleReporter::ReportRuns(report);
  }

  // Seconds per iteration of the last run whose name matches `name`,
  // ignoring trailing decorations benchmark appends after a '/' (e.g.
  // Iterations(1) turns ".../threads:1" into ".../threads:1/iterations:1");
  // negative when absent.
  double seconds_per_iter(const std::string& name) const {
    double result = -1.0;
    for (const auto& run : runs_) {
      const std::string run_name = run.run_name.str();
      const bool matches =
          run_name == name ||
          (run_name.size() > name.size() &&
           run_name.compare(0, name.size(), name) == 0 &&
           run_name[name.size()] == '/');
      if (matches && run.iterations > 0) {
        result = run.real_accumulated_time /
                 static_cast<double>(run.iterations);
      }
    }
    return result;
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

// Renders the "benchmarks" array of the --json envelope.
std::string render_report(const CaptureReporter& reporter) {
  std::string out = "\"benchmarks\": [";
  bool first = true;
  for (const auto& run : reporter.runs()) {
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\": ";
    obs::append_json_string(out, run.run_name.str());
    out += ", \"iterations\": " + std::to_string(run.iterations);
    out += ", \"real_us_per_iter\": ";
    obs::append_json_double(
        out, 1e6 * run.real_accumulated_time /
                 static_cast<double>(run.iterations));
    out += ", \"cpu_us_per_iter\": ";
    obs::append_json_double(
        out, 1e6 * run.cpu_accumulated_time /
                 static_cast<double>(run.iterations));
    if (!run.report_label.empty()) {
      out += ", \"label\": ";
      obs::append_json_string(out, run.report_label);
    }
    out += '}';
  }
  out += "\n]";
  return out;
}

// The §5.8 claims, each checked when this run measured both its sides (a
// --benchmark_filter may leave some out). Prints one line per claim;
// returns 1 if any checked claim fails, else 0.
int check_claims(const CaptureReporter& reporter) {
  const double extraction_s =
      reporter.seconds_per_iter("BM_FeatureExtractionPerPoint");
  const double classification_s =
      reporter.seconds_per_iter("BM_ClassificationPerPoint");
  // The serial round carries the canonical §5.8 training number.
  const double training_s =
      reporter.seconds_per_iter("BM_TrainingPerRound/threads:1");
  const double interval_s =
      extraction_s > 0.0
          ? static_cast<double>(experiment().series.interval_seconds())
          : -1.0;
  struct Claim {
    const char* text;
    double lhs_s;
    double rhs_s;
  };
  const Claim claims[] = {
      {"classification < extraction", classification_s, extraction_s},
      {"extraction < data interval", extraction_s, interval_s},
      {"training round < 5 min", training_s, 300.0},
  };
  int status = 0;
  for (const Claim& claim : claims) {
    if (!(claim.lhs_s > 0.0 && claim.rhs_s > 0.0)) {
      std::printf("sec5.8 %-28s not measured\n", claim.text);
      continue;
    }
    const bool holds = claim.lhs_s < claim.rhs_s;
    std::printf("sec5.8 %-28s %s (%.3g s vs %.3g s)\n", claim.text,
                holds ? "holds" : "FAILS", claim.lhs_s, claim.rhs_s);
    if (!holds) status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!session.json_path().empty()) {
    session.set_extra_json(render_report(reporter));
  }
  return check_claims(reporter);
}
