// weekly_retrain: the paper's offline I1 protocol (§5.1, §5.8).
//
// Set-up generates the PV, #SR and SRT presets (25, 19 and 16 weeks) and
// batch-extracts all 133 configurations. The timed phase runs
// core::run_weekly_incremental on each KPI, over and over until the
// window has elapsed: for every test week from the 9th on, train a
// forest on all prior rows and score the week — 36 forests per round,
// growing to 25k rows x 133 columns. It is the write side (train) of the
// forest whose read side (score) paper_stream stresses; detectors and net
// do no work in the timed phase. A round is the unit of latency: the
// time from handing the three datasets over until every score returned.
//
// Traced run: one untraced round, then the same protocol re-run week by
// week through the public ml and eval functions with spans around
// training, batch scoring and cThld selection. Its scores must be
// bit-identical to the untraced round's.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/weekly_driver.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "labeling/operator_model.hpp"
#include "ml/random_forest.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = opprentice::core;
namespace datagen = opprentice::datagen;
namespace detectors = opprentice::detectors;
namespace eval = opprentice::eval;
namespace labeling = opprentice::labeling;
namespace ml = opprentice::ml;

constexpr std::size_t kSetupRepeats = 3;
// A round takes 6-8 s, so a 15 s window would hold two rounds or three
// depending on the host's speed; the best-of-laps composite must not
// change its lap count with it.
constexpr std::size_t kMinRounds = 3;
// Rows scored per week by the single-row scoring shadow.
constexpr std::size_t kScoreSampleRows = 256;
// Mean test-region AUCPR below this means detection broke, not drifted.
constexpr double kAucprFloor = 0.3;

struct Kpi {
  std::string name;
  opprentice::ts::TimeSeries series;
  std::vector<std::uint8_t> truth;
  ml::Dataset dataset;
  std::size_t points_per_week = 0;
  std::size_t warmup = 0;
};

core::DriverOptions driver_options() {
  core::DriverOptions options;
  options.initial_weeks = 8;
  options.preference = eval::AccuracyPreference{0.66, 0.66};
  return options;  // 48-tree forest, seed 42
}

// Generation, operator labeling and batch extraction of the three
// presets. Batch extraction time is added to *extract_s.
std::vector<Kpi> prepare(std::uint64_t seed, double* extract_s) {
  const datagen::Scale scale = datagen::Scale::kSmall;
  const datagen::KpiPreset presets[] = {
      datagen::pv_preset(scale, derive_seed(seed, 0)),
      datagen::sr_preset(scale, derive_seed(seed, 1)),
      datagen::srt_preset(scale, derive_seed(seed, 2)),
  };
  std::vector<Kpi> kpis;
  for (std::size_t k = 0; k < 3; ++k) {
    const datagen::GeneratedKpi kpi =
        datagen::generate_kpi(presets[k].model, presets[k].injection);
    labeling::OperatorModel operator_model;
    operator_model.seed = derive_seed(seed, 100 + k);
    const opprentice::ts::LabelSet labels = labeling::simulate_labeling(
        kpi.ground_truth, kpi.series.size(), operator_model);
    const Clock::time_point t0 = Clock::now();
    const detectors::FeatureMatrix features =
        detectors::extract_standard_features(kpi.series);
    *extract_s += seconds_between(t0, Clock::now());
    Kpi out;
    out.name = presets[k].model.name;
    out.series = kpi.series;
    out.truth = kpi.ground_truth.to_point_labels(kpi.series.size());
    out.dataset = core::build_dataset(features, labels);
    out.points_per_week = kpi.series.points_per_week();
    out.warmup = features.max_warmup;
    kpis.push_back(std::move(out));
  }
  return kpis;
}

struct Round {
  double seconds = 0.0;
  std::vector<double> kpi_seconds;  // one run_weekly_incremental per KPI
  std::size_t rows_scored = 0;
  std::size_t nan_scores = 0;
  std::uint64_t digest = 0;
  std::vector<double> aucpr;  // per KPI, test region vs ground truth
};

void score_round(Round& round, const std::vector<Kpi>& kpis,
                 const std::vector<std::vector<double>>& scores,
                 std::size_t initial_weeks) {
  Digest digest;
  for (std::size_t k = 0; k < kpis.size(); ++k) {
    // The test region: every whole week from the 9th on.
    const std::size_t week = kpis[k].points_per_week;
    const std::size_t test_start = initial_weeks * week;
    const std::size_t test_end = scores[k].size() / week * week;
    const std::span<const double> test =
        std::span(scores[k]).subspan(test_start, test_end - test_start);
    for (const double s : test) {
      digest.add_double(s);
      round.nan_scores += std::isnan(s) ? 1 : 0;
    }
    round.rows_scored += test.size();
    round.aucpr.push_back(window_aucpr(
        test, std::span(kpis[k].truth).subspan(test_start, test.size())));
  }
  round.digest = digest.value();
}

// Seconds of the best-of-laps composite round (stats.hpp): laps are
// rounds, slots are KPIs.
double composite_round_seconds(const std::vector<Round>& rounds) {
  std::vector<double> seconds;
  for (const Round& round : rounds) {
    seconds.insert(seconds.end(), round.kpi_seconds.begin(),
                   round.kpi_seconds.end());
  }
  return composite_lap(seconds, seconds, rounds.front().kpi_seconds.size())
      .total;
}

// One untraced round: run_weekly_incremental on every KPI.
Round run_round(const std::vector<Kpi>& kpis) {
  require_untimed("weekly_retrain round");
  const core::DriverOptions options = driver_options();
  Round round;
  std::vector<std::vector<double>> scores;
  for (const Kpi& kpi : kpis) {
    const Clock::time_point t0 = Clock::now();
    scores.push_back(core::run_weekly_incremental(
                         kpi.dataset, kpi.points_per_week, kpi.warmup, options)
                         .scores);
    round.kpi_seconds.push_back(seconds_between(t0, Clock::now()));
    round.seconds += round.kpi_seconds.back();
  }
  score_round(round, kpis, scores, options.initial_weeks);
  return round;
}

// The same protocol week by week through the public ml/eval functions,
// each call a span (the traced run's shadow of run_weekly_incremental).
// Rows trained on are added to *train_rows.
Round run_traced_round(const std::vector<Kpi>& kpis, Tracer& tracer,
                       std::size_t* train_rows) {
  const core::DriverOptions options = driver_options();
  const Tracer::NameId train_name = tracer.name("ml.train");
  const Tracer::NameId score_all_name = tracer.name("ml.score_all");
  const Tracer::NameId score_name = tracer.name("ml.score");
  const Tracer::NameId pick_name = tracer.name("eval.cthld_pick");
  const Tracer::NameId week_name = tracer.name("core.week");
  Round round;
  std::vector<std::vector<double>> scores;
  std::size_t week_id = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Kpi& kpi : kpis) {
    const std::size_t rows = kpi.dataset.num_rows();
    std::vector<double> kpi_scores(rows, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t window = 0;; ++window, ++week_id) {
      const auto w = core::strategy_windows(core::TrainingStrategy::kI1, window,
                                            rows, kpi.points_per_week,
                                            options.initial_weeks);
      if (!w) break;
      Tracer::Span week(tracer, week_name, week_id);
      const std::size_t begin = std::max(w->train_begin, kpi.warmup);
      const ml::Dataset train = kpi.dataset.slice(begin, w->train_end);
      if (train.positives() == 0) continue;
      ml::RandomForest forest(options.forest);
      {
        Tracer::Span span(tracer, train_name, week_id, week.id());
        forest.train(train);
      }
      *train_rows += train.num_rows();
      const ml::Dataset test = kpi.dataset.slice(w->test_begin, w->test_end);
      std::vector<double> week_scores;
      {
        Tracer::Span span(tracer, score_all_name, week_id, week.id());
        week_scores = forest.score_all(test);
      }
      for (std::size_t i = 0; i < std::min(kScoreSampleRows, test.num_rows());
           ++i) {
        const std::vector<double> row = test.row(i);
        Tracer::Span span(tracer, score_name, week_id, week.id());
        (void)forest.score(row);
      }
      {
        Tracer::Span span(tracer, pick_name, week_id, week.id());
        const eval::PrCurve curve(week_scores, test.labels());
        (void)eval::pick_threshold(curve, eval::ThresholdMethod::kPcScore,
                                   options.preference);
      }
      std::copy(week_scores.begin(), week_scores.end(),
                kpi_scores.begin() + static_cast<std::ptrdiff_t>(w->test_begin));
    }
    scores.push_back(std::move(kpi_scores));
  }
  round.seconds = seconds_between(t0, Clock::now());
  score_round(round, kpis, scores, options.initial_weeks);
  return round;
}

double mean_aucpr(const Round& round) {
  std::vector<double> finite;
  for (const double a : round.aucpr) {
    if (!std::isnan(a)) finite.push_back(a);
  }
  return finite.empty() ? std::nan("") : mean(finite);
}

void check_round(RunResult& result, const Round& round, const char* label) {
  const std::string name(label);
  result.attempted += round.rows_scored;
  result.failed += round.nan_scores;
  const double aucpr = mean_aucpr(round);
  result.check(!std::isnan(aucpr) && aucpr >= kAucprFloor,
               name + ": mean test AUCPR " + std::to_string(aucpr) +
                   " below the floor " + std::to_string(kAucprFloor));
}

}  // namespace

RunResult run_weekly_retrain(const RunOptions& options) {
  RunResult result;
  if (!options.trace) {
    std::vector<double> setup_s;
    std::vector<Kpi> kpis;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      kpis.clear();
      require_untimed("weekly_retrain setup");
      const Clock::time_point t0 = Clock::now();
      double extract_s = 0.0;
      kpis = prepare(options.seed, &extract_s);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    std::vector<Round> rounds;
    const Clock::time_point start = Clock::now();
    do {
      rounds.push_back(run_round(kpis));
    } while (seconds_between(start, Clock::now()) < options.seconds ||
             rounds.size() < kMinRounds);
    const double elapsed = seconds_between(start, Clock::now());
    for (const Round& round : rounds) {
      check_round(result, round, "weekly_retrain");
      result.check(round.digest == rounds.front().digest,
                   "weekly_retrain: rounds over the same data scored "
                   "differently");
    }
    // One batch job is a round: the latency sample is the composite
    // round, so its median and tail coincide.
    const double round_s = composite_round_seconds(rounds);
    const std::vector<double> lag_ms{round_s * 1000.0};
    const TailStat tail = tail_percentile(lag_ms, 99.0);
    result.set("setup_s", median(setup_s), "s");
    result.set("points_per_s",
               static_cast<double>(rounds.front().rows_scored) / round_s,
               "points/s");
    result.set("lag_p50_ms", median(lag_ms), "ms");
    result.set("lag_p99_ms", tail.value, "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note(std::to_string(rounds.size()) + " rounds of " +
                std::to_string(rounds.front().rows_scored) +
                " test rows in " + std::to_string(elapsed) + " s");
    result.note("lag: " + describe_tail(tail, "composite rounds"));
    std::string aucprs = "test AUCPR per KPI:";
    for (std::size_t k = 0; k < kpis.size(); ++k) {
      aucprs += " " + kpis[k].name + "=" +
                std::to_string(rounds.front().aucpr[k]);
    }
    result.note(aucprs);
    return result;
  }

  // ---- traced run ----
  Tracer tracer(true);
  double extract_s = 0.0;
  const std::vector<Kpi> kpis = prepare(options.seed, &extract_s);
  // Per-family batch extraction over the same series.
  std::size_t points = 0;
  for (const Kpi& kpi : kpis) points += kpi.series.size();
  const auto registry = detectors::DetectorRegistry::with_standard_families();
  for (const std::string& family : registry.family_names()) {
    const Tracer::NameId name = tracer.name("detectors." + family);
    for (std::size_t k = 0; k < kpis.size(); ++k) {
      const detectors::SeriesContext ctx{kpis[k].series.points_per_day(),
                                         kpis[k].series.points_per_week()};
      const auto configs = registry.instantiate_family(family, ctx);
      Tracer::Span span(tracer, name, k);
      (void)detectors::extract_features(kpis[k].series, configs);
    }
  }

  const Round plain = run_round(kpis);
  check_round(result, plain, "weekly_retrain");
  std::size_t train_rows = 0;
  const Round traced = run_traced_round(kpis, tracer, &train_rows);
  check_round(result, traced, "weekly_retrain traced");
  result.check(plain.digest == traced.digest,
               "weekly_retrain: week-by-week scores differ from "
               "run_weekly_incremental");

  const double n = static_cast<double>(points);
  result.set("detectors.batch_extract_s", extract_s, "s");
  result.set("detectors.extract_us", extract_s * 1e6 / n, "us/pt");
  for (const std::string& family : registry.family_names()) {
    result.set("detectors." + family + "_us",
               tracer.total_us("detectors." + family) / n, "us/pt");
  }
  const std::size_t trainings = tracer.count("ml.train");
  result.set("ml.train_ms", tracer.mean_us("ml.train") / 1000.0, "ms/round");
  result.set("ml.train_rows",
             trainings > 0 ? static_cast<double>(train_rows) /
                                 static_cast<double>(trainings)
                           : 0.0,
             "rows");
  result.set("ml.score_all_us_per_row",
             tracer.total_us("ml.score_all") /
                 static_cast<double>(traced.rows_scored),
             "us/row");
  result.set("ml.score_us", tracer.mean_us("ml.score"), "us/pt");
  result.set("eval.cthld_pick_ms", tracer.mean_us("eval.cthld_pick") / 1000.0,
             "ms/pick");
  result.set("eval.aucpr", mean_aucpr(plain), "ratio");
  result.set("core.retrains", static_cast<double>(trainings), "count");
  const double serial_s =
      (tracer.total_us("ml.train") + tracer.total_us("ml.score_all")) / 1e6;
  result.set("core.pool_speedup", serial_s / plain.seconds, "x");
  const double pps_plain = static_cast<double>(plain.rows_scored) / plain.seconds;
  const double pps_traced =
      static_cast<double>(traced.rows_scored) / traced.seconds;
  result.set("trace.overhead", pps_traced / pps_plain, "ratio");
  result.note("untraced round " + std::to_string(plain.seconds) +
              " s; traced week-by-week round " +
              std::to_string(traced.seconds) + " s");
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/weekly_retrain.trace.json";
    if (tracer.write_chrome_trace(path)) result.note("spans written to " + path);
  }
  return result;
}

}  // namespace perfbench
