#include "cli_commands.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/cthld.hpp"
#include "core/dataset_builder.hpp"
#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "labeling/operator_model.hpp"
#include "ml/serialize.hpp"
#include "obs/obs.hpp"
#include "timeseries/repair.hpp"
#include "timeseries/series_stats.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"

namespace opprentice::cli {
namespace {

// Active run report (--report <path>).
// opprentice-check: allow(unguarded-static) set once by main before the command runs, so the commands never race on it
obs::RunReport* g_report = nullptr;

// Times one command stage into the active run report; no-op without one.
class ReportStage {
 public:
  explicit ReportStage(std::string_view name) : name_(name) {}
  ~ReportStage() {
    if (g_report != nullptr) g_report->add_stage(name_, watch_.elapsed_ms());
  }
  ReportStage(const ReportStage&) = delete;
  ReportStage& operator=(const ReportStage&) = delete;

 private:
  std::string name_;
  obs::Stopwatch watch_;
};

// Loads a KPI CSV through the ingest repair pass (DESIGN.md §5f): raw
// (timestamp, value) points go through the active fault plan's ingest.*
// sites (no-op without one), then gaps / duplicates / disorder / NaNs are
// repaired under --repair-policy. On a clean stream with the default
// "drop" policy this is byte-identical to reading the CSV directly.
ts::TimeSeries load_series(const std::string& path, const Args& args) {
  const auto csv = util::read_csv_file(path);
  const auto timestamps = csv.column("timestamp");
  const auto values = csv.column("value");
  if (timestamps.size() < 2) {
    throw std::runtime_error("KPI CSV needs at least two rows: " + path);
  }
  std::vector<ts::RawPoint> points;
  points.reserve(timestamps.size());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    points.push_back(
        {static_cast<std::int64_t>(timestamps[i]), values[i]});
  }
  ts::inject_ingest_faults(points);
  const auto policy =
      ts::parse_repair_policy(args.get("repair-policy", "drop"));
  auto repaired = ts::repair_series(path, std::move(points),
                                    /*interval_seconds=*/0, policy);
  if (!repaired.report.clean()) {
    std::fprintf(stderr, "ingest repair (%s): %s\n", path.c_str(),
                 repaired.report.summary().c_str());
  }
  return std::move(repaired.series);
}

ts::LabelSet load_labels(const std::string& path) {
  const auto csv = util::read_csv_file(path);
  ts::LabelSet labels;
  const std::size_t begin_col = csv.column_index("window_begin");
  const std::size_t end_col = csv.column_index("window_end");
  for (const auto& row : csv.rows) {
    labels.add_window({static_cast<std::size_t>(row[begin_col]),
                       static_cast<std::size_t>(row[end_col])});
  }
  return labels;
}

void write_series(const std::string& path, const ts::TimeSeries& series) {
  util::CsvTable csv;
  csv.columns = {"timestamp", "value"};
  for (std::size_t i = 0; i < series.size(); ++i) {
    csv.rows.push_back(
        {static_cast<double>(series.timestamp(i)), series[i]});
  }
  util::write_csv_file(path, csv);
}

void write_labels(const std::string& path, const ts::LabelSet& labels) {
  util::CsvTable csv;
  csv.columns = {"window_begin", "window_end"};
  for (const auto& w : labels.windows()) {
    csv.rows.push_back(
        {static_cast<double>(w.begin), static_cast<double>(w.end)});
  }
  util::write_csv_file(path, csv);
}

// The model file is the serialized forest followed by "cthld <x>".
void save_model(const std::string& path, const ml::RandomForest& forest,
                const std::vector<std::string>& names, double cthld) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open model file " + path);
  ml::save_forest(out, forest, names);
  out << "cthld " << cthld << '\n';
}

struct LoadedModel {
  ml::LoadedForest forest;
  double cthld = 0.5;
};

LoadedModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file " + path);
  LoadedModel model;
  model.forest = ml::load_forest(in);
  std::string token;
  if (in >> token && token == "cthld") in >> model.cthld;
  return model;
}

}  // namespace

void set_run_report(obs::RunReport* report) { g_report = report; }
obs::RunReport* run_report() { return g_report; }

std::string render_top_configs(std::size_t k) {
  const auto rows = obs::CostAttribution::instance().snapshot();
  if (rows.empty()) return "";
  std::vector<std::vector<std::string>> cells;
  for (std::size_t i = 0; i < rows.size() && i < k; ++i) {
    const auto& r = rows[i];
    cells.push_back({r.configuration, std::to_string(r.count),
                     util::format_double(r.sum_us / 1000.0, 1),
                     util::format_double(r.mean_us, 2),
                     util::format_double(r.max_us, 1),
                     util::format_double(100.0 * r.share, 1) + "%"});
  }
  std::string out = "top " + std::to_string(cells.size()) +
                    " most expensive configurations (of " +
                    std::to_string(rows.size()) + " observed):\n";
  out += util::render_table(
      {"configuration", "points", "total_ms", "mean_us", "max_us", "share"},
      cells);
  return out;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + key + ": expected a number, got '" +
                             it->second + "'");
  }
}

std::size_t Args::get_size(const std::string& key,
                           std::size_t fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(it->second, &pos);
    if (pos != it->second.size() || it->second.front() == '-') {
      throw std::invalid_argument(it->second);
    }
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw std::runtime_error("--" + key +
                             ": expected a non-negative integer, got '" +
                             it->second + "'");
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --option, got '" + key + "'");
    }
    key = key.substr(2);
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for --" + key);
    }
    args.options[key] = argv[++i];
  }
  return args;
}

int print_usage() {
  std::printf(
      "opprentice_cli — anomaly detection the Opprentice way\n"
      "\n"
      "usage: opprentice_cli <command> [--option value]...\n"
      "\n"
      "commands:\n"
      "  generate --kpi pv|sr|srt --out kpi.csv --labels labels.csv\n"
      "           [--weeks N] [--seed S]\n"
      "  profile  --kpi kpi.csv\n"
      "  train    --kpi kpi.csv --labels labels.csv --model model.rf\n"
      "           [--recall 0.66] [--precision 0.66] [--trees 48]\n"
      "  detect   --kpi kpi.csv --model model.rf --out detections.csv\n"
      "           [--cthld X]   (default: the cThld stored in the model)\n"
      "  evaluate --detections detections.csv --labels labels.csv\n"
      "           [--recall 0.66] [--precision 0.66]\n"
      "  fleet    [--series 1000] [--points 192] [--shards 64]\n"
      "           [--retrain-interval 64] [--quarantine-after 3]\n"
      "           [--trees 16] [--seed 42]   synthetic fleet run: every\n"
      "           series streams through the lite detector set with\n"
      "           staggered per-series retrains (DESIGN.md 5i)\n"
      "  serve    --listen tcp:HOST:PORT|uds:PATH [--tick-ms 100]\n"
      "           [--queue-capacity 64] [--suspect-after 5]\n"
      "           [--lost-after 10] [--repair-policy fill-interpolate]\n"
      "           [--exit-after-byes N]   network ingestion daemon: framed\n"
      "           agent traffic drives the fleet engine with per-source\n"
      "           liveness and backpressure; SIGTERM drains (DESIGN.md 5k)\n"
      "  agent    --connect tcp:HOST:PORT|uds:PATH --kpi kpi.csv\n"
      "           [--series id] [--source id] [--batch 16]\n"
      "           [--heartbeat-every 4] [--labels labels.csv] [--seed 1]\n"
      "           [--backoff-base 50] [--backoff-max 2000]   replay a KPI\n"
      "           CSV as one lockstep source with seeded backoff + jitter\n"
      "\n"
      "observability (any command):\n"
      "  --trace file.json     write a Chrome trace-event JSON of this run\n"
      "                        (open at https://ui.perfetto.dev)\n"
      "  --metrics file.json   write a metrics snapshot (counters, gauges,\n"
      "                        latency histograms; .prom for Prometheus text)\n"
      "  --report file.json    write a schema-versioned run report (build\n"
      "                        info, seeds, stage times, counters, per-config\n"
      "                        cost attribution, flight-recorder dump) and\n"
      "                        print the most expensive configurations\n"
      "\n"
      "parallelism (any command):\n"
      "  --threads N           worker pool size: 0 = all hardware threads\n"
      "                        (the default), 1 = serial; results are\n"
      "                        bit-identical at any thread count\n"
      "\n"
      "fault tolerance (any command):\n"
      "  --repair-policy P     ingest repair for dirty KPI CSVs:\n"
      "                        fail | drop (default) | fill-interpolate\n"
      "  --faults SPEC         deterministic fault injection, e.g.\n"
      "                        \"seed=7,detector.throw=0.02,ingest.nan=0.01\"\n"
      "\n"
      "environment: OPPRENTICE_TRACE=<path> traces any run;\n"
      "OPPRENTICE_THREADS=<n> sets the pool size like --threads;\n"
      "OPPRENTICE_FAULTS=<spec> injects faults like --faults;\n"
      "OPPRENTICE_LOG=debug|info|warn|error enables structured logging\n");
  return 2;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kpi", "pv");
  datagen::KpiPreset preset;
  if (kind == "pv") {
    preset = datagen::pv_preset(datagen::scale_from_env(),
                                args.get_size("seed", 11));
  } else if (kind == "sr") {
    preset = datagen::sr_preset(datagen::scale_from_env(),
                                args.get_size("seed", 22));
  } else if (kind == "srt") {
    preset = datagen::srt_preset(datagen::scale_from_env(),
                                 args.get_size("seed", 33));
  } else {
    std::fprintf(stderr, "unknown --kpi '%s' (pv|sr|srt)\n", kind.c_str());
    return 2;
  }
  preset.model.weeks = args.get_size("weeks", preset.model.weeks);

  auto generate = [&] {
    ReportStage stage("generate");
    auto kpi = datagen::generate_kpi(preset.model, preset.injection);
    auto labels = labeling::simulate_labeling(
        kpi.ground_truth, kpi.series.size(), labeling::OperatorModel{});
    return std::make_pair(std::move(kpi), std::move(labels));
  };
  const auto [kpi, labels] = generate();

  write_series(args.get("out", "kpi.csv"), kpi.series);
  write_labels(args.get("labels", "labels.csv"), labels);
  std::printf("wrote %zu points to %s and %zu label windows to %s\n",
              kpi.series.size(), args.get("out", "kpi.csv").c_str(),
              labels.window_count(), args.get("labels", "labels.csv").c_str());
  return 0;
}

int cmd_profile(const Args& args) {
  const auto series = load_series(args.get("kpi", "kpi.csv"), args);
  const auto prof = ts::profile(series);
  std::printf("points:            %zu\n", series.size());
  std::printf("interval:          %lld s\n",
              static_cast<long long>(prof.interval_seconds));
  std::printf("length:            %.1f weeks\n", prof.length_weeks);
  std::printf("seasonality:       %s (day-lag autocorrelation %.2f)\n",
              ts::seasonality_class(prof.daily_seasonality).c_str(),
              prof.daily_seasonality);
  std::printf("Cv:                %.3f\n", prof.coefficient_of_variation);
  std::printf("missing:           %.2f%%\n", 100.0 * prof.missing_ratio);
  const std::size_t week = series.points_per_week();
  const std::size_t show = std::min(week, series.size());
  util::ChartOptions opt;
  opt.title = "first week:";
  opt.height = 10;
  std::printf("%s", util::render_line_chart(
                        series.values().subspan(0, show), opt)
                        .c_str());
  return 0;
}

int cmd_train(const Args& args) {
  auto load = [&] {
    ReportStage stage("load");
    return std::make_pair(load_series(args.get("kpi", "kpi.csv"), args),
                          load_labels(args.get("labels", "labels.csv")));
  };
  const auto [series, labels] = load();
  const eval::AccuracyPreference pref{args.get_double("recall", 0.66),
                                      args.get_double("precision", 0.66)};

  std::printf("extracting 133 features over %zu points...\n", series.size());
  auto extract = [&] {
    ReportStage stage("extract");
    return core::build_dataset(series, labels);
  };
  const ml::Dataset dataset = extract();
  // Skip the warm-up week so training never sees warm-up zeros.
  const ml::Dataset train =
      dataset.slice(std::min(series.points_per_week(), dataset.num_rows()),
                    dataset.num_rows());
  if (train.positives() == 0) {
    std::fprintf(stderr, "no labeled anomalies after warm-up; cannot train\n");
    return 1;
  }

  ml::ForestOptions opts;
  opts.num_trees = args.get_size("trees", 48);
  std::printf("training random forest (%zu trees) on %zu rows "
              "(%zu anomalous)...\n",
              opts.num_trees, train.num_rows(), train.positives());
  ml::RandomForest forest(opts);
  {
    ReportStage stage("train");
    forest.train(train);
  }

  std::printf("picking cThld by 5-fold cross-validated PC-Score "
              "(recall>=%.2f, precision>=%.2f)...\n",
              pref.min_recall, pref.min_precision);
  auto pick = [&] {
    ReportStage stage("cthld_pick");
    return core::five_fold_cthld(train, pref, opts);
  };
  const double cthld = pick();

  const std::string model_path = args.get("model", "model.rf");
  save_model(model_path, forest, dataset.feature_names(), cthld);
  std::printf("saved model to %s (cThld %.3f)\n", model_path.c_str(), cthld);
  obs::log(obs::LogLevel::kInfo, "cli", "train_done",
           {{"rows", train.num_rows()},
            {"positives", train.positives()},
            {"cthld", cthld},
            {"model", model_path}});
  return 0;
}

int cmd_detect(const Args& args) {
  auto load = [&] {
    ReportStage stage("load");
    return std::make_pair(load_series(args.get("kpi", "kpi.csv"), args),
                          load_model(args.get("model", "model.rf")));
  };
  const auto [series, model] = load();
  const double cthld = args.get_double("cthld", model.cthld);

  auto extract = [&] {
    ReportStage stage("extract");
    return detectors::extract_standard_features(series);
  };
  const auto features = extract();
  if (features.num_features() != model.forest.feature_names.size()) {
    std::fprintf(stderr, "model expects %zu features, extractor has %zu\n",
                 model.forest.feature_names.size(), features.num_features());
    return 1;
  }

  util::CsvTable out;
  out.columns = {"timestamp", "value", "anomaly_probability", "is_anomaly"};
  std::size_t flagged = 0;
  {
    ReportStage stage("score");
    obs::ScopedSpan score_span("cli.score_points", "cli");
    score_span.arg("points", series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      double score = 0.0;
      if (i >= features.max_warmup) {
        score = model.forest.forest.score(features.row(i));
      }
      const bool anomaly = score >= cthld;
      flagged += anomaly;
      out.rows.push_back({static_cast<double>(series.timestamp(i)), series[i],
                          score, anomaly ? 1.0 : 0.0});
    }
  }
  const std::string out_path = args.get("out", "detections.csv");
  util::write_csv_file(out_path, out);
  std::printf("wrote %s: %zu/%zu points flagged (cThld %.3f)\n",
              out_path.c_str(), flagged, series.size(), cthld);
  obs::log(obs::LogLevel::kInfo, "cli", "detect_done",
           {{"points", series.size()},
            {"flagged", flagged},
            {"cthld", cthld}});
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto csv = util::read_csv_file(args.get("detections",
                                                "detections.csv"));
  const auto decisions_col = csv.column("is_anomaly");
  const auto labels = load_labels(args.get("labels", "labels.csv"));

  std::vector<std::uint8_t> decisions(decisions_col.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    decisions[i] = decisions_col[i] >= 0.5 ? 1 : 0;
  }
  const auto truth = labels.to_point_labels(decisions.size());
  const auto counts = eval::confusion(decisions, truth);
  const double r = eval::recall(counts);
  const double p = eval::precision(counts);
  const eval::AccuracyPreference pref{args.get_double("recall", 0.66),
                                      args.get_double("precision", 0.66)};
  std::printf("recall:     %.3f\n", r);
  std::printf("precision:  %.3f\n", p);
  std::printf("F-score:    %.3f\n", eval::f_score(r, p));
  std::printf("PC-score:   %.3f\n", eval::pc_score(r, p, pref));
  std::printf("preference (recall>=%.2f, precision>=%.2f): %s\n",
              pref.min_recall, pref.min_precision,
              pref.satisfied_by(r, p) ? "SATISFIED" : "not satisfied");
  return pref.satisfied_by(r, p) ? 0 : 1;
}

int cmd_fleet(const Args& args) {
  const std::size_t series = args.get_size("series", 1000);
  const std::size_t points = args.get_size("points", 192);
  constexpr std::size_t kPointsPerDay = 64;

  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{kPointsPerDay, 7 * kPointsPerDay};
  options.detector_factory = core::fleet_lite_configurations;
  options.shard_count = args.get_size("shards", 64);
  options.retrain_interval = args.get_size("retrain-interval", kPointsPerDay);
  options.quarantine_after = args.get_size("quarantine-after", 3);
  options.history_capacity = 4 * kPointsPerDay;
  options.forest.num_trees = args.get_size("trees", 16);
  options.forest.seed = args.get_size("seed", 42);
  core::FleetEngine engine(std::move(options));

  std::vector<core::SeriesHandle> handles;
  std::vector<std::uint64_t> salts;
  std::vector<std::string> ids;
  {
    ReportStage stage("fleet_setup");
    for (std::size_t i = 0; i < series; ++i) {
      ids.push_back("kpi-" + std::to_string(i));
      handles.push_back(engine.add_series(ids.back()));
      salts.push_back(util::stable_id_hash(ids.back()));
    }
  }

  // Synchronized ticks of the synthetic daily-seasonal fleet; operator
  // labels (every 37th point anomalous) trail by one 32-point chunk so
  // staggered retrains always see labeled history.
  const obs::Stopwatch feed_watch;
  std::vector<double> values(series);
  std::vector<core::FleetDetection> verdicts(series);
  std::vector<std::uint8_t> chunk(32);
  std::size_t anomalies = 0, classified = 0;
  {
    ReportStage stage("fleet_feed");
    for (std::size_t t = 0; t < points; ++t) {
      for (std::size_t i = 0; i < series; ++i) {
        values[i] = core::synthetic_fleet_value(salts[i], t, kPointsPerDay);
      }
      engine.feed_tick(handles, values, verdicts);
      for (const auto& v : verdicts) {
        if (v.classified) ++classified;
        if (v.is_anomaly) ++anomalies;
      }
      if ((t + 1) % chunk.size() == 0) {
        const std::size_t begin = t + 1 - chunk.size();
        for (std::size_t j = 0; j < chunk.size(); ++j) {
          chunk[j] = (begin + j) % 37 == 0 ? 1 : 0;
        }
        for (const auto& handle : handles) {
          engine.ingest_labels(handle, chunk, begin);
        }
      }
    }
  }
  const double feed_ms = feed_watch.elapsed_ms();

  std::size_t retrains = 0, failures = 0, quarantined = 0, trained = 0;
  {
    ReportStage stage("fleet_stats");
    for (const auto& handle : handles) {
      const core::FleetSeriesStats stats = engine.stats(handle);
      retrains += stats.retrains;
      failures += stats.train_failures;
      if (stats.quarantined) ++quarantined;
      if (stats.trained) ++trained;
    }
  }

  const double total = static_cast<double>(series * points);
  const double pts_per_sec =
      feed_ms > 0.0 ? total / (feed_ms / 1000.0) : 0.0;
  std::printf("fleet: %zu series x %zu points (%zu-point days)\n", series,
              points, kPointsPerDay);
  std::printf("%s",
              util::render_table(
                  {"metric", "value"},
                  {{"points/sec", util::format_double(pts_per_sec, 0)},
                   {"us/point",
                    util::format_double(feed_ms > 0.0
                                            ? 1000.0 * feed_ms / total
                                            : 0.0,
                                        2)},
                   {"trained series", std::to_string(trained)},
                   {"retrains", std::to_string(retrains)},
                   {"train failures", std::to_string(failures)},
                   {"quarantined", std::to_string(quarantined)},
                   {"classified points", std::to_string(classified)},
                   {"anomalies", std::to_string(anomalies)}})
                  .c_str());

  // Retrain load stagger across the interval, eight buckets.
  const auto histogram = engine.scheduler().phase_histogram(ids, 8);
  std::vector<double> ys;
  for (const std::size_t bucket : histogram) {
    ys.push_back(static_cast<double>(bucket));
  }
  std::printf("retrain phase spread: %s\n", util::render_sparkline(ys).c_str());

  if (g_report != nullptr) {
    g_report->set_field("fleet_series", static_cast<std::uint64_t>(series));
    g_report->set_field("fleet_points_per_sec", pts_per_sec);
    g_report->set_field("fleet_retrains",
                        static_cast<std::uint64_t>(retrains));
    g_report->set_field("fleet_quarantined",
                        static_cast<std::uint64_t>(quarantined));
  }
  return 0;
}

}  // namespace opprentice::cli
