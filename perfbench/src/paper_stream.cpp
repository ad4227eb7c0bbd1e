// paper_stream: the paper's workload through core::FleetEngine::feed_tick.
//
// 32 PV/#SR series at 10-minute bins, the full 133-configuration bank,
// operator labels trailing the stream by a day, weekly retrains on the
// engine's staggered schedule. 32 series because feed_tick dispatches
// grains of 8: fewer series leave pool lanes idle.
//
// The feature history is bounded to one retrain interval (one week). The
// engine then trims it to [1, 2) weeks of rows, so from week 2 on every
// series retrains on the same number of rows each week and the cost per
// week stops climbing; set-up replays those two weeks, and the timed
// window runs whole weeks, so it always covers complete retrain cycles.
//
// Untraced run: set-up (repeated, median reported), then the timed
// closed loop — the next tick is submitted only after feed_tick returned
// every verdict of the previous one.
//
// Traced run: a second fleet replays the same inputs with serial
// FleetEngine::feed calls wrapped in spans, while two shadow series
// re-run their pipeline through the layers' public functions (streaming
// extraction, each detector family, forest scoring and retraining, cThld
// selection) on the same values. Its verdict digest must equal the
// untraced parallel run's digest over the same ticks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = opprentice::core;
namespace detectors = opprentice::detectors;
namespace eval = opprentice::eval;
namespace ml = opprentice::ml;
namespace util = opprentice::util;

constexpr std::size_t kSeries = 32;
constexpr std::size_t kWarmWeeks = 3;
constexpr std::size_t kMaxWindowWeeks = 16;
// A week takes 3-4 s, so a 15 s window would hold four weeks or five
// depending on the host's speed; the best-of-laps composite must not
// change its lap count with it.
constexpr std::size_t kMinWindowWeeks = 5;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kShadowSeries = 2;  // one PV, one #SR
// Mean window AUCPR below this means detection broke, not drifted.
constexpr double kAucprFloor = 0.3;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

core::FleetOptions engine_options() {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{kPointsPerDay, kPointsPerWeek};
  options.history_capacity = kPointsPerWeek;
  return options;  // standard 133 configurations, 48-tree forest
}

std::string series_id(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "ps-%02zu", i);
  return buf;
}

struct Inputs {
  std::vector<GeneratedSeries> series;
  std::size_t length = 0;
};

Inputs generate_inputs(std::uint64_t seed) {
  Inputs in;
  in.series.resize(kSeries);
  util::parallel_for(kSeries, [&](std::size_t i) {
    in.series[i] = generate_series(seed, i, kWarmWeeks + kMaxWindowWeeks);
  });
  in.length = in.series.front().values.size();
  return in;
}

// Re-runs one series' pipeline through the public layer functions, fed
// the same values and labels as the engine's copy of that series, so the
// traced run can time each layer without instrumenting the program.
class Shadow {
 public:
  Shadow(std::size_t index, Tracer& tracer)
      : index_(index),
        options_(engine_options()),
        scheduler_(options_.scheduler_seed, options_.ctx.points_per_week),
        phase_(scheduler_.phase(series_id(index))),
        extractor_(detectors::standard_configurations(options_.ctx)),
        tracer_(tracer) {
    const auto registry = detectors::DetectorRegistry::with_standard_families();
    for (const std::string& family : registry.family_names()) {
      families_.push_back(Family{
          tracer.name("detectors." + family),
          registry.instantiate_family(family, options_.ctx)});
    }
    extract_name_ = tracer.name("detectors.extract");
    score_name_ = tracer.name("ml.score");
    train_name_ = tracer.name("ml.train");
    score_all_name_ = tracer.name("ml.score_all");
    pick_name_ = tracer.name("eval.cthld_pick");
    columns_.resize(extractor_.num_features());
    // Reserve the bounded history up front so the set-up RSS stages
    // measure the engine, not the shadow.
    for (auto& column : columns_) column.reserve(2 * options_.history_capacity);
    labels_.reserve(2 * options_.history_capacity);
  }

  std::size_t index() const { return index_; }
  std::size_t max_warmup() const { return extractor_.max_warmup(); }

  void feed(double value, std::uint64_t tick, Tracer::SpanId parent) {
    std::vector<double> features;
    {
      Tracer::Span span(tracer_, extract_name_, tick, parent);
      features = extractor_.feed(value);
    }
    for (Family& family : families_) {
      Tracer::Span span(tracer_, family.name, tick, parent);
      for (auto& detector : family.configs) (void)detector->feed(value);
    }
    if (forest_.has_value() && extractor_.warmed_up()) {
      Tracer::Span span(tracer_, score_name_, tick, parent);
      (void)forest_->score(features);
    }
    append_row(features);
    if (scheduler_.due_at(phase_, extractor_.points_seen())) {
      retrain(tick, parent);
    }
  }

  void deliver_labels(std::span<const std::uint8_t> labels,
                      std::size_t begin) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const std::size_t global = begin + i;
      if (global < base_) continue;
      const std::size_t local = global - base_;
      if (local >= labels_.size()) break;
      labels_[local] = labels[i];
    }
    labeled_until_ = std::max(
        labeled_until_, std::min(begin + labels.size(), base_ + labels_.size()));
  }

  // Rows trained on and rows batch-scored while the tracer recorded.
  std::size_t trained_rows() const { return trained_rows_; }
  std::size_t score_all_rows() const { return score_all_rows_; }

 private:
  struct Family {
    Tracer::NameId name;
    std::vector<detectors::DetectorPtr> configs;
  };

  void append_row(const std::vector<double>& features) {
    for (std::size_t f = 0; f < features.size(); ++f) {
      columns_[f].push_back(features[f]);
    }
    labels_.push_back(0);
    const std::size_t cap = options_.history_capacity;
    if (labels_.size() >= 2 * cap) {
      const std::size_t drop = labels_.size() - cap;
      for (auto& column : columns_) {
        column.erase(column.begin(),
                     column.begin() + static_cast<std::ptrdiff_t>(drop));
      }
      labels_.erase(labels_.begin(),
                    labels_.begin() + static_cast<std::ptrdiff_t>(drop));
      base_ += drop;
    }
  }

  // The engine's retrain (core/fleet_engine.cpp FleetSeries::retrain):
  // train on the labeled rows past warm-up, then pick the cThld on the
  // most recent interval of them.
  void retrain(std::uint64_t tick, Tracer::SpanId parent) {
    const std::size_t warmup = extractor_.max_warmup();
    const std::size_t begin_local = warmup > base_ ? warmup - base_ : 0;
    const std::size_t end_global =
        std::min(labeled_until_, base_ + labels_.size());
    if (end_global <= base_) return;
    const std::size_t end_local = end_global - base_;
    if (begin_local >= end_local) return;
    std::vector<std::vector<double>> train_columns(columns_.size());
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      train_columns[f].assign(
          columns_[f].begin() + static_cast<std::ptrdiff_t>(begin_local),
          columns_[f].begin() + static_cast<std::ptrdiff_t>(end_local));
    }
    std::vector<std::uint8_t> train_labels(
        labels_.begin() + static_cast<std::ptrdiff_t>(begin_local),
        labels_.begin() + static_cast<std::ptrdiff_t>(end_local));
    const ml::Dataset train(extractor_.feature_names(),
                            std::move(train_columns), std::move(train_labels));
    if (train.positives() == 0) return;

    ml::RandomForest forest(options_.forest);
    {
      Tracer::Span span(tracer_, train_name_, tick, parent);
      forest.train(train);
    }
    const std::size_t rows = train.num_rows();
    const std::size_t window = std::min(rows, options_.ctx.points_per_week);
    const ml::Dataset recent = train.slice(rows - window, rows);
    std::vector<double> scores;
    {
      Tracer::Span span(tracer_, score_all_name_, tick, parent);
      scores = forest.score_all(recent);
    }
    if (tracer_.enabled()) {
      trained_rows_ += rows;
      score_all_rows_ += recent.num_rows();
    }
    {
      Tracer::Span span(tracer_, pick_name_, tick, parent);
      const eval::PrCurve curve(scores, recent.labels());
      (void)eval::pick_threshold(curve, eval::ThresholdMethod::kPcScore,
                                 options_.preference);
    }
    forest_ = std::move(forest);
  }

  std::size_t index_;
  core::FleetOptions options_;
  core::RetrainScheduler scheduler_;
  std::size_t phase_;
  detectors::StreamingExtractor extractor_;
  std::vector<Family> families_;
  Tracer& tracer_;
  Tracer::NameId extract_name_ = 0;
  Tracer::NameId score_name_ = 0;
  Tracer::NameId train_name_ = 0;
  Tracer::NameId score_all_name_ = 0;
  Tracer::NameId pick_name_ = 0;
  std::vector<std::vector<double>> columns_;
  std::vector<std::uint8_t> labels_;
  std::size_t base_ = 0;
  std::size_t labeled_until_ = 0;
  std::optional<ml::RandomForest> forest_;
  std::size_t trained_rows_ = 0;
  std::size_t score_all_rows_ = 0;
};

// One engine and its series, fed in lockstep.
struct Fleet {
  std::unique_ptr<core::FleetEngine> engine;
  std::vector<core::SeriesHandle> handles;
  std::vector<std::size_t> phases;
  std::size_t fed = 0;  // ticks fed so far
  std::vector<std::unique_ptr<Shadow>> shadows;
};

void add_series(Fleet& fleet) {
  fleet.engine = std::make_unique<core::FleetEngine>(engine_options());
  for (std::size_t i = 0; i < kSeries; ++i) {
    fleet.handles.push_back(fleet.engine->add_series(series_id(i)));
    fleet.phases.push_back(fleet.engine->stats(fleet.handles.back()).phase);
  }
}

// Operator labels trail the stream by a day: at each day boundary the
// day before the newest one gets labeled.
void deliver_labels(Fleet& fleet, const Inputs& in) {
  if (fleet.fed % kPointsPerDay != 0 || fleet.fed < 2 * kPointsPerDay) return;
  const std::size_t begin = fleet.fed - 2 * kPointsPerDay;
  for (std::size_t i = 0; i < kSeries; ++i) {
    const auto labels =
        std::span(in.series[i].labels).subspan(begin, kPointsPerDay);
    fleet.engine->ingest_labels(fleet.handles[i], labels, begin);
  }
  for (auto& shadow : fleet.shadows) {
    shadow->deliver_labels(
        std::span(in.series[shadow->index()].labels).subspan(begin,
                                                             kPointsPerDay),
        begin);
  }
}

void feed_shadows(Fleet& fleet, const Inputs& in, std::size_t t,
                  Tracer::SpanId parent) {
  for (auto& shadow : fleet.shadows) {
    shadow->feed(in.series[shadow->index()].values[t], t, parent);
  }
}

// Set-up replay: ticks [fed, end) through feed_tick.
void replay(Fleet& fleet, const Inputs& in, std::size_t end) {
  std::vector<double> values(kSeries);
  std::vector<core::FleetDetection> out(kSeries);
  while (fleet.fed < end) {
    const std::size_t t = fleet.fed;
    for (std::size_t i = 0; i < kSeries; ++i) values[i] = in.series[i].values[t];
    fleet.engine->feed_tick(fleet.handles, values, out);
    feed_shadows(fleet, in, t, Tracer::kNoSpan);
    ++fleet.fed;
    deliver_labels(fleet, in);
  }
}

struct Window {
  std::size_t begin = 0;  // first tick
  std::size_t ticks = 0;
  std::size_t weeks = 0;
  double seconds = 0.0;
  std::vector<double> tick_ms;          // per tick: submit -> all verdicts
  std::vector<double> step_ms;          // per tick, label delivery included
  std::vector<std::uint64_t> digests;   // running verdict digest per tick
  std::vector<std::vector<double>> scores;  // per series
  // Verdicts left unclassified on series that were trained when the
  // window began and were not quarantined by its end.
  std::uint64_t unclassified_on_trained = 0;
  std::uint64_t bad_scores = 0;  // classified verdicts outside [0, 1]
  std::size_t trained_at_start = 0;
};

// The timed closed loop over whole weeks, until `seconds` have elapsed
// and at least `min_ticks` ticks ran. serial=false submits each tick with
// one feed_tick; serial=true feeds series one by one, each call a span.
Window run_window(Fleet& fleet, const Inputs& in, double seconds,
                  std::size_t min_ticks, bool serial, Tracer& tracer) {
  Window w;
  w.begin = fleet.fed;
  w.scores.resize(kSeries);
  std::vector<bool> counted(kSeries, false);
  std::vector<std::uint64_t> unclassified(kSeries, 0);
  for (std::size_t i = 0; i < kSeries; ++i) {
    const core::FleetSeriesStats stats = fleet.engine->stats(fleet.handles[i]);
    counted[i] = stats.trained && !stats.quarantined;
    w.trained_at_start += counted[i] ? 1 : 0;
  }
  const Tracer::NameId tick_name = tracer.name("core.tick");
  const Tracer::NameId feed_name = tracer.name("core.feed", true);
  const Tracer::NameId retrain_name = tracer.name("core.retrain_feed", true);

  std::vector<double> values(kSeries);
  std::vector<core::FleetDetection> out(kSeries);
  Digest digest;
  const Clock::time_point start = Clock::now();
  while (fleet.fed + kPointsPerWeek <= in.length) {
    const std::size_t week_end = fleet.fed + kPointsPerWeek;
    while (fleet.fed < week_end) {
      const std::size_t t = fleet.fed;
      for (std::size_t i = 0; i < kSeries; ++i) {
        values[i] = in.series[i].values[t];
      }
      const Clock::time_point t0 = Clock::now();
      if (serial) {
        Tracer::Span tick_span(tracer, tick_name, t);
        for (std::size_t i = 0; i < kSeries; ++i) {
          const bool due = fleet.engine->scheduler().due_at(fleet.phases[i], t + 1);
          Tracer::Span span(tracer, due ? retrain_name : feed_name, t,
                            tick_span.id());
          out[i] = fleet.engine->feed(fleet.handles[i], values[i]);
        }
        feed_shadows(fleet, in, t, tick_span.id());
      } else {
        fleet.engine->feed_tick(fleet.handles, values, out);
      }
      const Clock::time_point t1 = Clock::now();
      w.tick_ms.push_back(micros(t1 - t0) / 1000.0);
      ++fleet.fed;
      for (std::size_t i = 0; i < kSeries; ++i) {
        const core::FleetDetection& v = out[i];
        digest.add_double(v.score);
        digest.add_bool(v.is_anomaly);
        w.scores[i].push_back(v.classified ? v.score : kNaN);
        if (!v.classified) ++unclassified[i];
        if (v.classified && !(v.score >= 0.0 && v.score <= 1.0)) ++w.bad_scores;
      }
      w.digests.push_back(digest.value());
      deliver_labels(fleet, in);
      w.step_ms.push_back(micros(Clock::now() - t0) / 1000.0);
    }
    ++w.weeks;
    if (seconds_between(start, Clock::now()) >= seconds &&
        w.digests.size() >= min_ticks) {
      break;
    }
  }
  w.seconds = seconds_between(start, Clock::now());
  w.ticks = w.digests.size();
  for (std::size_t i = 0; i < kSeries; ++i) {
    if (counted[i] && !fleet.engine->stats(fleet.handles[i]).quarantined) {
      w.unclassified_on_trained += unclassified[i];
    }
  }
  return w;
}

// Throughput and lag of the best-of-laps composite week (stats.hpp):
// laps are weeks, slots are ticks, so every tick of the week — retrain
// ticks included — keeps its fastest instance.
CompositeLap composite_week(const Window& w) {
  return composite_lap(w.step_ms, w.tick_ms, kPointsPerWeek);
}

double composite_points_per_s(const Window& w) {
  return static_cast<double>(kPointsPerWeek * kSeries) /
         (composite_week(w).total / 1000.0);
}

double mean_window_aucpr(const Window& w, const Inputs& in) {
  std::vector<double> values;
  for (std::size_t i = 0; i < kSeries; ++i) {
    const auto truth =
        std::span(in.series[i].truth).subspan(w.begin, w.ticks);
    const double a = window_aucpr(w.scores[i], truth);
    if (!std::isnan(a)) values.push_back(a);
  }
  return values.empty() ? kNaN : mean(values);
}

void check_window(RunResult& result, const Window& w, const Inputs& in,
                  const char* label) {
  const std::string name(label);
  result.attempted += w.ticks * kSeries;
  result.failed += w.unclassified_on_trained;
  result.check(w.trained_at_start > 0,
               name + ": no series had a trained forest when the window began");
  result.check(w.bad_scores == 0,
               name + ": classified verdicts scored outside [0, 1]");
  const double aucpr = mean_window_aucpr(w, in);
  result.check(!std::isnan(aucpr) && aucpr >= kAucprFloor,
               name + ": mean window AUCPR " + std::to_string(aucpr) +
                   " below the floor " + std::to_string(kAucprFloor));
}

}  // namespace

RunResult run_paper_stream(const RunOptions& options) {
  RunResult result;
  const std::size_t warm_ticks = kWarmWeeks * kPointsPerWeek;
  Tracer untraced(false);

  if (!options.trace) {
    // Set-up, repeated: input generation, engine and series creation,
    // warm-up replay. The last fleet is the one measured.
    std::vector<double> setup_s;
    Inputs in;
    Fleet fleet;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      fleet = Fleet{};
      require_untimed("paper_stream setup");
      const Clock::time_point t0 = Clock::now();
      in = generate_inputs(options.seed);
      add_series(fleet);
      replay(fleet, in, warm_ticks);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    require_untimed("paper_stream window");
    const Window w = run_window(fleet, in, options.seconds,
                                kMinWindowWeeks * kPointsPerWeek, false,
                                untraced);
    check_window(result, w, in, "paper_stream");

    const std::vector<double> lag_ms = composite_week(w).lags;
    const TailStat p99 = tail_percentile(lag_ms, 99.0);
    result.set("setup_s", median(setup_s), "s");
    result.set("points_per_s", composite_points_per_s(w), "points/s");
    result.set("lag_p50_ms", median(lag_ms), "ms");
    result.set("lag_p99_ms", p99.value, "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note("window: " + std::to_string(w.weeks) + " weeks, " +
                std::to_string(w.ticks) + " ticks x " +
                std::to_string(kSeries) + " series in " +
                std::to_string(w.seconds) + " s; " +
                std::to_string(w.trained_at_start) + "/" +
                std::to_string(kSeries) + " series trained at start");
    result.note("lag tail: " + describe_tail(p99, "ticks"));
    result.note("mean window AUCPR " + std::to_string(mean_window_aucpr(w, in)));
    return result;
  }

  // ---- traced run ----
  // The traced serial fleet goes first so its staged RSS deltas are taken
  // before any other fleet's freed pages can be reused.
  Tracer tracer(true);
  tracer.set_enabled(false);
  Inputs in = generate_inputs(options.seed);
  double points_per_s_traced = 0.0;
  Window traced;
  {
    Fleet fleet;
    // Shadows are built before the first RSS stage so only the engine's
    // growth is measured.
    for (std::size_t s = 0; s < kShadowSeries; ++s) {
      fleet.shadows.push_back(std::make_unique<Shadow>(s, tracer));
    }
    const std::size_t warmup = fleet.shadows.front()->max_warmup();
    const double rss0 = static_cast<double>(current_rss_bytes());
    add_series(fleet);
    const double rss_empty = static_cast<double>(current_rss_bytes());
    replay(fleet, in, std::min(warmup, warm_ticks));
    const double rss_warm = static_cast<double>(current_rss_bytes());
    replay(fleet, in, warm_ticks);
    const double rss_trained = static_cast<double>(current_rss_bytes());
    std::size_t trained = 0;
    for (const auto& h : fleet.handles) trained += fleet.engine->stats(h).trained;
    const double n = static_cast<double>(kSeries);
    result.set("core.bytes_per_series.empty", (rss_empty - rss0) / n, "B");
    result.set("core.bytes_per_series.warm", (rss_warm - rss0) / n, "B");
    result.set("core.bytes_per_series.trained", (rss_trained - rss0) / n, "B");
    result.note("RSS stages after add_series / " + std::to_string(warmup) +
                "-point warm-up / first retrain (" + std::to_string(trained) +
                " of " + std::to_string(kSeries) + " series trained)");

    tracer.set_enabled(true);
    traced = run_window(fleet, in, options.seconds, 0, true, tracer);
    tracer.set_enabled(false);
    points_per_s_traced = composite_points_per_s(traced);
    check_window(result, traced, in, "paper_stream traced");

    std::size_t retrains = 0;
    std::size_t failures = 0;
    std::size_t quarantined = 0;
    for (const auto& h : fleet.handles) {
      const core::FleetSeriesStats stats = fleet.engine->stats(h);
      retrains += stats.retrains;
      failures += stats.train_failures;
      quarantined += stats.quarantined ? 1 : 0;
    }
    result.set("core.retrains", static_cast<double>(retrains), "count");
    result.set("core.train_failures", static_cast<double>(failures), "count");
    result.set("core.quarantined", static_cast<double>(quarantined), "count");

    std::size_t rows = 0;
    std::size_t score_all_rows = 0;
    for (const auto& shadow : fleet.shadows) {
      rows += shadow->trained_rows();
      score_all_rows += shadow->score_all_rows();
    }
    const std::size_t trainings = tracer.count("ml.train");
    result.set("ml.train_rows",
               trainings > 0 ? static_cast<double>(rows) /
                                   static_cast<double>(trainings)
                             : 0.0,
               "rows");
    result.set("ml.score_all_us_per_row",
               score_all_rows > 0 ? tracer.total_us("ml.score_all") /
                                        static_cast<double>(score_all_rows)
                                  : 0.0,
               "us/row");
  }

  // The untraced parallel fleet over at least the same ticks.
  Window parallel;
  {
    Fleet fleet;
    add_series(fleet);
    replay(fleet, in, warm_ticks);
    require_untimed("paper_stream window");
    parallel = run_window(fleet, in, options.seconds, traced.ticks, false,
                          untraced);
    check_window(result, parallel, in, "paper_stream");
  }
  const double points_per_s = composite_points_per_s(parallel);

  result.check(
      traced.ticks > 0 && parallel.ticks >= traced.ticks &&
          parallel.digests[traced.ticks - 1] == traced.digests.back(),
      "verdict digest of serial feed differs from parallel feed_tick over " +
          std::to_string(traced.ticks) + " ticks");

  // Per-layer metrics.
  const Tracer::NameStats* feed = tracer.find("core.feed");
  result.set("core.feed_us_p50", feed ? median(feed->samples_us) : 0.0, "us/pt");
  const TailStat feed_tail =
      tail_percentile(feed ? std::span<const double>(feed->samples_us)
                           : std::span<const double>(),
                      99.0);
  result.set("core.feed_us_p99", feed_tail.value, "us/pt");
  result.set("core.retrain_feed_ms", tracer.mean_us("core.retrain_feed") / 1000.0,
             "ms/retrain");
  double parallel_ms = 0.0;
  for (std::size_t t = 0; t < traced.ticks; ++t) parallel_ms += parallel.tick_ms[t];
  const double serial_ms =
      (tracer.total_us("core.feed") + tracer.total_us("core.retrain_feed")) /
      1000.0;
  result.set("core.pool_speedup", parallel_ms > 0 ? serial_ms / parallel_ms : 0.0,
             "x");
  result.set("detectors.extract_us", tracer.mean_us("detectors.extract"), "us/pt");
  for (const std::string& family :
       detectors::DetectorRegistry::with_standard_families().family_names()) {
    result.set("detectors." + family + "_us",
               tracer.mean_us("detectors." + family), "us/pt");
  }
  result.set("ml.score_us", tracer.mean_us("ml.score"), "us/pt");
  result.set("ml.train_ms", tracer.mean_us("ml.train") / 1000.0, "ms/round");
  result.set("eval.cthld_pick_ms", tracer.mean_us("eval.cthld_pick") / 1000.0,
             "ms/pick");
  result.set("eval.aucpr", mean_window_aucpr(parallel, in), "ratio");
  result.set("trace.overhead", points_per_s_traced / points_per_s, "ratio");

  result.note("traced serial window: " + std::to_string(traced.ticks) +
              " ticks in " + std::to_string(traced.seconds) +
              " s; untraced parallel window: " +
              std::to_string(parallel.ticks) + " ticks in " +
              std::to_string(parallel.seconds) + " s");
  result.note("core.feed_us_p99: " + describe_tail(feed_tail, "feeds") +
              "; " + std::to_string(tracer.count("core.retrain_feed")) +
              " retrain feeds");
  // Rank the detector families by cost (BENCH_sec58 names svd, wavelet
  // and tsd_mad as the top three).
  std::vector<std::pair<double, std::string>> ranked;
  for (const std::string& family :
       detectors::DetectorRegistry::with_standard_families().family_names()) {
    ranked.emplace_back(tracer.mean_us("detectors." + family), family);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::string top = "top detector families by us/pt:";
  for (std::size_t i = 0; i < 3 && i < ranked.size(); ++i) {
    top += " " + ranked[i].second + "=" + std::to_string(ranked[i].first);
  }
  result.note(top);
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/paper_stream.trace.json";
    if (tracer.write_chrome_trace(path)) result.note("spans written to " + path);
  }
  return result;
}

}  // namespace perfbench
