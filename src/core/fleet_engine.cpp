#include "core/fleet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/cthld.hpp"
#include "eval/pr_curve.hpp"
#include "ml/serialize.hpp"
#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Fleet-level instruments, looked up once per process (registration takes
// a mutex; updates are relaxed atomics).
struct FleetCounters {
  obs::Counter* points;
  obs::Counter* retrains;
  obs::Counter* train_failures;
  obs::Counter* quarantined;
};

const FleetCounters& fleet_counters() {
  static const FleetCounters counters{
      &obs::counter("opprentice.fleet.points"),
      &obs::counter("opprentice.fleet.retrains"),
      &obs::counter("opprentice.fleet.train_failures"),
      &obs::counter("opprentice.fleet.quarantined")};
  return counters;
}

}  // namespace

std::vector<detectors::DetectorPtr> fleet_lite_configurations(
    const detectors::SeriesContext& ctx) {
  const auto& registry = detectors::DetectorRegistry::with_standard_families();
  std::vector<detectors::DetectorPtr> out;
  for (const char* family : {"diff", "simple_ma", "ewma"}) {
    auto configs = registry.instantiate_family(family, ctx);
    for (auto& config : configs) {
      // Cap warm-up at one day (drops the week-lag diff): a fleet series
      // should classify within its first day, not sit dark for a week.
      if (config->warmup_points() > ctx.points_per_day) continue;
      out.push_back(std::move(config));
    }
  }
  return out;
}

// All per-series streaming state, guarded by one mutex per series. The
// engine is the only code that touches it; every method requiring the
// lock is annotated, so the OPPRENTICE_THREAD_SAFETY build proves the
// discipline statically.
class FleetSeries {
 public:
  FleetSeries(std::string id, std::size_t phase,
              detectors::StreamingExtractor extractor, double ewma_alpha)
      : id_(std::move(id)),
        salt_(util::stable_id_hash(id_)),
        phase_(phase),
        extractor_(std::move(extractor)),
        cthld_(ewma_alpha) {}

 private:
  friend class FleetEngine;

  // Appends one extracted row to the bounded training history.
  void append_row(const std::vector<double>& features, double value,
                  std::size_t history_capacity)
      OPPRENTICE_REQUIRES(mutex_) {
    for (std::size_t f = 0; f < features.size(); ++f) {
      columns_[f].push_back(features[f]);
    }
    values_.push_back(value);
    labels_.push_back(0);
    // Amortized trim: let the buffer grow to 2x capacity, then drop the
    // oldest half in one pass. The trim point is a pure function of the
    // point count, so bounded and unbounded histories differ only in
    // which rows a retrain can still see.
    if (history_capacity > 0 && values_.size() >= 2 * history_capacity) {
      const std::size_t drop = values_.size() - history_capacity;
      for (auto& column : columns_) {
        column.erase(column.begin(),
                     column.begin() + static_cast<std::ptrdiff_t>(drop));
      }
      values_.erase(values_.begin(),
                    values_.begin() + static_cast<std::ptrdiff_t>(drop));
      labels_.erase(labels_.begin(),
                    labels_.begin() + static_cast<std::ptrdiff_t>(drop));
      base_ += drop;
    }
  }

  // A retrain's input: the buffered labeled history and the forest.train
  // fault key (series salt, point count).
  struct TrainingSet {
    ml::Dataset data;
    std::uint64_t key = 0;
  };

  // Copies the labeled history past warm-up. A window with no positive
  // labels yields nothing — nothing to learn is not a failure.
  std::optional<TrainingSet> training_set() const OPPRENTICE_REQUIRES(mutex_) {
    const std::size_t warmup = extractor_.max_warmup();
    const std::size_t begin_local = warmup > base_ ? warmup - base_ : 0;
    const std::size_t end_global =
        std::min(labeled_until_, base_ + values_.size());
    if (end_global <= base_) return std::nullopt;
    const std::size_t end_local = end_global - base_;
    if (begin_local >= end_local) return std::nullopt;

    std::vector<std::vector<double>> train_columns(columns_.size());
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      train_columns[f].assign(
          columns_[f].begin() + static_cast<std::ptrdiff_t>(begin_local),
          columns_[f].begin() + static_cast<std::ptrdiff_t>(end_local));
    }
    std::vector<std::uint8_t> train_labels(
        labels_.begin() + static_cast<std::ptrdiff_t>(begin_local),
        labels_.begin() + static_cast<std::ptrdiff_t>(end_local));
    TrainingSet out{ml::Dataset(extractor_.feature_names(),
                                std::move(train_columns),
                                std::move(train_labels)),
                    util::fault_key(salt_, extractor_.points_seen())};
    if (out.data.positives() == 0) return std::nullopt;
    return out;
  }

  // Trains on `training` behind the forest.train fault site, then installs
  // the forest under the lock. Training fans out over the thread pool, so
  // it runs without the series lock: a pool task feeding this series
  // would otherwise wait on it forever. Failures count toward quarantine.
  void retrain(const TrainingSet& training, const FleetOptions& options,
               std::size_t interval) OPPRENTICE_EXCLUDES(mutex_) {
    const ml::Dataset& train = training.data;
    const std::uint64_t key = training.key;
    try {
      if (util::inject_fault(util::faults::kForestTrain, key)) {
        throw util::InjectedFault("injected forest.train");
      }
      ml::RandomForest forest(options.forest);
      forest.train(train);

      // Best cThld on the most recent labeled window feeds the EWMA
      // predictor (§4.5.2) — the per-series cThld history.
      const std::size_t rows = train.num_rows();
      const std::size_t window = std::min(rows, interval);
      const ml::Dataset recent = train.slice(rows - window, rows);
      const std::vector<double> scores = forest.score_all(recent);
      const eval::PrCurve curve(scores, recent.labels());
      const eval::ThresholdChoice best = eval::pick_threshold(
          curve, eval::ThresholdMethod::kPcScore, options.preference);

      util::MutexLock lock(mutex_);
      forest_ = std::move(forest);
      ++retrains_;
      consecutive_train_failures_ = 0;
      fleet_counters().retrains->add();
      if (cthld_.initialized()) {
        cthld_.observe_best(best.cthld);
      } else {
        cthld_.initialize(best.cthld);
      }
      // Keyed like the fault site, so retrain events line up with any
      // injected failures in the sorted dump (flight_recorder.hpp).
      obs::flight_record("fleet", "retrain", key, "series=" + id_);
    } catch (const std::exception& e) {
      util::MutexLock lock(mutex_);
      ++train_failures_;
      ++consecutive_train_failures_;
      fleet_counters().train_failures->add();
      obs::log(obs::LogLevel::kWarn, "fleet", "train_failed",
               {{"series", id_}, {"error", e.what()}});
      obs::flight_record("fleet", "train_failed", key, "series=" + id_);
      if (options.quarantine_after > 0 &&
          consecutive_train_failures_ >= options.quarantine_after &&
          !quarantined_) {
        quarantined_ = true;
        fleet_counters().quarantined->add();
        obs::log(obs::LogLevel::kWarn, "fleet", "quarantine",
                 {{"series", id_},
                  {"consecutive_failures", consecutive_train_failures_}});
        obs::flight_record("fleet", "quarantine", salt_, "series=" + id_);
      }
    }
  }

  const std::string id_;
  const std::uint64_t salt_;
  const std::size_t phase_;

  mutable util::Mutex mutex_{util::LockLevel::series_state};
  detectors::StreamingExtractor extractor_ OPPRENTICE_GUARDED_BY(mutex_);
  // Bounded training history, column-major like ml::Dataset. base_ is the
  // global point index of local row 0 (rows before it were trimmed).
  std::vector<std::vector<double>> columns_ OPPRENTICE_GUARDED_BY(mutex_);
  std::vector<double> values_ OPPRENTICE_GUARDED_BY(mutex_);
  std::vector<std::uint8_t> labels_ OPPRENTICE_GUARDED_BY(mutex_);
  std::size_t base_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::size_t labeled_until_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::optional<ml::RandomForest> forest_ OPPRENTICE_GUARDED_BY(mutex_);
  EwmaCthldPredictor cthld_ OPPRENTICE_GUARDED_BY(mutex_);
  bool quarantined_ OPPRENTICE_GUARDED_BY(mutex_) = false;
  std::size_t retrains_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::size_t train_failures_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::size_t consecutive_train_failures_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  ts::RepairReport repair_totals_ OPPRENTICE_GUARDED_BY(mutex_);
};

FleetEngine::FleetEngine(FleetOptions options)
    : options_(std::move(options)),
      scheduler_(options_.scheduler_seed,
                 options_.retrain_interval != 0
                     ? options_.retrain_interval
                     : options_.ctx.points_per_week),
      registry_(options_.shard_count, options_.scheduler_seed) {}

FleetEngine::~FleetEngine() = default;

SeriesHandle FleetEngine::add_series(const std::string& id) {
  return registry_.get_or_create(id, [&] {
    detectors::FaultBoundary boundary = options_.boundary;
    boundary.key_salt = util::stable_id_hash(id);
    std::vector<detectors::DetectorPtr> configs =
        options_.detector_factory
            ? options_.detector_factory(options_.ctx)
            : detectors::standard_configurations(options_.ctx);
    auto state = std::make_shared<FleetSeries>(
        id, scheduler_.phase(id),
        detectors::StreamingExtractor(std::move(configs), boundary),
        options_.cthld_ewma_alpha);
    {
      util::MutexLock lock(state->mutex_);
      state->columns_.resize(state->extractor_.num_features());
    }
    return state;
  });
}

SeriesHandle FleetEngine::find_series(std::string_view id) const {
  return registry_.find(id);
}

bool FleetEngine::remove_series(std::string_view id) {
  return registry_.erase(id);
}

std::size_t FleetEngine::series_count() const { return registry_.entry_count(); }

std::vector<std::string> FleetEngine::series_ids() const {
  return registry_.ids_sorted();
}

FleetDetection FleetEngine::feed(const SeriesHandle& series, double value) {
  FleetSeries& state = *series;
  FleetDetection out;
  out.value = value;
  std::optional<FleetSeries::TrainingSet> training;
  {
    util::MutexLock lock(state.mutex_);
    if (state.quarantined_) {
      out.score = kNaN;
      out.cthld = kNaN;
      return out;
    }
    const std::vector<double> features = state.extractor_.feed(value);
    state.append_row(features, value, options_.history_capacity);
    fleet_counters().points->add();

    if (state.forest_.has_value() && state.extractor_.warmed_up()) {
      out.score = state.forest_->score(features);
      out.cthld = state.cthld_.initialized() ? state.cthld_.predict() : 0.5;
      out.is_anomaly = out.score >= out.cthld;
      out.classified = true;
    } else {
      out.score = kNaN;
    }

    if (scheduler_.due_at(state.phase_, state.extractor_.points_seen())) {
      training = state.training_set();
    }
  }
  if (training) state.retrain(*training, options_, scheduler_.interval());
  return out;
}

void FleetEngine::feed_tick(std::span<const SeriesHandle> series,
                            std::span<const double> values,
                            std::span<FleetDetection> out) {
  const std::size_t n = std::min(series.size(), values.size());
  // Each slot is one independent series under its own lock writing its
  // own output element — bit-identical at any thread count. A grain of a
  // few series keeps pool dispatch off the per-point budget at 10k+.
  util::parallel_for(
      n, [&](std::size_t i) { out[i] = feed(series[i], values[i]); }, 8);
}

IngestOutcome FleetEngine::ingest_raw(const SeriesHandle& series,
                                      std::vector<ts::RawPoint> points,
                                      std::int64_t interval_seconds,
                                      ts::RepairPolicy policy) {
  FleetSeries& state = *series;
  std::string id;
  std::uint64_t salt = 0;
  {
    util::MutexLock lock(state.mutex_);
    id = state.id_;
    salt = state.salt_;
  }
  // Injection and repair run outside the series lock (they only touch
  // the local point vector); repair_series flight-records dirty streams
  // with the series id in the detail, which is the per-series
  // attribution the chaos tests assert.
  ts::inject_ingest_faults(points, salt);
  ts::RepairResult repaired =
      ts::repair_series(id, std::move(points), interval_seconds, policy);
  for (std::size_t i = 0; i < repaired.series.size(); ++i) {
    feed(series, repaired.series[i]);
  }
  util::MutexLock lock(state.mutex_);
  state.repair_totals_.out_of_order += repaired.report.out_of_order;
  state.repair_totals_.duplicates += repaired.report.duplicates;
  state.repair_totals_.gaps += repaired.report.gaps;
  state.repair_totals_.bad_values += repaired.report.bad_values;
  state.repair_totals_.misaligned += repaired.report.misaligned;
  return IngestOutcome{repaired.report, repaired.series.size()};
}

void FleetEngine::ingest_labels(const SeriesHandle& series,
                                std::span<const std::uint8_t> labels,
                                std::size_t begin) {
  FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t global = begin + i;
    if (global < state.base_) continue;  // row already trimmed
    const std::size_t local = global - state.base_;
    if (local >= state.labels_.size()) break;  // not fed yet
    state.labels_[local] = labels[i];
  }
  const std::size_t end =
      std::min(begin + labels.size(), state.base_ + state.labels_.size());
  state.labeled_until_ = std::max(state.labeled_until_, end);
}

void FleetEngine::set_quarantined(const SeriesHandle& series,
                                  bool quarantined) {
  FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  if (quarantined && !state.quarantined_) {
    fleet_counters().quarantined->add();
    obs::flight_record("fleet", "quarantine", state.salt_,
                       "series=" + state.id_);
  }
  state.quarantined_ = quarantined;
}

FleetSeriesStats FleetEngine::stats(const SeriesHandle& series) const {
  const FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  FleetSeriesStats out;
  out.id = state.id_;
  out.phase = state.phase_;
  out.points_seen = state.extractor_.points_seen();
  out.labeled_until = state.labeled_until_;
  out.retrains = state.retrains_;
  out.train_failures = state.train_failures_;
  out.trained = state.forest_.has_value();
  out.quarantined = state.quarantined_;
  out.repairs = state.repair_totals_;
  return out;
}

std::string FleetEngine::forest_fingerprint(
    const SeriesHandle& series) const {
  const FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  if (!state.forest_.has_value()) return "";
  std::ostringstream out;
  ml::save_forest(out, *state.forest_, state.extractor_.feature_names());
  return out.str();
}

IncrementalRunResult FleetEngine::run_incremental(
    const ml::Dataset& data, std::size_t points_per_week, std::size_t warmup,
    const DriverOptions& options) const {
  obs::ScopedSpan run_span("weekly.run", "core");
  run_span.arg("rows", data.num_rows());
  const obs::Stopwatch run_watch;

  IncrementalRunResult result;
  result.test_start = options.initial_weeks * points_per_week;
  result.scores.assign(data.num_rows(), kNaN);

  // Enumerate the window schedule up front, then fan the weeks out across
  // the pool. Each week trains on its own (read-only) slice of history
  // with pre-fixed forest seeds and writes a disjoint [test_begin,
  // test_end) score range plus its own WeekResult slot, so the run is
  // bit-identical at any thread count.
  std::vector<StrategyWindows> schedule;
  for (std::size_t window = 0;; ++window) {
    const auto windows =
        strategy_windows(TrainingStrategy::kI1, window, data.num_rows(),
                         points_per_week, options.initial_weeks);
    if (!windows) break;
    schedule.push_back(*windows);
  }

  result.weeks.assign(schedule.size(), WeekResult{});
  util::parallel_for(schedule.size(), [&](std::size_t window) {
    const StrategyWindows& windows = schedule[window];
    obs::ScopedSpan week_span("weekly.window", "core");
    week_span.arg("week", window);
    week_span.arg("train_rows", windows.train_end - windows.train_begin);

    const std::vector<double> week_scores =
        run_strategy_window(data, warmup, windows, options.forest);
    std::copy(week_scores.begin(), week_scores.end(),
              result.scores.begin() +
                  static_cast<std::ptrdiff_t>(windows.test_begin));

    WeekResult wr;
    wr.test_begin = windows.test_begin;
    wr.test_end = windows.test_end;
    {
      obs::ScopedSpan pick_span("weekly.cthld_pick", "core");
      const ml::Dataset test =
          data.slice(windows.test_begin, windows.test_end);
      const eval::PrCurve curve(week_scores, test.labels());
      wr.best = eval::pick_threshold(curve, eval::ThresholdMethod::kPcScore,
                                     options.preference);
    }
    result.weeks[window] = wr;
    obs::counter("opprentice.weekly.windows").add();
    if (obs::log_enabled(obs::LogLevel::kInfo)) {
      obs::log(obs::LogLevel::kInfo, "weekly", "window_done",
               {{"week", window},
                {"best_cthld", wr.best.cthld},
                {"recall", wr.best.recall},
                {"precision", wr.best.precision}});
    }
  });
  obs::histogram("opprentice.weekly.run.ms").record(run_watch.elapsed_ms());
  return result;
}

std::optional<ml::RandomForest> train_forest_guarded(
    const ml::Dataset& data, std::size_t warmup, std::size_t train_begin,
    std::size_t train_end, const ml::ForestOptions& options,
    std::uint64_t key_salt) {
  const std::size_t begin = std::max(train_begin, warmup);
  if (begin >= train_end) return std::nullopt;
  const ml::Dataset train = data.slice(begin, train_end);
  if (train.positives() == 0) return std::nullopt;
  const std::uint64_t key = util::fault_key(begin, train_end) ^ key_salt;
  try {
    if (util::inject_fault(util::faults::kForestTrain, key)) {
      throw util::InjectedFault("injected forest.train");
    }
    ml::RandomForest forest(options);
    forest.train(train);
    return forest;
  } catch (const std::exception& e) {
    obs::counter("opprentice.forest.train_failures").add();
    obs::log(obs::LogLevel::kWarn, "weekly", "train_failed",
             {{"train_begin", begin},
              {"train_end", train_end},
              {"error", e.what()}});
    // Keyed by the training window, so the event stream is a pure
    // function of the schedule + fault plan regardless of which worker
    // hit the failure (flight_recorder.hpp).
    obs::flight_record("weekly", "train_failed", key,
                       "train_begin=" + std::to_string(begin) +
                           " train_end=" + std::to_string(train_end));
    return std::nullopt;
  }
}

double synthetic_fleet_value(std::uint64_t salt, std::size_t index,
                             std::size_t points_per_day) {
  if (points_per_day == 0) points_per_day = 1;
  const double day_position =
      static_cast<double>(index % points_per_day) /
      static_cast<double>(points_per_day);
  const double seasonal =
      100.0 + 25.0 * std::sin(6.283185307179586 * day_position);
  // Hash noise in [-2, 2): a pure function of (salt, index).
  const std::uint64_t h = util::fault_key(salt, index);
  const double noise =
      static_cast<double>(h >> 11) * 0x1.0p-53 * 4.0 - 2.0;
  return seasonal + noise;
}

}  // namespace opprentice::core
