#include "core/fleet_engine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
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

// First row of the logical training window at point count t, for a
// history bound of `capacity` (W) rows: (t / W - 1) * W once t reaches
// 2W, so the window always spans [W, 2W) rows. 0 bounds nothing.
std::size_t window_base(std::size_t t, std::size_t capacity) {
  return capacity > 0 && t >= 2 * capacity ? (t / capacity - 1) * capacity
                                           : 0;
}

// First row a retrain at point count t reads: past warm-up and inside the
// logical window. Monotone in t, so once a retrain has copied its rows,
// every row below the next retrain's floor is dead.
std::size_t train_floor(std::size_t t, std::size_t warmup,
                        std::size_t capacity) {
  return std::max(warmup, window_base(t, capacity));
}

// Rows a series' history must hold: the most rows any of its retrains
// reads, t - train_floor(t) over the due points t. Once t >= 2W and the
// window has passed warm-up this is W + t mod W, and t mod W repeats
// every W / gcd(interval, W) due points, so the scan stops one such
// period into that steady state. 0 for an unbounded history, which grows.
std::size_t history_rows(const RetrainScheduler& scheduler, std::size_t phase,
                         std::size_t warmup, std::size_t capacity) {
  if (capacity == 0) return 0;
  const std::size_t interval = scheduler.interval();
  const std::size_t period = capacity / std::gcd(interval, capacity);
  std::size_t rows = 0;
  std::size_t steady = 0;
  for (std::size_t t = scheduler.next_due(phase, 0); steady < period;
       t += interval) {
    const std::size_t floor = train_floor(t, warmup, capacity);
    if (t > floor) rows = std::max(rows, t - floor);
    if (t >= 2 * capacity && window_base(t, capacity) >= warmup) ++steady;
  }
  return rows;
}

// A series' stored feature history: rows [floor, end) with their labels,
// column-major like ml::Dataset, `capacity` rows per column in one block
// of f32 (stored_severity), 4 B per feature and row. A row's label byte
// is kUnlabeled until a label chunk covers it, and training skips such
// rows. Rows below the floor are never stored.
// The block is sized when the series is added; only an unbounded
// history, which starts empty, ever grows it. A sized block that fills
// up is a sizing bug, and throws in every build.
class FeatureHistory {
 public:
  static constexpr std::uint8_t kUnlabeled = 0xFF;

  FeatureHistory() = default;
  FeatureHistory(std::size_t features, std::size_t capacity,
                 std::size_t floor)
      : features_(features),
        capacity_(capacity),
        grows_(capacity == 0),
        floor_(floor),
        values_(std::make_unique_for_overwrite<float[]>(features *
                                                        capacity)),
        labels_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)) {}

  std::size_t floor() const { return floor_; }

  // Stores point `row`, unlabeled, unless it lies below the floor.
  // Rows arrive in order, so a stored row is always floor + stored rows.
  void append(std::size_t row, std::span<const double> features) {
    if (row < floor_) return;
    if (rows_ == capacity_) {
      if (!grows_) {
        throw std::logic_error("FeatureHistory: the sized store is full");
      }
      grow();
    }
    for (std::size_t f = 0; f < features_; ++f) {
      values_[f * capacity_ + rows_] = stored_severity(features[f]);
    }
    labels_[rows_] = kUnlabeled;
    ++rows_;
  }

  // Row must be stored: at or above the floor, and already appended.
  // Any nonzero label is anomalous.
  void set_label(std::size_t row, std::uint8_t label) {
    labels_[row - floor_] = label != 0 ? 1 : 0;
  }

  // Drops the rows below `floor`, moving the rest to the front of each
  // column.
  void drop_below(std::size_t floor) {
    if (floor <= floor_) return;
    const std::size_t drop = std::min(floor - floor_, rows_);
    const std::size_t keep = rows_ - drop;
    for (std::size_t f = 0; f < features_; ++f) {
      float* column = values_.get() + f * capacity_;
      std::copy(column + drop, column + rows_, column);
    }
    std::copy(labels_.get() + drop, labels_.get() + rows_, labels_.get());
    rows_ = keep;
    floor_ = floor;
  }

  // The labeled rows of [begin, end), which must be stored, as a
  // training dataset; each value widens exactly to f64.
  ml::Dataset copy(std::vector<std::string> names, std::size_t begin,
                   std::size_t end) const {
    std::vector<std::size_t> rows;
    std::vector<std::uint8_t> labels;
    for (std::size_t row = begin - floor_; row < end - floor_; ++row) {
      if (labels_[row] == kUnlabeled) continue;
      rows.push_back(row);
      labels.push_back(labels_[row]);
    }
    std::vector<std::vector<double>> columns(features_);
    for (std::size_t f = 0; f < features_; ++f) {
      const float* column = values_.get() + f * capacity_;
      columns[f].reserve(rows.size());
      for (const std::size_t row : rows) columns[f].push_back(column[row]);
    }
    return ml::Dataset(std::move(names), std::move(columns),
                       std::move(labels));
  }

 private:
  void grow() {
    const std::size_t capacity = std::max<std::size_t>(2 * capacity_, 64);
    auto values = std::make_unique_for_overwrite<float[]>(features_ *
                                                          capacity);
    for (std::size_t f = 0; f < features_; ++f) {
      std::copy_n(values_.get() + f * capacity_, rows_,
                  values.get() + f * capacity);
    }
    auto labels = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
    std::copy_n(labels_.get(), rows_, labels.get());
    values_ = std::move(values);
    labels_ = std::move(labels);
    capacity_ = capacity;
  }

  std::size_t features_ = 0;
  std::size_t capacity_ = 0;
  bool grows_ = true;
  std::size_t floor_ = 0;  // global point index of stored row 0
  std::size_t rows_ = 0;
  std::unique_ptr<float[]> values_;  // [feature * capacity_ + row]
  std::unique_ptr<std::uint8_t[]> labels_;
};

// A retrain from its due point T to its install after point T +
// kForestInstallDelay, run as one stage per point (DESIGN.md §5i):
//   0 (T)     the forest.train fault check; the newest `interval` rows
//             scored by the live forest and the week's best cThld picked
//             (a first retrain, with no live forest, keeps those rows);
//   1 (T+1)   binning and the bootstrap draw, then the f64 copy is freed;
//   2 .. 5    a quarter of the trees each;
//   6 (T+6)   the forest assembled; a first retrain scores its kept rows
//             with it and picks its cThld.
// A stage is a serial begin(), independent units, then a serial end().
// The forest and the cThld are functions of the copy, the live forest and
// the options alone, so which thread or tick runs a unit changes no bit.
// Any step may throw: the retrain has then failed.
class PendingRetrain {
 public:
  static constexpr std::size_t kStages = kForestInstallDelay + 1;

  PendingRetrain(ml::Dataset data, std::uint64_t key,
                 std::shared_ptr<const ml::RandomForest> live,
                 const FleetOptions& options, std::size_t interval)
      : data_(std::move(data)),
        key_(key),
        live_(std::move(live)),
        forest_options_(options.forest),
        preference_(options.preference),
        window_(std::min(data_.num_rows(), interval)) {}

  std::uint64_t key() const { return key_; }
  bool done() const { return stage_ == kStages; }
  // After the last stage.
  const std::shared_ptr<const ml::RandomForest>& forest() const {
    return forest_;
  }
  double best_cthld() const { return best_cthld_; }

  void begin() {
    const std::size_t rows = data_.num_rows();
    if (stage_ == 0) {
      if (util::inject_fault(util::faults::kForestTrain, key_)) {
        throw util::InjectedFault("injected forest.train");
      }
      training_.emplace(forest_options_, data_);
      // As §4.5.2 does, the week's best cThld comes from a forest that has
      // not trained on it: the live one.
      if (live_ != nullptr) score(*live_, data_, rows - window_);
    } else if (stage_ == kStages - 1) {
      forest_ = std::make_shared<const ml::RandomForest>(training_->assemble());
      if (live_ == nullptr) score(*forest_, kept_, 0);
    }
  }

  std::size_t units() const {
    if (scorer_ != nullptr) {
      return (scores_.size() + kScoreChunk - 1) / kScoreChunk;
    }
    if (stage_ == 1) return training_->bin_units();
    if (stage_ > 1 && stage_ < kStages - 1) {
      const auto [first, last] = tree_range();
      return last - first;
    }
    return 0;
  }

  void run_unit(std::size_t unit) {
    if (scorer_ != nullptr) {
      std::vector<double> row(scored_->num_features());
      const std::size_t end =
          std::min(scores_.size(), (unit + 1) * kScoreChunk);
      for (std::size_t i = unit * kScoreChunk; i < end; ++i) {
        for (std::size_t f = 0; f < row.size(); ++f) {
          row[f] = scored_->value(first_scored_ + i, f);
        }
        scores_[i] = scorer_->score(row);
      }
    } else if (stage_ == 1) {
      training_->bin(data_, unit);
    } else {
      training_->grow(tree_range().first + unit);
    }
  }

  void end() {
    if (scorer_ != nullptr) {
      const eval::PrCurve curve(
          scores_, std::span(scored_->labels())
                       .subspan(first_scored_, scores_.size()));
      best_cthld_ = eval::pick_threshold(
                        curve, eval::ThresholdMethod::kPcScore, preference_)
                        .cthld;
      scorer_ = nullptr;
      scores_ = {};
    }
    const std::size_t rows = data_.num_rows();
    if (stage_ == 0 && live_ == nullptr) {
      kept_ = data_.slice(rows - window_, rows);
    }
    if (stage_ == 1) data_ = ml::Dataset();
    ++stage_;
  }

 private:
  // Rows one scoring unit gathers and scores, as in score_all.
  static constexpr std::size_t kScoreChunk = 64;
  static constexpr std::size_t kTreeStages = kStages - 3;

  // This stage's units score rows [first, first + window_) of `rows`.
  void score(const ml::RandomForest& forest, const ml::Dataset& rows,
             std::size_t first) {
    scorer_ = &forest;
    scored_ = &rows;
    first_scored_ = first;
    scores_.assign(window_, 0.0);
  }

  // The trees this tree stage grows, [first, last).
  std::pair<std::size_t, std::size_t> tree_range() const {
    const std::size_t trees = training_->tree_units();
    const std::size_t per_stage = (trees + kTreeStages - 1) / kTreeStages;
    const std::size_t first = std::min(trees, (stage_ - 2) * per_stage);
    return {first, std::min(trees, first + per_stage)};
  }

  ml::Dataset data_;  // the copy taken at T; freed after binning
  const std::uint64_t key_;
  const std::shared_ptr<const ml::RandomForest> live_;
  const ml::ForestOptions forest_options_;
  const eval::AccuracyPreference preference_;
  const std::size_t window_;  // the newest rows the cThld is picked on
  ml::Dataset kept_;          // those rows, for a first retrain
  std::size_t stage_ = 0;     // the next stage to run
  std::optional<ml::ForestTraining> training_;
  std::shared_ptr<const ml::RandomForest> forest_;
  double best_cthld_ = 0.5;
  // Set by a scoring stage's begin() for its units.
  const ml::RandomForest* scorer_ = nullptr;
  const ml::Dataset* scored_ = nullptr;
  std::size_t first_scored_ = 0;
  std::vector<double> scores_;
};

// Runs `job`'s next stage, its units over the global thread pool.
void run_stage(PendingRetrain& job) {
  job.begin();
  util::parallel_for(job.units(),
                     [&job](std::size_t unit) { job.run_unit(unit); });
  job.end();
}

std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

// All per-series streaming state, guarded by one mutex per series. The
// engine is the only code that touches it; every method requiring the
// lock is annotated, so the OPPRENTICE_THREAD_SAFETY build proves the
// discipline statically.
class FleetSeries {
 public:
  FleetSeries(std::string id, std::size_t phase,
              detectors::StreamingExtractor extractor,
              std::atomic<std::size_t>& fleet_pending)
      : id_(std::move(id)),
        salt_(util::stable_id_hash(id_)),
        phase_(phase),
        fleet_pending_(fleet_pending),
        extractor_(std::move(extractor)) {}

 private:
  friend class FleetEngine;

  // Extracts, records and scores one point under the lock, writing the
  // verdict to `out`. On the series' due point a retrain copies its
  // training set and becomes pending. Returns the pending retrain when
  // this point has work for it and no other caller holds it — its next
  // stage, or its install — claimed for the caller, which must pass it
  // to advance(). Allocation-free unless a retrain comes due.
  std::shared_ptr<PendingRetrain> feed_point(
      double value, const FleetOptions& options,
      const RetrainScheduler& scheduler, FleetDetection& out)
      OPPRENTICE_EXCLUDES(mutex_) {
    out = FleetDetection{};
    out.value = value;
    util::MutexLock lock(mutex_);
    if (quarantined_) {
      out.score = kNaN;
      out.cthld = kNaN;
      return nullptr;
    }
    extractor_.feed_into(value, features_);
    history_.append(extractor_.points_seen() - 1, features_);
    fleet_counters().points->add();

    if (forest_ != nullptr && extractor_.warmed_up()) {
      out.score = forest_->score(features_);
      out.cthld = cthld_.initialized() ? cthld_.predict() : 0.5;
      out.is_anomaly = out.score >= out.cthld;
      out.classified = true;
    } else {
      out.score = kNaN;
    }

    const std::size_t points = extractor_.points_seen();
    if (scheduler.due_at(phase_, points)) {
      // A retrain still pending here was held by a concurrent caller past
      // its install point; this due point then trains nothing.
      if (pending_ == nullptr) {
        if (std::optional<ml::Dataset> data =
                training_set(options.history_capacity)) {
          pending_ = std::make_shared<PendingRetrain>(
              std::move(*data), util::fault_key(salt_, points), forest_,
              options, scheduler.interval());
          install_at_ = points + kForestInstallDelay;
          fleet_pending_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // This retrain has its copy; the next one reads nothing below its
      // own floor.
      history_.drop_below(train_floor(scheduler.next_due(phase_, points),
                                      extractor_.max_warmup(),
                                      options.history_capacity));
    }
    if (pending_ == nullptr || pending_claimed_ ||
        (pending_->done() && points < install_at_)) {
      return nullptr;
    }
    pending_claimed_ = true;
    return pending_;
  }

  // Claims the pending retrain's next stage for a caller that runs it
  // before this series' next point is fed (feed_tick), or nullptr.
  std::shared_ptr<PendingRetrain> claim_stage() OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (pending_ == nullptr || pending_claimed_ || pending_->done()) {
      return nullptr;
    }
    pending_claimed_ = true;
    return pending_;
  }

  // Copies the labeled rows of the window past warm-up. A window with no
  // positive labels yields nothing — nothing to learn is not a failure.
  std::optional<ml::Dataset> training_set(std::size_t history_capacity) const
      OPPRENTICE_REQUIRES(mutex_) {
    const std::size_t points = extractor_.points_seen();
    const std::size_t begin =
        train_floor(points, extractor_.max_warmup(), history_capacity);
    const std::size_t end = std::min(labeled_until_, points);
    if (begin >= end) return std::nullopt;
    if (begin < history_.floor()) {
      throw std::logic_error(
          "FleetSeries: training window starts below the stored history");
    }
    ml::Dataset data = history_.copy(extractor_.feature_names(), begin, end);
    if (data.positives() == 0) return std::nullopt;
    return data;
  }

  // Runs a claimed retrain's next stage, then settles it. Stages fan out
  // over the thread pool, so they run without the series lock: a pool
  // task feeding this series would otherwise wait on it forever.
  void advance(const std::shared_ptr<PendingRetrain>& job,
               const FleetOptions& options) OPPRENTICE_EXCLUDES(mutex_) {
    std::optional<std::string> error;
    if (!job->done()) {
      try {
        run_stage(*job);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    settle(job, std::move(error), options);
  }

  // Hands a claimed retrain back once its caller has run a stage. A
  // failed one is counted and dropped. Once the series has reached the
  // install point, every stage left runs and the forest is installed;
  // otherwise the retrain waits for the series' next point.
  void settle(const std::shared_ptr<PendingRetrain>& job,
              std::optional<std::string> error, const FleetOptions& options)
      OPPRENTICE_EXCLUDES(mutex_) {
    if (!error.has_value() && !job->done() && install_due()) {
      try {
        while (!job->done()) run_stage(*job);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    util::MutexLock lock(mutex_);
    if (error.has_value()) {
      record_failure(job->key(), *error, options);
    } else if (job->done() && extractor_.points_seen() >= install_at_) {
      install(*job);
    } else {
      pending_claimed_ = false;
      return;
    }
    pending_.reset();
    pending_claimed_ = false;
    fleet_pending_.fetch_sub(1, std::memory_order_relaxed);
  }

  bool install_due() const OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return extractor_.points_seen() >= install_at_;
  }

  void install(const PendingRetrain& job) OPPRENTICE_REQUIRES(mutex_) {
    forest_ = job.forest();
    ++retrains_;
    consecutive_train_failures_ = 0;
    fleet_counters().retrains->add();
    // The best cThld feeds the EWMA predictor (§4.5.2), the per-series
    // cThld history.
    if (cthld_.initialized()) {
      cthld_.observe_best(job.best_cthld());
    } else {
      cthld_.initialize(job.best_cthld());
    }
    // Keyed like the fault site, so retrain events line up with any
    // injected failures in the sorted dump (flight_recorder.hpp).
    obs::flight_record("fleet", "retrain", job.key(), "series=" + id_);
  }

  // Failures count toward quarantine.
  void record_failure(std::uint64_t key, const std::string& error,
                      const FleetOptions& options)
      OPPRENTICE_REQUIRES(mutex_) {
    ++train_failures_;
    ++consecutive_train_failures_;
    fleet_counters().train_failures->add();
    obs::log(obs::LogLevel::kWarn, "fleet", "train_failed",
             {{"series", id_}, {"error", error}});
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

  const std::string id_;
  const std::uint64_t salt_;
  const std::size_t phase_;
  // The engine's count of series with a retrain pending.
  std::atomic<std::size_t>& fleet_pending_;

  mutable util::Mutex mutex_{util::LockLevel::series_state};
  detectors::StreamingExtractor extractor_ OPPRENTICE_GUARDED_BY(mutex_);
  // The current point's feature vector (feed_into's output).
  std::vector<double> features_ OPPRENTICE_GUARDED_BY(mutex_);
  // The rows from the next due retrain's floor up to the newest point.
  FeatureHistory history_ OPPRENTICE_GUARDED_BY(mutex_);
  std::size_t labeled_until_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  // Shared with a pending retrain, which scores its window outside the
  // lock.
  std::shared_ptr<const ml::RandomForest> forest_
      OPPRENTICE_GUARDED_BY(mutex_);
  // The retrain between its due point and its install, if any, the point
  // count after which it installs, and whether a caller holds it. Only
  // its holder touches it, outside the lock; an unheld one is read only
  // under the lock.
  std::shared_ptr<PendingRetrain> pending_ OPPRENTICE_GUARDED_BY(mutex_);
  std::size_t install_at_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  bool pending_claimed_ OPPRENTICE_GUARDED_BY(mutex_) = false;
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
                     : options_.ctx.points_per_week) {
  if (scheduler_.interval() <= kForestInstallDelay) {
    throw std::invalid_argument(
        "FleetEngine: a retrain interval of " +
        std::to_string(scheduler_.interval()) +
        " points does not exceed the forest install delay of " +
        std::to_string(kForestInstallDelay));
  }
}

FleetEngine::~FleetEngine() = default;

SeriesHandle FleetEngine::add_series(const std::string& id) {
  util::MutexLock map_lock(series_mutex_);
  const auto it = series_.find(id);
  if (it != series_.end()) return it->second;
  std::vector<detectors::DetectorPtr> configs =
      options_.detector_factory
          ? options_.detector_factory(options_.ctx)
          : detectors::standard_configurations(options_.ctx);
  auto state = std::make_shared<FleetSeries>(
      id, scheduler_.phase(id),
      detectors::StreamingExtractor(
          std::move(configs),
          detectors::FaultBoundary{.key_salt = util::stable_id_hash(id)}),
      pending_retrains_);
  {
    util::MutexLock lock(state->mutex_);
    const std::size_t features = state->extractor_.num_features();
    const std::size_t warmup = state->extractor_.max_warmup();
    const std::size_t capacity = options_.history_capacity;
    state->history_ = FeatureHistory(
        features, history_rows(scheduler_, state->phase_, warmup, capacity),
        train_floor(scheduler_.next_due(state->phase_, 0), warmup, capacity));
    state->features_.resize(features);
  }
  series_.emplace(id, state);
  return state;
}

SeriesHandle FleetEngine::find_series(std::string_view id) const {
  util::MutexLock lock(series_mutex_);
  const auto it = series_.find(id);
  return it == series_.end() ? nullptr : it->second;
}

std::size_t FleetEngine::series_count() const {
  util::MutexLock lock(series_mutex_);
  return series_.size();
}

std::vector<std::string> FleetEngine::series_ids() const {
  util::MutexLock lock(series_mutex_);
  std::vector<std::string> ids;
  ids.reserve(series_.size());
  for (const auto& [id, series] : series_) ids.push_back(id);
  return ids;
}

FleetDetection FleetEngine::feed(const SeriesHandle& series, double value) {
  FleetDetection out;
  if (const auto job = series->feed_point(value, options_, scheduler_, out)) {
    series->advance(job, options_);
  }
  return out;
}

void FleetEngine::feed_tick(std::span<const SeriesHandle> series,
                            std::span<const double> values,
                            std::span<FleetDetection> out) {
  if (values.size() != series.size() || out.size() != series.size()) {
    throw std::invalid_argument(
        "FleetEngine::feed_tick: " + std::to_string(series.size()) +
        " series, " + std::to_string(values.size()) + " values, " +
        std::to_string(out.size()) + " outputs");
  }
  const std::size_t n = series.size();
  // The stages of pending retrains that fall on this tick, claimed before
  // the dispatch so that their units run in it; looked for only while
  // some series has a retrain pending.
  struct Stage {
    std::size_t index = 0;  // of the series
    std::shared_ptr<PendingRetrain> job;
    std::size_t first_unit = 0;
    std::size_t units = 0;
    std::optional<std::string> error;
  };
  std::vector<Stage> stages;
  std::size_t units = 0;
  if (pending_retrains_.load(std::memory_order_relaxed) != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      std::shared_ptr<PendingRetrain> job = series[i]->claim_stage();
      if (job == nullptr) continue;
      Stage& stage = stages.emplace_back();
      stage.index = i;
      stage.job = std::move(job);
      stage.first_unit = units;
      try {
        stage.job->begin();
        stage.units = stage.job->units();
      } catch (const std::exception& e) {
        stage.error = e.what();
      }
      units += stage.units;
    }
  }

  // One dispatch: the stage units first, the larger tasks, then the
  // points. Points go in tasks of a few series, which keeps pool dispatch
  // off the per-point budget at 10k+ series, except on a tick with stage
  // units: one series a task then lets the lanes that finish their units
  // first take up the points, so no lane idles at the tick's tail. Each
  // unit writes only its own retrain's slot, and each point its own
  // series, output element and claim slot — bit-identical at any thread
  // count.
  const std::size_t points_per_task = units == 0 ? 8 : 1;
  struct Slot {
    std::shared_ptr<PendingRetrain> claim;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(n);
  std::vector<std::exception_ptr> unit_errors(units);
  util::parallel_for(
      units + (n + points_per_task - 1) / points_per_task,
      [&](std::size_t k) {
        if (k < units) {
          Stage* stage = stages.data();
          while (k >= stage->first_unit + stage->units) ++stage;
          try {
            stage->job->run_unit(k - stage->first_unit);
          } catch (...) {
            unit_errors[k] = std::current_exception();
          }
          return;
        }
        const std::size_t first = (k - units) * points_per_task;
        for (std::size_t i = first; i < std::min(n, first + points_per_task);
             ++i) {
          try {
            slots[i].claim = series[i]->feed_point(values[i], options_,
                                                   scheduler_, out[i]);
          } catch (...) {
            slots[i].error = std::current_exception();
          }
        }
      });

  // In index order from this thread: the claimed stages end and settle,
  // installing the forests whose install point this tick was; then the
  // work the points claimed — the first stage of each retrain that came
  // due — fans out over every lane.
  for (Stage& stage : stages) {
    for (std::size_t u = 0; u < stage.units && !stage.error; ++u) {
      if (unit_errors[stage.first_unit + u]) {
        stage.error = error_text(unit_errors[stage.first_unit + u]);
      }
    }
    if (!stage.error) {
      try {
        stage.job->end();
      } catch (const std::exception& e) {
        stage.error = e.what();
      }
    }
    series[stage.index]->settle(stage.job, std::move(stage.error), options_);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].claim) series[i]->advance(slots[i].claim, options_);
  }
  // As parallel_for would: the lowest index's exception, once every
  // other point has been fed.
  for (const Slot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }
}

IngestOutcome FleetEngine::ingest_raw(const std::string& id,
                                      std::vector<ts::RawPoint> points,
                                      std::int64_t interval_seconds,
                                      ts::RepairPolicy policy) {
  SeriesHandle series = find_series(id);
  // Injection and repair only touch the local point vector, so they run
  // outside every lock, before the series need exist; the salt is the
  // one a series of this id carries. repair_series flight-records dirty
  // streams with the series id in the detail, which is the per-series
  // attribution the chaos tests assert.
  ts::inject_ingest_faults(points, util::stable_id_hash(id));
  const ts::RepairResult repaired =
      ts::repair_series(id, std::move(points), interval_seconds, policy);
  if (series == nullptr) series = add_series(id);
  for (std::size_t i = 0; i < repaired.series.size(); ++i) {
    feed(series, repaired.series[i]);
  }
  FleetSeries& state = *series;
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
  // Rows [first, end) are both in this chunk and in the logical window;
  // the watermark moves only over rows the chunk actually wrote. Rows
  // below the stored floor count as written, but no retrain reads them.
  const std::size_t points = state.extractor_.points_seen();
  const std::size_t first =
      std::max(begin, window_base(points, options_.history_capacity));
  const std::size_t end = std::min(begin + labels.size(), points);
  if (first >= end) return;
  for (std::size_t global = std::max(first, state.history_.floor());
       global < end; ++global) {
    state.history_.set_label(global, labels[global - begin]);
  }
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
  out.trained = state.forest_ != nullptr;
  out.quarantined = state.quarantined_;
  out.repairs = state.repair_totals_;
  return out;
}

std::string FleetEngine::forest_fingerprint(
    const SeriesHandle& series) const {
  const FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  if (state.forest_ == nullptr) return "";
  std::ostringstream out;
  ml::save_forest(out, *state.forest_, state.extractor_.feature_names());
  return out.str();
}

std::vector<std::pair<std::string, double>> FleetEngine::feature_importances(
    const SeriesHandle& series) const {
  const FleetSeries& state = *series;
  util::MutexLock lock(state.mutex_);
  if (state.forest_ == nullptr) return {};
  const std::vector<std::string> names = state.extractor_.feature_names();
  const std::vector<double> importances =
      state.forest_->feature_importances();
  std::vector<std::pair<std::string, double>> out;
  out.reserve(names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    out.emplace_back(names[f], importances[f]);
  }
  return out;
}

}  // namespace opprentice::core
