// One fleet series' streaming state and its staged retrain (DESIGN.md
// §5i).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cthld.hpp"
#include "core/feature_history.hpp"
#include "core/fleet_engine.hpp"
#include "eval/pr_curve.hpp"
#include "ml/serialize.hpp"
#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::core {

// A retrain from its due point T to its install after point T +
// kForestInstallDelay, run as one stage per point (DESIGN.md §5i):
//   0 (T)     the forest.train fault check, and the week's best cThld
//             picked from the scores the series emitted on the copy's
//             newest rows;
//   1 (T+1)   binning the copy's f32 columns and the bootstrap draw, then
//             the copy is freed;
//   2 .. 5    a quarter of the trees each;
//   6 (T+6)   the forest assembled.
// A stage is a serial begin(), independent units, then a serial end().
// The forest and the cThld are functions of the copy and the options
// alone, so which thread or tick runs a unit changes no bit.
// Any step may throw: the retrain has then failed.
class PendingRetrain {
 public:
  static constexpr std::size_t kStages = kForestInstallDelay + 1;

  // `options` are the engine's, which outlive every retrain it runs.
  PendingRetrain(TrainingSet copy, std::uint64_t key,
                 const FleetOptions& options)
      : copy_(std::move(copy)), key_(key), options_(options) {}

  std::uint64_t key() const { return key_; }
  bool done() const { return stage_ == kStages; }
  // After the last stage.
  const std::shared_ptr<const ml::RandomForest>& forest() const {
    return forest_;
  }
  // After stage 0: the week's best cThld, or nullopt when the picked rows
  // hold no finite score or no positive label.
  std::optional<double> best_cthld() const { return best_cthld_; }

  void begin() {
    if (stage_ == 0) {
      if (util::inject_fault(util::faults::kForestTrain, key_)) {
        throw util::InjectedFault("injected forest.train");
      }
      training_.emplace(options_.forest, copy_.labels, copy_.features());
      // As §4.5.2 does, the week's best cThld comes from the week's own
      // detection results: the scores its verdicts carried.
      const std::span<const std::uint8_t> labels(copy_.labels);
      const eval::PrCurve curve(copy_.scores,
                                labels.last(copy_.scores.size()));
      if (!curve.empty()) {
        best_cthld_ = eval::pick_threshold(curve,
                                           eval::ThresholdMethod::kPcScore,
                                           options_.preference)
                          .cthld;
      }
      copy_.scores = {};
    } else if (stage_ == kStages - 1) {
      forest_ = std::make_shared<const ml::RandomForest>(training_->assemble());
    }
  }

  std::size_t units() const {
    if (stage_ == 1) return training_->bin_units();
    if (stage_ > 1 && stage_ < kStages - 1) {
      const auto [first, last] = tree_range();
      return last - first;
    }
    return 0;
  }

  void run_unit(std::size_t unit) {
    if (stage_ == 1) {
      training_->bin(copy_.values, unit);
    } else {
      training_->grow(tree_range().first + unit);
    }
  }

  void end() {
    if (stage_ == 1) copy_ = {};
    ++stage_;
  }

 private:
  static constexpr std::size_t kTreeStages = kStages - 3;

  // The trees this tree stage grows, [first, last).
  std::pair<std::size_t, std::size_t> tree_range() const {
    const std::size_t trees = training_->tree_units();
    const std::size_t per_stage = (trees + kTreeStages - 1) / kTreeStages;
    const std::size_t first = std::min(trees, (stage_ - 2) * per_stage);
    return {first, std::min(trees, first + per_stage)};
  }

  TrainingSet copy_;  // taken at T; the rows are freed after binning
  const std::uint64_t key_;
  const FleetOptions& options_;
  std::size_t stage_ = 0;  // the next stage to run
  std::optional<ml::ForestTraining> training_;
  std::shared_ptr<const ml::RandomForest> forest_;
  std::optional<double> best_cthld_;
};

// Runs `job`'s next stage, its units over the global thread pool.
inline void run_stage(PendingRetrain& job) {
  job.begin();
  util::parallel_for(job.units(),
                     [&job](std::size_t unit) { job.run_unit(unit); });
  job.end();
}

// All per-series streaming state, guarded by one mutex per series and
// reached only through these methods: feed a point, ingest labels, add a
// repair report, set quarantine, and the claim/advance/settle protocol of
// a staged retrain. Every method requiring the lock is annotated, so the
// OPPRENTICE_THREAD_SAFETY build proves the discipline statically.
class FleetSeries {
 public:
  FleetSeries(std::string id, const FleetOptions& options,
              const RetrainScheduler& scheduler,
              std::atomic<std::size_t>& fleet_pending)
      : id_(std::move(id)),
        salt_(util::stable_id_hash(id_)),
        phase_(scheduler.phase(id_)),
        fleet_pending_(fleet_pending),
        extractor_(options.detector_factory
                       ? options.detector_factory(options.ctx)
                       : detectors::standard_configurations(options.ctx),
                   detectors::FaultBoundary{.key_salt = salt_}),
        features_(extractor_.num_features()),
        history_(extractor_.num_features(), extractor_.max_warmup(),
                 options.history_capacity, scheduler, phase_) {}

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
    // Fleet-level instruments are looked up once per process (registration
    // takes a mutex; updates are relaxed atomics).
    static obs::Counter& fed = obs::counter("opprentice.fleet.points");
    fed.add();

    if (forest_ != nullptr && extractor_.warmed_up()) {
      out.score = forest_->score(features_);
      out.cthld = cthld_.predict();
      out.is_anomaly = out.score >= out.cthld;
      out.classified = true;
    } else {
      out.score = kNaN;
    }
    // The row keeps the score it was given: a retrain picks its week's
    // best cThld from these.
    history_.append(extractor_.points_seen() - 1, features_, out.score);

    const std::size_t points = extractor_.points_seen();
    if (scheduler.due_at(phase_, points)) {
      // A retrain still pending here was held by a concurrent caller past
      // its install point; this due point then trains nothing.
      if (pending_ == nullptr) {
        if (std::optional<TrainingSet> copy =
                history_.training_set(points, scheduler.interval())) {
          pending_ = std::make_shared<PendingRetrain>(
              std::move(*copy), util::fault_key(salt_, points), options);
          install_at_ = points + kForestInstallDelay;
          fleet_pending_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // This retrain has its copy; the next one reads nothing below its
      // own floor.
      history_.drop_before(scheduler.next_due(phase_, points));
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

  void ingest_labels(std::span<const std::uint8_t> labels, std::size_t begin)
      OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    history_.label(labels, begin, extractor_.points_seen());
  }

  void add_repairs(const ts::RepairReport& report)
      OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    repair_totals_.out_of_order += report.out_of_order;
    repair_totals_.duplicates += report.duplicates;
    repair_totals_.gaps += report.gaps;
    repair_totals_.bad_values += report.bad_values;
    repair_totals_.misaligned += report.misaligned;
  }

  void set_quarantined(bool quarantined) OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (quarantined && !quarantined_) {
      static obs::Counter& count = obs::counter("opprentice.fleet.quarantined");
      count.add();
      obs::flight_record("fleet", "quarantine", salt_, "series=" + id_);
    }
    quarantined_ = quarantined;
  }

  FleetSeriesStats stats() const OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    FleetSeriesStats out;
    out.id = id_;
    out.phase = phase_;
    out.points_seen = extractor_.points_seen();
    out.labeled_until = history_.labeled_until();
    out.retrains = retrains_;
    out.cthld_updates = cthld_updates_;
    out.train_failures = train_failures_;
    out.trained = forest_ != nullptr;
    out.quarantined = quarantined_;
    out.repairs = repair_totals_;
    return out;
  }

  std::string forest_fingerprint() const OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (forest_ == nullptr) return "";
    std::ostringstream out;
    ml::save_forest(out, *forest_, extractor_.feature_names());
    return out.str();
  }

  std::vector<std::pair<std::string, double>> feature_importances() const
      OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (forest_ == nullptr) return {};
    const std::vector<std::string> names = extractor_.feature_names();
    const std::vector<double> importances = forest_->feature_importances();
    std::vector<std::pair<std::string, double>> out;
    out.reserve(names.size());
    for (std::size_t f = 0; f < names.size(); ++f) {
      out.emplace_back(names[f], importances[f]);
    }
    return out;
  }

 private:
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  bool install_due() const OPPRENTICE_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return extractor_.points_seen() >= install_at_;
  }

  void install(const PendingRetrain& job) OPPRENTICE_REQUIRES(mutex_) {
    forest_ = job.forest();
    ++retrains_;
    consecutive_train_failures_ = 0;
    static obs::Counter& count = obs::counter("opprentice.fleet.retrains");
    count.add();
    // The best cThld feeds the EWMA predictor (§4.5.2), the per-series
    // cThld history; a week with none leaves it as it was.
    if (const std::optional<double> best = job.best_cthld()) {
      cthld_.observe_best(*best);
      ++cthld_updates_;
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
    static obs::Counter& count =
        obs::counter("opprentice.fleet.train_failures");
    count.add();
    obs::log(obs::LogLevel::kWarn, "fleet", "train_failed",
             {{"series", id_}, {"error", error}});
    obs::flight_record("fleet", "train_failed", key, "series=" + id_);
    if (options.quarantine_after > 0 &&
        consecutive_train_failures_ >= options.quarantine_after &&
        !quarantined_) {
      quarantined_ = true;
      static obs::Counter& quarantines =
          obs::counter("opprentice.fleet.quarantined");
      quarantines.add();
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
  // The installed forest, handed over by its retrain.
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
  std::size_t cthld_updates_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::size_t train_failures_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::size_t consecutive_train_failures_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  ts::RepairReport repair_totals_ OPPRENTICE_GUARDED_BY(mutex_);
};

}  // namespace opprentice::core
