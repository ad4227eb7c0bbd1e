#include "core/fleet_engine.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fleet_series.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::core {

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
  auto series = std::make_shared<FleetSeries>(id, options_, scheduler_,
                                              pending_retrains_);
  series_.emplace(id, series);
  return series;
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
  std::vector<std::optional<std::string>> unit_errors(units);
  util::parallel_for(
      units + (n + points_per_task - 1) / points_per_task,
      [&](std::size_t k) {
        if (k < units) {
          Stage* stage = stages.data();
          while (k >= stage->first_unit + stage->units) ++stage;
          try {
            stage->job->run_unit(k - stage->first_unit);
          } catch (const std::exception& e) {
            unit_errors[k] = e.what();
          } catch (...) {
            unit_errors[k] = "unknown exception";
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
      stage.error = std::move(unit_errors[stage.first_unit + u]);
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
  series->add_repairs(repaired.report);
  return IngestOutcome{repaired.report, repaired.series.size()};
}

void FleetEngine::ingest_labels(const SeriesHandle& series,
                                std::span<const std::uint8_t> labels,
                                std::size_t begin) {
  series->ingest_labels(labels, begin);
}

void FleetEngine::set_quarantined(const SeriesHandle& series,
                                  bool quarantined) {
  series->set_quarantined(quarantined);
}

FleetSeriesStats FleetEngine::stats(const SeriesHandle& series) const {
  return series->stats();
}

std::string FleetEngine::forest_fingerprint(
    const SeriesHandle& series) const {
  return series->forest_fingerprint();
}

std::vector<std::pair<std::string, double>> FleetEngine::feature_importances(
    const SeriesHandle& series) const {
  return series->feature_importances();
}

}  // namespace opprentice::core
