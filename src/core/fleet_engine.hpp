// Fleet engine: one process, tens of thousands of KPI streams
// (DESIGN.md §5i).
//
// The paper's pipeline detects anomalies on one KPI; operators watch
// fleets. This engine multiplexes the whole per-series pipeline —
// StreamingExtractor, random forest, cThld history, quarantine flags —
// over any number of series, keyed by series id in one sorted map under
// one mutex, with retrains staggered by a deterministic per-series phase
// (retrain_scheduler.hpp) so training load spreads across week
// boundaries instead of spiking. The map is touched only to resolve an id
// to its handle; feeds take handles and never lock it.
//
// Determinism contract: every output — scores, trained forests, flight
// events, repair counts — is a pure function of (series ids, input
// values, fault plan, options). Each series' state is touched under its
// own mutex and its fault keys are salted with util::stable_id_hash(id),
// so runs are bit-identical at any thread count and no series can
// perturb another's bytes; the fleet sweep in parallel_equivalence_test
// asserts exactly this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/retrain_scheduler.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "eval/metrics.hpp"
#include "ml/random_forest.hpp"
#include "timeseries/repair.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::core {

// Builds a series' detector set. The default (nullptr factory) is the
// paper's standard 133 configurations (`opprentice_cli serve` runs it). A
// factory plugs in any other set: the standard families plus custom ones
// (§4.3.2, examples/custom_detector.cpp), or a short-window set for
// benches and tests that must train within a few hundred points, where
// the full bank is still warming up.
using DetectorFactory = std::function<std::vector<detectors::DetectorPtr>(
    const detectors::SeriesContext&)>;

// Points from a retrain's due point T to the point after which its forest
// is installed: the forest scores from point T + 7 on, and its training
// runs in stages on points T to T + 6 (DESIGN.md §5i). One hour at
// 10-minute bins.
inline constexpr std::size_t kForestInstallDelay = 6;

struct FleetOptions {
  std::uint64_t scheduler_seed = 0x0FF1CE;
  // Points between retrains of one series; 0 means one week of points
  // (ctx.points_per_week). Must exceed kForestInstallDelay.
  std::size_t retrain_interval = 0;
  // W, the bound on the rows a retrain trains on: at point count T it
  // reads the logical window from base(T) = (T / W - 1) * W (0 while
  // T < 2W), so a window spans [W, 2W) rows. 0 keeps everything
  // (single-series semantics). The series stores only the rows its next
  // retrain will read, past warm-up, in one store sized when the series
  // is added (DESIGN.md §5i).
  std::size_t history_capacity = 0;
  // Consecutive retrain failures before the series is quarantined.
  std::size_t quarantine_after = 3;
  detectors::SeriesContext ctx{1440, 10080};
  ml::ForestOptions forest;
  eval::AccuracyPreference preference{0.66, 0.66};
  DetectorFactory detector_factory;  // nullptr -> standard_configurations
};

// One point's verdict for one series.
struct FleetDetection {
  double value = 0.0;
  double score = 0.0;
  double cthld = 0.5;
  bool is_anomaly = false;
  // False while the series has no trained forest, is still warming up,
  // or is quarantined — callers must not treat score as meaningful then.
  bool classified = false;
};

// Per-series bookkeeping snapshot (stats()).
struct FleetSeriesStats {
  std::string id;
  std::size_t phase = 0;
  std::size_t points_seen = 0;
  std::size_t labeled_until = 0;
  std::size_t retrains = 0;
  std::size_t train_failures = 0;
  bool trained = false;
  bool quarantined = false;
  ts::RepairReport repairs;  // accumulated over every ingest_raw call
};

// What one ingest_raw call did: this chunk's repair report plus the
// number of repaired points actually fed through the pipeline — the
// exact per-series attribution the network ingestion server (src/net)
// accounts against its wire counters.
struct IngestOutcome {
  ts::RepairReport repairs;
  std::size_t points_fed = 0;
};

class FleetSeries;  // opaque; all access goes through the engine
using SeriesHandle = std::shared_ptr<FleetSeries>;

class FleetEngine {
 public:
  // Throws std::invalid_argument when the retrain interval does not
  // exceed kForestInstallDelay.
  explicit FleetEngine(FleetOptions options);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  const FleetOptions& options() const { return options_; }
  const RetrainScheduler& scheduler() const { return scheduler_; }

  // Returns the series, creating its streaming state on first sight
  // (idempotent; the state is built under the map lock, so concurrent
  // callers get the same state and it is constructed once).
  SeriesHandle add_series(const std::string& id);
  SeriesHandle find_series(std::string_view id) const;  // nullptr if absent
  std::size_t series_count() const;
  std::vector<std::string> series_ids() const;  // sorted

  // Feeds one point to one series: extraction, scoring against the
  // current forest and predicted cThld, then the stage of a pending
  // retrain that falls on this point, its units fanned over the global
  // thread pool. A retrain comes due on the series' staggered phase,
  // copies its labeled history there (point T), and installs its forest
  // after point T + kForestInstallDelay.
  FleetDetection feed(const SeriesHandle& series, double value);

  // One synchronized fleet tick: values[i] goes to series[i], verdicts
  // land in out[i]; handles must be distinct, and the three spans of one
  // length (std::invalid_argument before any point is fed). One dispatch
  // over the global thread pool runs the points next to the units of the
  // retrain stages that fall on them; a retrain that comes due on this
  // tick then runs its first stage, and a forest whose install point
  // this is installs, in index order from the calling thread. The caller
  // must hold no util::Mutex (parallel_for aborts under one). Verdicts,
  // forests and flight events equal a serial feed() loop's, bit for bit,
  // at any thread count.
  void feed_tick(std::span<const SeriesHandle> series,
                 std::span<const double> values,
                 std::span<FleetDetection> out);

  // Raw dirty stream for the series named `id`: ingest fault injection
  // (salted per series), repair_series under `policy`, then every
  // repaired value is fed. The series is created, as by add_series, only
  // once repair accepts the chunk, so a chunk repair refuses throws
  // before any series exists; an existing series costs one map lookup.
  // Returns this call's repair report and fed-point count; the running
  // per-series repair total is in stats().repairs.
  IngestOutcome ingest_raw(const std::string& id,
                           std::vector<ts::RawPoint> points,
                           std::int64_t interval_seconds,
                           ts::RepairPolicy policy);

  // Operator labels for rows [begin, begin + labels.size()) in global
  // point indices; any nonzero label is anomalous. Rows before the
  // logical window (history_capacity) and rows not fed yet are ignored.
  // stats().labeled_until advances to the end of the rows the call
  // wrote, and stays put when it wrote none. Retrains read only rows some
  // call has labeled: a row between two chunks is not trained as normal.
  void ingest_labels(const SeriesHandle& series,
                     std::span<const std::uint8_t> labels, std::size_t begin);

  // Manual quarantine: a quarantined series consumes no points and
  // classifies nothing until released.
  void set_quarantined(const SeriesHandle& series, bool quarantined);

  FleetSeriesStats stats(const SeriesHandle& series) const;

  // The serialized trained forest (ml/serialize.hpp text format), or ""
  // when untrained — the byte string the determinism sweep compares.
  std::string forest_fingerprint(const SeriesHandle& series) const;

  // Which configurations the current forest relies on: its normalised
  // feature importances (summing to 1), each paired with its
  // configuration's name, in extractor order. Empty while untrained.
  std::vector<std::pair<std::string, double>> feature_importances(
      const SeriesHandle& series) const;

 private:
  FleetOptions options_;
  RetrainScheduler scheduler_;
  // Series with a retrain between its due point and its install; feed_tick
  // looks for stages to run only while this is nonzero.
  std::atomic<std::size_t> pending_retrains_{0};
  mutable util::Mutex series_mutex_{util::LockLevel::series_map};
  std::map<std::string, SeriesHandle, std::less<>> series_
      OPPRENTICE_GUARDED_BY(series_mutex_);
};

}  // namespace opprentice::core
