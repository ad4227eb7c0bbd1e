// Test-only reference for one fleet series: FleetEngine's per-point
// pipeline (extraction, scoring, staggered retrains, the cThld EWMA)
// written plainly, sharing no code with core::FeatureHistory or the
// engine's predictor. The feature history is as it was before the
// exactly-sized store — one growing vector per feature column, cut by
// the 2x amortised trim when it reaches twice history_capacity — and
// every score the series emitted is kept in one vector by point index.
// Each retrain trains in one RandomForest::train call on its due point T
// and picks the week's best cThld from the emitted scores of the newest
// `interval` training rows; both are held and installed after point T +
// kForestInstallDelay, where the engine trains in stages.
// tests/fleet_engine_test.cpp checks the engine's verdicts, forests and
// stats against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "core/retrain_scheduler.hpp"
#include "detectors/feature_extractor.hpp"
#include "ml/random_forest.hpp"

namespace opprentice::core::reference {

class FleetSeriesReference {
 public:
  // The series `id` of a FleetEngine built with `options`.
  FleetSeriesReference(const FleetOptions& options, const std::string& id);

  FleetDetection feed(double value);
  void ingest_labels(std::span<const std::uint8_t> labels, std::size_t begin);
  void set_quarantined(bool quarantined) { quarantined_ = quarantined; }

  std::size_t phase() const { return phase_; }
  std::size_t max_warmup() const { return extractor_.max_warmup(); }
  // Global point index of the oldest buffered row.
  std::size_t base() const { return base_; }
  // The FleetSeriesStats fields the history decides.
  std::size_t points_seen() const { return extractor_.points_seen(); }
  std::size_t labeled_until() const { return labeled_until_; }
  std::size_t retrains() const { return retrains_; }
  std::size_t cthld_updates() const { return cthld_updates_; }
  bool trained() const { return forest_.has_value(); }
  // FleetEngine::forest_fingerprint's bytes.
  std::string forest_fingerprint() const;

 private:
  void append_row();
  void retrain();
  void install();

  FleetOptions options_;
  RetrainScheduler scheduler_;
  std::uint64_t salt_;
  std::size_t phase_;
  detectors::StreamingExtractor extractor_;
  std::vector<double> features_;
  // Rows [base_, base_ + labels_.size()), column-major, each value
  // rounded to f32 as the engine stores it; a label byte of 0xFF marks a
  // row no label chunk has covered.
  std::vector<std::vector<float>> columns_;
  std::vector<std::uint8_t> labels_;
  std::size_t base_ = 0;
  std::size_t labeled_until_ = 0;
  // The score emitted for every point fed, by point index (NaN when
  // unclassified).
  std::vector<double> emitted_;
  std::optional<ml::RandomForest> forest_;
  // The forest trained on the last due point, its week's best cThld if it
  // had one, and the point count after which both install.
  std::optional<ml::RandomForest> pending_;
  std::optional<double> pending_cthld_;
  std::size_t install_at_ = 0;
  // The EWMA of the weekly best cThlds, 0.5 until the first one.
  double cthld_ = 0.5;
  bool quarantined_ = false;
  std::size_t retrains_ = 0;
  std::size_t cthld_updates_ = 0;
  std::size_t consecutive_train_failures_ = 0;
};

}  // namespace opprentice::core::reference
