// Feature extraction: runs every detector configuration over a series and
// assembles the per-point severity matrix the classifier consumes (§4.3.1:
// "a configuration acts as a feature extractor").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/registry.hpp"
#include "obs/cost_attribution.hpp"
#include "obs/metrics.hpp"
#include "timeseries/time_series.hpp"

namespace opprentice::detectors {

// Family of a configuration name: the prefix before the parameter list,
// e.g. "ewma(alpha=0.3)" -> "ewma". Names without parameters are their
// own family.
std::string family_of(std::string_view configuration_name);

// Fault boundary around every detector configuration (DESIGN.md §5f).
// A configuration that throws or returns a non-finite severity degrades
// to `neutral` for that point; after `quarantine_after` *consecutive*
// failures the configuration is quarantined — its column stays neutral
// for the rest of the run and `opprentice.detector.quarantined` is
// incremented — while the remaining live columns keep extracting.
// Failure accounting is per-column state touched only by that column's
// task, so quarantine decisions are bit-identical at any thread count.
struct FaultBoundary {
  std::size_t quarantine_after = 3;
  double neutral = 0.0;
  // XORed into every injection key (and quarantine flight-event key) so
  // multi-tenant deployments give each series its own fault stream: the
  // fleet engine sets this to util::stable_id_hash(series_id). Zero (the
  // default) leaves single-series keys exactly as before.
  std::uint64_t key_salt = 0;
};

// Column-major severity matrix: columns[f][i] is the severity of point i
// under configuration f.
struct FeatureMatrix {
  std::vector<std::string> feature_names;
  std::vector<std::vector<double>> columns;
  std::size_t num_rows = 0;

  // Points before this index are inside some detector's warm-up window
  // and must be skipped during training and accuracy accounting.
  std::size_t max_warmup = 0;

  // quarantined[f] != 0 when configuration f was quarantined by the
  // fault boundary during extraction.
  std::vector<std::uint8_t> quarantined;

  std::size_t num_features() const { return columns.size(); }
  std::size_t num_quarantined() const;

  // One point's feature vector (row i across all columns).
  std::vector<double> row(std::size_t i) const;
};

// Runs each detector over the full series (detectors are reset first).
// Columns are computed in parallel on the global thread pool (one task
// per configuration) and are bit-identical at any thread count.
FeatureMatrix extract_features(const ts::TimeSeries& series,
                               const std::vector<DetectorPtr>& detectors,
                               const FaultBoundary& boundary = {});

// Convenience: extract with the standard 133 configurations.
FeatureMatrix extract_standard_features(const ts::TimeSeries& series);

// Streaming extraction for online detection: owns the detectors and turns
// one incoming point into one feature vector.
class StreamingExtractor {
 public:
  explicit StreamingExtractor(std::vector<DetectorPtr> detectors,
                              const FaultBoundary& boundary = {});

  std::size_t num_features() const { return detectors_.size(); }
  std::vector<std::string> feature_names() const;
  std::size_t max_warmup() const { return max_warmup_; }

  // quarantined()[f] != 0 when configuration f has been quarantined by
  // the fault boundary; cleared by reset().
  const std::vector<std::uint8_t>& quarantined() const {
    return quarantined_;
  }

  // Number of points consumed so far.
  std::size_t points_seen() const { return points_seen_; }

  // True once every detector is past its warm-up window.
  bool warmed_up() const { return points_seen_ >= max_warmup_; }

  // Feeds one point to every detector; returns the feature vector.
  std::vector<double> feed(double value);

  // The allocation-free form of feed(): writes the feature vector into
  // `features`, which must hold num_features() values.
  void feed_into(double value, std::span<double> features);

  void reset();

 private:
  // Contiguous run of configurations belonging to one detector family,
  // with the latency histogram ("opprentice.extract.family.<name>.us",
  // observations are µs per point) it reports into when detailed timing
  // is enabled (obs::detailed_timing_enabled()). Every family records
  // exactly one observation per fed point, so the family counts stay
  // consistent with the opprentice.extract.points counter.
  struct FamilyRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    obs::Histogram* histogram = nullptr;
  };

  // Feeds one point to configuration f behind the fault boundary.
  double guarded_feed(std::size_t f, double value);

  std::vector<DetectorPtr> detectors_;
  std::vector<FamilyRange> families_;
  // Per-configuration cost slots (cost_attribution.hpp), looked up once
  // at construction; fed per point when detailed timing is enabled.
  std::vector<obs::CostSlot*> cost_slots_;
  FaultBoundary boundary_;
  // Consecutive-failure count per configuration; quarantine trips when it
  // reaches boundary_.quarantine_after.
  std::vector<std::size_t> consecutive_failures_;
  std::vector<std::uint8_t> quarantined_;
  bool faults_active_ = false;
  obs::Counter* points_counter_ = nullptr;
  obs::Histogram* feed_histogram_ = nullptr;
  std::size_t max_warmup_ = 0;
  std::size_t points_seen_ = 0;
};

}  // namespace opprentice::detectors
