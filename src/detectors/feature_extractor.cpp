#include "detectors/feature_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/cost_attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::detectors {
namespace {

// Streaming (per-point) family histograms. Exactly one observation per
// family per fed point, so every family's count matches
// `opprentice.extract.points` — the consistency contract the bench
// snapshot (BENCH_sec58.json) documents.
obs::Histogram& family_histogram(std::string_view family) {
  std::string name = "opprentice.extract.family.";
  name += family;
  name += ".us";
  return obs::histogram(name);
}

// Batch extraction records per-pass µs/point into its own namespace so it
// cannot skew the streaming per-point counts above.
obs::Histogram& batch_family_histogram(std::string_view family) {
  std::string name = "opprentice.extract.batch.family.";
  name += family;
  name += ".us_per_point";
  return obs::histogram(name);
}

// Fault-boundary instruments, looked up once (registration takes a
// mutex; updates are relaxed atomics on the extraction hot path).
struct BoundaryCounters {
  obs::Counter* exceptions;
  obs::Counter* scrubbed;
  obs::Counter* quarantined;
};

const BoundaryCounters& boundary_counters() {
  static const BoundaryCounters counters{
      &obs::counter("opprentice.detector.exceptions"),
      &obs::counter("opprentice.detector.scrubbed"),
      &obs::counter("opprentice.detector.quarantined")};
  return counters;
}

// One point through one configuration's fault boundary (DESIGN.md §5f).
// `consecutive` and `quarantined` are that configuration's private state:
// in batch extraction they live in the column's task, in streaming in the
// extractor — either way no other thread touches them, so the boundary
// adds no synchronization and decisions are bit-identical at any thread
// count. A quarantined configuration is no longer fed at all (a throwing
// detector's internal state is suspect after the failures that tripped
// quarantine).
double guarded_severity(Detector& detector, double value, std::uint64_t key,
                        std::size_t config_index, bool faults_active,
                        const FaultBoundary& boundary,
                        std::size_t& consecutive, std::uint8_t& quarantined) {
  if (quarantined != 0) return boundary.neutral;
  bool failed = false;
  double severity = boundary.neutral;
  try {
    if (faults_active &&
        util::inject_fault(util::faults::kDetectorThrow, key)) {
      throw util::InjectedFault("injected detector.throw");
    }
    severity = detector.feed(value);
    if (faults_active &&
        util::inject_fault(util::faults::kDetectorNan, key)) {
      severity = std::numeric_limits<double>::quiet_NaN();
    }
  } catch (const std::exception&) {
    boundary_counters().exceptions->add();
    failed = true;
  }
  if (!failed && !std::isfinite(severity)) {
    boundary_counters().scrubbed->add();
    failed = true;
  }
  if (!failed) {
    consecutive = 0;
    return severity;
  }
  ++consecutive;
  if (boundary.quarantine_after > 0 &&
      consecutive >= boundary.quarantine_after && quarantined == 0) {
    quarantined = 1;
    boundary_counters().quarantined->add();
    const std::string configuration = detector.name();
    obs::log(obs::LogLevel::kWarn, "detector", "quarantine",
             {{"configuration", configuration},
              {"consecutive_failures", consecutive}});
    // The quarantine decision is a pure function of the column's fault
    // stream, so this event is deterministic at any thread count
    // (flight_recorder.hpp).
    obs::flight_record("detector", "quarantine",
                       config_index ^ boundary.key_salt,
                       "configuration=" + configuration);
  }
  return boundary.neutral;
}

}  // namespace

std::string family_of(std::string_view configuration_name) {
  const std::size_t paren = configuration_name.find('(');
  return std::string(configuration_name.substr(
      0, paren == std::string_view::npos ? configuration_name.size()
                                         : paren));
}

std::vector<double> FeatureMatrix::row(std::size_t i) const {
  std::vector<double> out(columns.size());
  for (std::size_t f = 0; f < columns.size(); ++f) out[f] = columns[f][i];
  return out;
}

std::size_t FeatureMatrix::num_quarantined() const {
  std::size_t n = 0;
  for (const std::uint8_t q : quarantined) n += q != 0 ? 1 : 0;
  return n;
}

FeatureMatrix extract_features(const ts::TimeSeries& series,
                               const std::vector<DetectorPtr>& detectors,
                               const FaultBoundary& boundary) {
  obs::ScopedSpan span("extract.batch", "extract");
  span.arg("points", series.size());
  span.arg("configurations", detectors.size());
  const bool timed = obs::detailed_timing_enabled();
  const bool faults_active = util::faults_enabled();

  FeatureMatrix m;
  m.num_rows = series.size();
  m.feature_names.reserve(detectors.size());
  m.columns.resize(detectors.size());
  m.quarantined.assign(detectors.size(), 0);
  for (const auto& detector : detectors) {
    m.feature_names.push_back(detector->name());
    m.max_warmup = std::max(m.max_warmup, detector->warmup_points());
  }

  // Each configuration is an independent column: the detector instance,
  // the severity sequence, the fault-boundary state, and the output slot
  // belong to one task only, so the columns and quarantine decisions are
  // bit-identical at any thread count.
  util::parallel_for(detectors.size(), [&](std::size_t f) {
    const auto& detector = detectors[f];
    detector->reset();
    obs::Stopwatch watch;
    std::vector<double> column(series.size(), 0.0);
    std::size_t consecutive_failures = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
      column[i] = guarded_severity(*detector, series[i],
                                   util::fault_key(f, i) ^ boundary.key_salt,
                                   f, faults_active, boundary,
                                   consecutive_failures, m.quarantined[f]);
    }
    if (timed && series.size() > 0) {
      // One observation per configuration pass, normalized to µs/point.
      // Recorded under extract.batch.* (not the streaming family
      // histograms) so per-point counts stay consistent with
      // opprentice.extract.points, plus the per-configuration slot that
      // feeds the cost-attribution table.
      const double elapsed = watch.elapsed_us();
      batch_family_histogram(family_of(detector->name()))
          .record(elapsed / static_cast<double>(series.size()));
      obs::CostAttribution::instance()
          .slot(detector->name())
          .record_pass(elapsed, series.size());
    }
    // Zero out this detector's own warm-up region so warm-up artifacts
    // cannot leak into training even when other detectors are ready.
    const std::size_t warm = std::min(detector->warmup_points(), series.size());
    std::fill(column.begin(),
              column.begin() + static_cast<std::ptrdiff_t>(warm), 0.0);
    m.columns[f] = std::move(column);
  });
  return m;
}

FeatureMatrix extract_standard_features(const ts::TimeSeries& series) {
  const SeriesContext ctx{series.points_per_day(), series.points_per_week()};
  return extract_features(series, standard_configurations(ctx));
}

StreamingExtractor::StreamingExtractor(std::vector<DetectorPtr> detectors,
                                       const FaultBoundary& boundary)
    : detectors_(std::move(detectors)),
      boundary_(boundary),
      consecutive_failures_(detectors_.size(), 0),
      quarantined_(detectors_.size(), 0),
      // Sampled here and at reset(): install fault plans before
      // constructing the extractor (CLI mains and test setup do).
      faults_active_(util::faults_enabled()) {
  points_counter_ = &obs::counter("opprentice.extract.points");
  feed_histogram_ = &obs::histogram("opprentice.extract.feed.us");
  cost_slots_.reserve(detectors_.size());
  for (std::size_t f = 0; f < detectors_.size(); ++f) {
    max_warmup_ = std::max(max_warmup_, detectors_[f]->warmup_points());
    cost_slots_.push_back(
        &obs::CostAttribution::instance().slot(detectors_[f]->name()));
    const std::string family = family_of(detectors_[f]->name());
    if (families_.empty() ||
        family != family_of(detectors_[families_.back().begin]->name())) {
      families_.push_back({f, f + 1, &family_histogram(family)});
    } else {
      families_.back().end = f + 1;
    }
  }
}

std::vector<std::string> StreamingExtractor::feature_names() const {
  std::vector<std::string> names;
  names.reserve(detectors_.size());
  for (const auto& d : detectors_) names.push_back(d->name());
  return names;
}

double StreamingExtractor::guarded_feed(std::size_t f, double value) {
  return guarded_severity(
      *detectors_[f], value,
      util::fault_key(f, points_seen_) ^ boundary_.key_salt, f,
      faults_active_, boundary_, consecutive_failures_[f], quarantined_[f]);
}

std::vector<double> StreamingExtractor::feed(double value) {
  std::vector<double> features(detectors_.size());
  feed_into(value, features);
  return features;
}

void StreamingExtractor::feed_into(double value, std::span<double> features) {
  if (obs::detailed_timing_enabled()) {
    // Per-family µs/point plus the per-configuration attribution slots:
    // §5.8's extraction budget broken down by where it actually goes,
    // sharp enough to name the individual configurations worth attacking
    // (ROADMAP item 2). Each configuration is timed individually; the
    // family observation is the sum of its members so both levels stay
    // consistent.
    obs::Stopwatch total;
    for (const auto& fam : families_) {
      double family_us = 0.0;
      for (std::size_t f = fam.begin; f < fam.end; ++f) {
        obs::Stopwatch watch;
        const double severity = guarded_feed(f, value);
        const double config_us = watch.elapsed_us();
        cost_slots_[f]->record(config_us);
        family_us += config_us;
        features[f] =
            points_seen_ < detectors_[f]->warmup_points() ? 0.0 : severity;
      }
      fam.histogram->record(family_us);
    }
    feed_histogram_->record(total.elapsed_us());
  } else {
    for (std::size_t f = 0; f < detectors_.size(); ++f) {
      const double severity = guarded_feed(f, value);
      features[f] =
          points_seen_ < detectors_[f]->warmup_points() ? 0.0 : severity;
    }
  }
  points_counter_->add();
  ++points_seen_;
}

void StreamingExtractor::reset() {
  for (auto& d : detectors_) d->reset();
  std::fill(consecutive_failures_.begin(), consecutive_failures_.end(), 0);
  std::fill(quarantined_.begin(), quarantined_.end(), 0);
  faults_active_ = util::faults_enabled();
  points_seen_ = 0;
}

}  // namespace opprentice::detectors
