#include "detectors/feature_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::detectors {
namespace {

// Streaming (per-point) family histograms. Exactly one observation per
// family per fed point, so every family's count matches
// `opprentice.extract.points` — a consistency contract every bench
// --json metrics snapshot shows.
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

// The failure path of guarded_severity: counts the failure and
// quarantines the configuration once `consecutive` reaches the limit.
double record_failure(const Detector& detector, std::size_t config_index,
                      const FaultBoundary& boundary, std::size_t& consecutive,
                      std::uint8_t& quarantined) {
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
  return kNeutralSeverity;
}

// One point (number `point` of the stream) through one configuration's
// fault boundary (DESIGN.md §5f). `consecutive` and `quarantined` are
// that configuration's private state: in batch extraction they live in
// the column's task, in streaming in the extractor — either way no other
// thread touches them, so the boundary adds no synchronization and
// decisions are bit-identical at any thread count. A quarantined
// configuration is no longer fed at all (a throwing detector's internal
// state is suspect after the failures that tripped quarantine). The
// injection key is computed only when a fault plan is armed.
double guarded_severity(Detector& detector, double value, std::size_t point,
                        std::size_t config_index, bool faults_active,
                        const FaultBoundary& boundary,
                        std::size_t& consecutive, std::uint8_t& quarantined) {
  if (quarantined != 0) return kNeutralSeverity;
  double severity = kNeutralSeverity;
  try {
    // Injected faults strike after the detector has seen the point, so a
    // period-indexed detector (seasonal slot, SVD phase, Holt-Winters
    // season) stays in step with the stream.
    severity = detector.feed(value);
    if (faults_active) {
      const std::uint64_t key =
          util::fault_key(config_index, point) ^ boundary.key_salt;
      if (util::inject_fault(util::faults::kDetectorThrow, key)) {
        throw util::InjectedFault("injected detector.throw");
      }
      if (util::inject_fault(util::faults::kDetectorNan, key)) {
        severity = std::numeric_limits<double>::quiet_NaN();
      }
    }
  } catch (const std::exception&) {
    boundary_counters().exceptions->add();
    return record_failure(detector, config_index, boundary, consecutive,
                          quarantined);
  }
  // Severities are >= 0 (Detector::feed): NaN, ±inf and negatives are
  // scrubbed, so none reaches a feature history or a forest.
  if (!(severity >= 0.0) || std::isinf(severity)) {
    boundary_counters().scrubbed->add();
    return record_failure(detector, config_index, boundary, consecutive,
                          quarantined);
  }
  consecutive = 0;
  return severity;
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
  // bit-identical at any thread count. Configurations that share state
  // form one task, fed point by point in bank order.
  std::vector<std::vector<std::size_t>> tasks;
  std::vector<const void*> task_states;
  for (std::size_t f = 0; f < detectors.size(); ++f) {
    const void* state = detectors[f]->shared_state();
    const auto shared =
        state == nullptr
            ? task_states.end()
            : std::find(task_states.begin(), task_states.end(), state);
    if (shared == task_states.end()) {
      tasks.push_back({f});
      task_states.push_back(state);
    } else {
      tasks[static_cast<std::size_t>(shared - task_states.begin())]
          .push_back(f);
    }
  }
  util::parallel_for(tasks.size(), [&](std::size_t t) {
    const std::vector<std::size_t>& members = tasks[t];
    for (const std::size_t f : members) {
      detectors[f]->reset();
      m.columns[f].assign(series.size(), 0.0);
    }
    // A task of one configuration is timed as one pass; the members of a
    // shared task point by point.
    const bool time_each = timed && members.size() > 1;
    std::vector<double> elapsed_us(members.size(), 0.0);
    std::vector<std::size_t> consecutive_failures(members.size(), 0);
    const auto feed = [&](std::size_t j, std::size_t i) {
      const std::size_t f = members[j];
      m.columns[f][i] = guarded_severity(
          *detectors[f], series[i], i, f, faults_active, boundary,
          consecutive_failures[j], m.quarantined[f]);
    };
    obs::Stopwatch pass;
    for (std::size_t i = 0; i < series.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (time_each) {
          obs::Stopwatch watch;
          feed(j, i);
          elapsed_us[j] += watch.elapsed_us();
        } else {
          feed(j, i);
        }
      }
    }
    if (!time_each) elapsed_us[0] = pass.elapsed_us();
    for (std::size_t j = 0; j < members.size(); ++j) {
      const auto& detector = detectors[members[j]];
      if (timed && series.size() > 0) {
        // One observation per configuration pass, normalized to µs/point.
        // Recorded under extract.batch.* (not the streaming family
        // histograms) so per-point counts stay consistent with
        // opprentice.extract.points.
        batch_family_histogram(family_of(detector->name()))
            .record(elapsed_us[j] / static_cast<double>(series.size()));
      }
      // Zero out this detector's own warm-up region so warm-up artifacts
      // cannot leak into training even when other detectors are ready.
      std::vector<double>& column = m.columns[members[j]];
      const std::size_t warm =
          std::min(detector->warmup_points(), series.size());
      std::fill(column.begin(),
                column.begin() + static_cast<std::ptrdiff_t>(warm), 0.0);
    }
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
  for (std::size_t f = 0; f < detectors_.size(); ++f) {
    max_warmup_ = std::max(max_warmup_, detectors_[f]->warmup_points());
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
  return guarded_severity(*detectors_[f], value, points_seen_, f,
                          faults_active_, boundary_, consecutive_failures_[f],
                          quarantined_[f]);
}

std::vector<double> StreamingExtractor::feed(double value) {
  std::vector<double> features(detectors_.size());
  feed_into(value, features);
  return features;
}

void StreamingExtractor::feed_into(double value, std::span<double> features) {
  // Past every warm-up no severity is masked.
  const bool warm = points_seen_ >= max_warmup_;
  const auto masked = [&](std::size_t f, double severity) {
    return warm || points_seen_ >= detectors_[f]->warmup_points() ? severity
                                                                  : 0.0;
  };
  if (obs::detailed_timing_enabled()) {
    // §5.8's extraction budget per detector family: one stopwatch per
    // family range and one for the whole feed, 15 clock pairs a point
    // over the standard bank.
    obs::Stopwatch total;
    for (const auto& fam : families_) {
      obs::Stopwatch watch;
      for (std::size_t f = fam.begin; f < fam.end; ++f) {
        features[f] = masked(f, guarded_feed(f, value));
      }
      fam.histogram->record(watch.elapsed_us());
    }
    feed_histogram_->record(total.elapsed_us());
  } else {
    for (std::size_t f = 0; f < detectors_.size(); ++f) {
      features[f] = masked(f, guarded_feed(f, value));
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
