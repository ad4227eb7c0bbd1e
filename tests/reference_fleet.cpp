#include "reference_fleet.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>

#include "core/cthld.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "ml/serialize.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::core::reference {
namespace {

// A buffered row's label until ingest_labels covers it; retrains skip it.
constexpr std::uint8_t kUnlabeled = 0xFF;

// A severity as the engine stores it: f32, rounded to nearest, with a
// finite value beyond the float range saturated to its largest float.
float to_stored(double value) {
  constexpr double kMax = std::numeric_limits<float>::max();
  if (std::isfinite(value)) value = std::clamp(value, -kMax, kMax);
  return static_cast<float>(value);
}

std::vector<detectors::DetectorPtr> configurations(
    const FleetOptions& options) {
  return options.detector_factory
             ? options.detector_factory(options.ctx)
             : detectors::standard_configurations(options.ctx);
}

}  // namespace

FleetSeriesReference::FleetSeriesReference(const FleetOptions& options,
                                           const std::string& id)
    : options_(options),
      scheduler_(options.scheduler_seed, options.retrain_interval != 0
                                             ? options.retrain_interval
                                             : options.ctx.points_per_week),
      salt_(util::stable_id_hash(id)),
      phase_(scheduler_.phase(id)),
      extractor_(configurations(options),
                 detectors::FaultBoundary{.key_salt = salt_}),
      features_(extractor_.num_features()),
      columns_(extractor_.num_features()) {}

void FleetSeriesReference::append_row() {
  for (std::size_t f = 0; f < features_.size(); ++f) {
    columns_[f].push_back(to_stored(features_[f]));
  }
  labels_.push_back(kUnlabeled);
  const std::size_t capacity = options_.history_capacity;
  if (capacity > 0 && labels_.size() >= 2 * capacity) {
    const std::size_t drop = labels_.size() - capacity;
    for (auto& column : columns_) {
      column.erase(column.begin(),
                   column.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    labels_.erase(labels_.begin(),
                  labels_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
  }
}

FleetDetection FleetSeriesReference::feed(double value) {
  FleetDetection out;
  out.value = value;
  if (quarantined_) {
    out.score = std::numeric_limits<double>::quiet_NaN();
    out.cthld = out.score;
    return out;
  }
  extractor_.feed_into(value, features_);
  append_row();
  if (forest_.has_value() && extractor_.warmed_up()) {
    out.score = forest_->score(features_);
    out.cthld = cthld_;
    out.is_anomaly = out.score >= out.cthld;
    out.classified = true;
  } else {
    out.score = std::numeric_limits<double>::quiet_NaN();
  }
  emitted_.push_back(out.score);
  if (pending_.has_value() && extractor_.points_seen() == install_at_) {
    install();
  }
  if (scheduler_.due_at(phase_, extractor_.points_seen())) retrain();
  return out;
}

void FleetSeriesReference::retrain() {
  const std::size_t warmup = extractor_.max_warmup();
  const std::size_t begin_local = warmup > base_ ? warmup - base_ : 0;
  const std::size_t end_global =
      std::min(labeled_until_, base_ + labels_.size());
  if (end_global <= base_) return;
  const std::size_t end_local = end_global - base_;
  if (begin_local >= end_local) return;
  std::vector<std::vector<double>> columns(columns_.size());
  std::vector<std::uint8_t> labels;
  std::vector<std::size_t> points;  // each training row's point index
  for (std::size_t row = begin_local; row < end_local; ++row) {
    if (labels_[row] == kUnlabeled) continue;
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      columns[f].push_back(columns_[f][row]);
    }
    labels.push_back(labels_[row]);
    points.push_back(base_ + row);
  }
  const ml::Dataset train(extractor_.feature_names(), std::move(columns),
                          std::move(labels));
  if (train.positives() == 0) return;

  const std::uint64_t key = util::fault_key(salt_, extractor_.points_seen());
  try {
    if (util::inject_fault(util::faults::kForestTrain, key)) {
      throw util::InjectedFault("injected forest.train");
    }
    ml::RandomForest forest(options_.forest);
    forest.train(train);
    // The week's best cThld: picked over what the series emitted on the
    // newest `interval` training rows that it classified, if they hold a
    // positive label.
    std::vector<double> scores;
    std::vector<std::uint8_t> truth;
    const std::size_t rows = points.size();
    for (std::size_t i = rows - std::min(rows, scheduler_.interval());
         i < rows; ++i) {
      const double score = emitted_[points[i]];
      if (std::isnan(score)) continue;
      scores.push_back(score);
      truth.push_back(train.label(i));
    }
    pending_cthld_.reset();
    if (std::find(truth.begin(), truth.end(), 1) != truth.end()) {
      pending_cthld_ =
          eval::pick_threshold(eval::PrCurve(scores, truth),
                               eval::ThresholdMethod::kPcScore,
                               options_.preference)
              .cthld;
    }
    pending_ = std::move(forest);
    install_at_ = extractor_.points_seen() + kForestInstallDelay;
  } catch (const std::exception&) {
    ++consecutive_train_failures_;
    if (options_.quarantine_after > 0 &&
        consecutive_train_failures_ >= options_.quarantine_after) {
      quarantined_ = true;
    }
  }
}

void FleetSeriesReference::install() {
  forest_ = std::move(pending_);
  pending_.reset();
  ++retrains_;
  consecutive_train_failures_ = 0;
  if (pending_cthld_.has_value()) {
    cthld_ = cthld_updates_ == 0 ? *pending_cthld_
                                 : kCthldEwmaAlpha * *pending_cthld_ +
                                       (1.0 - kCthldEwmaAlpha) * cthld_;
    ++cthld_updates_;
  }
}

void FleetSeriesReference::ingest_labels(
    std::span<const std::uint8_t> labels, std::size_t begin) {
  const std::size_t first = std::max(begin, base_);
  const std::size_t end =
      std::min(begin + labels.size(), base_ + labels_.size());
  if (first >= end) return;
  for (std::size_t global = first; global < end; ++global) {
    labels_[global - base_] = labels[global - begin] != 0 ? 1 : 0;
  }
  labeled_until_ = std::max(labeled_until_, end);
}

std::string FleetSeriesReference::forest_fingerprint() const {
  if (!forest_.has_value()) return "";
  std::ostringstream out;
  ml::save_forest(out, *forest_, extractor_.feature_names());
  return out.str();
}

}  // namespace opprentice::core::reference
