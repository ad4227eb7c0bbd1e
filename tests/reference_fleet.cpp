#include "reference_fleet.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>

#include "core/feature_history.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "ml/serialize.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::core::reference {
namespace {

// A buffered row's label until ingest_labels covers it; retrains skip it.
constexpr std::uint8_t kUnlabeled = 0xFF;

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
      columns_(extractor_.num_features()),
      cthld_(kCthldEwmaAlpha) {}

void FleetSeriesReference::append_row() {
  for (std::size_t f = 0; f < features_.size(); ++f) {
    columns_[f].push_back(stored_severity(features_[f]));
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
    out.cthld = cthld_.initialized() ? cthld_.predict() : 0.5;
    out.is_anomaly = out.score >= out.cthld;
    out.classified = true;
  } else {
    out.score = std::numeric_limits<double>::quiet_NaN();
  }
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
  for (std::size_t row = begin_local; row < end_local; ++row) {
    if (labels_[row] == kUnlabeled) continue;
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      columns[f].push_back(columns_[f][row]);
    }
    labels.push_back(labels_[row]);
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
    const std::size_t rows = train.num_rows();
    const std::size_t window = std::min(rows, scheduler_.interval());
    const ml::Dataset recent = train.slice(rows - window, rows);
    // Scored by the live forest, which has not trained on the window; the
    // first retrain has none and scores it with the new one.
    const ml::RandomForest& scorer = forest_.has_value() ? *forest_ : forest;
    const eval::PrCurve curve(scorer.score_all(recent), recent.labels());
    pending_cthld_ = eval::pick_threshold(curve, eval::ThresholdMethod::kPcScore,
                                          options_.preference)
                         .cthld;
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
  if (cthld_.initialized()) {
    cthld_.observe_best(pending_cthld_);
  } else {
    cthld_.initialize(pending_cthld_);
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
