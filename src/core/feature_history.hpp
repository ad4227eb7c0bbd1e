// A fleet series' stored feature history and its training-window policy
// (DESIGN.md §5i).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/retrain_scheduler.hpp"

namespace opprentice::core {

// How a series' feature history stores a severity: as f32, rounded to
// nearest. A finite value beyond ±FLT_MAX saturates to ±FLT_MAX instead
// of rounding to infinity; NaN stays NaN and ±inf stays ±inf. Retrains
// read the stored values widened back to f64, exactly.
inline float stored_severity(double value) {
  constexpr double kMax = std::numeric_limits<float>::max();
  if (std::isfinite(value)) value = std::clamp(value, -kMax, kMax);
  return static_cast<float>(value);
}

// A retrain's copy of its series' history: the training rows as stored,
// f32 and column-major in one block, one label per row, and the scores
// the series emitted on the newest of them, one per row of the last
// scores.size() rows (NaN where no forest classified it).
struct TrainingSet {
  std::vector<float> values;  // [feature * labels.size() + row]
  std::vector<std::uint8_t> labels;
  std::vector<double> scores;

  std::size_t rows() const { return labels.size(); }
  std::size_t features() const { return values.size() / rows(); }
};

// A series' stored feature history and the training-window policy over
// it: rows [floor, end) with their labels and emitted scores,
// column-major, `capacity` rows per column in one block
// of f32 (stored_severity), 4 B per feature and row, and one f64 score
// column beside it. A row's label byte is kUnlabeled until a label chunk
// covers it, and training skips such rows. Rows below the floor are
// never stored.
// The block is sized on construction for the series' retrains; only an
// unbounded history (W = 0), which starts empty, ever grows it. A sized
// block that fills up is a sizing bug, and throws in every build.
class FeatureHistory {
 public:
  static constexpr std::uint8_t kUnlabeled = 0xFF;

  // For a series of `features` columns, warmed up after `warmup` points
  // and retrained on `phase` of `scheduler`, whose retrains read at most
  // W = `window` rows (FleetOptions::history_capacity; 0 keeps all).
  FeatureHistory(std::size_t features, std::size_t warmup, std::size_t window,
                 const RetrainScheduler& scheduler, std::size_t phase)
      : features_(features),
        warmup_(warmup),
        window_(window),
        capacity_(history_rows(scheduler, phase, warmup, window)),
        floor_(train_floor(scheduler.next_due(phase, 0), warmup, window)),
        values_(std::make_unique_for_overwrite<float[]>(features *
                                                        capacity_)),
        labels_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity_)),
        scores_(std::make_unique_for_overwrite<double[]>(capacity_)) {}

  // The end of the rows some label chunk has written.
  std::size_t labeled_until() const { return labeled_until_; }

  // Stores point `row`, unlabeled, with the score the series emitted for
  // it, unless it lies below the floor. Rows arrive in order, so a stored
  // row is always floor + stored rows.
  void append(std::size_t row, std::span<const double> features,
              double score) {
    if (row < floor_) return;
    if (rows_ == capacity_) {
      if (window_ != 0) {
        throw std::logic_error("FeatureHistory: the sized store is full");
      }
      grow();
    }
    for (std::size_t f = 0; f < features_; ++f) {
      values_[f * capacity_ + rows_] = stored_severity(features[f]);
    }
    labels_[rows_] = kUnlabeled;
    scores_[rows_] = score;
    ++rows_;
  }

  // Labels the rows [first, end) of [begin, begin + labels.size()) that
  // lie in the logical window and in the first `points` points; any
  // nonzero label is anomalous. The watermark moves only over rows a chunk
  // wrote; rows below the stored floor count as written, but no retrain
  // reads them.
  void label(std::span<const std::uint8_t> labels, std::size_t begin,
             std::size_t points) {
    const std::size_t first = std::max(begin, window_base(points, window_));
    const std::size_t end = std::min(begin + labels.size(), points);
    if (first >= end) return;
    for (std::size_t row = std::max(first, floor_); row < end; ++row) {
      labels_[row - floor_] = labels[row - begin] != 0 ? 1 : 0;
    }
    labeled_until_ = std::max(labeled_until_, end);
  }

  // The training set of a retrain at point count `points`: the labeled
  // rows of the window past warm-up, with the emitted scores of the
  // newest min(rows, `recent`) of them. Rows are copied in runs of
  // labeled rows, so a window without label holes is one copy per
  // column. A window with no positive labels yields nothing — nothing to
  // learn is not a failure.
  std::optional<TrainingSet> training_set(std::size_t points,
                                          std::size_t recent) const {
    const std::size_t begin = train_floor(points, warmup_, window_);
    const std::size_t end = std::min(labeled_until_, points);
    if (begin >= end) return std::nullopt;
    if (begin < floor_) {
      throw std::logic_error(
          "FeatureHistory: training window starts below the stored history");
    }
    // The labeled stored rows, as runs [first, last).
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    std::size_t rows = 0;
    std::size_t positives = 0;
    for (std::size_t row = begin - floor_; row < end - floor_;) {
      if (labels_[row] == kUnlabeled) {
        ++row;
        continue;
      }
      const std::size_t first = row;
      for (; row < end - floor_ && labels_[row] != kUnlabeled; ++row) {
        positives += labels_[row];
      }
      runs.emplace_back(first, row);
      rows += row - first;
    }
    if (positives == 0) return std::nullopt;
    TrainingSet set;
    set.values.reserve(features_ * rows);
    for (std::size_t f = 0; f < features_; ++f) {
      const float* column = values_.get() + f * capacity_;
      for (const auto& [first, last] : runs) {
        set.values.insert(set.values.end(), column + first, column + last);
      }
    }
    set.labels.reserve(rows);
    set.scores.reserve(std::min(rows, recent));
    // Copied rows [skip, rows) are the newest `recent`.
    const std::size_t skip = rows - std::min(rows, recent);
    std::size_t copied = 0;
    for (const auto& [first, last] : runs) {
      set.labels.insert(set.labels.end(), labels_.get() + first,
                        labels_.get() + last);
      for (std::size_t row = first; row < last; ++row, ++copied) {
        if (copied >= skip) set.scores.push_back(scores_[row]);
      }
    }
    return set;
  }

  // Once a retrain has taken its rows: drops the rows below the floor of
  // the next one, due at point count `next_due`, moving the rest to the
  // front of each column.
  void drop_before(std::size_t next_due) {
    const std::size_t floor = train_floor(next_due, warmup_, window_);
    if (floor <= floor_) return;
    const std::size_t drop = std::min(floor - floor_, rows_);
    const std::size_t keep = rows_ - drop;
    for (std::size_t f = 0; f < features_; ++f) {
      float* column = values_.get() + f * capacity_;
      std::copy(column + drop, column + rows_, column);
    }
    std::copy(labels_.get() + drop, labels_.get() + rows_, labels_.get());
    std::copy(scores_.get() + drop, scores_.get() + rows_, scores_.get());
    rows_ = keep;
    floor_ = floor;
  }

 private:
  // First row of the logical training window at point count t, for a
  // history bound of `capacity` (W) rows: (t / W - 1) * W once t reaches
  // 2W, so the window always spans [W, 2W) rows. 0 bounds nothing.
  static std::size_t window_base(std::size_t t, std::size_t capacity) {
    return capacity > 0 && t >= 2 * capacity ? (t / capacity - 1) * capacity
                                             : 0;
  }

  // First row a retrain at point count t reads: past warm-up and inside
  // the logical window. Monotone in t, so once a retrain has copied its
  // rows, every row below the next retrain's floor is dead.
  static std::size_t train_floor(std::size_t t, std::size_t warmup,
                                 std::size_t capacity) {
    return std::max(warmup, window_base(t, capacity));
  }

  // Rows the history must hold: the most rows any of its retrains reads,
  // t - train_floor(t) over the due points t. Once t >= 2W and the window
  // has passed warm-up this is W + t mod W, and t mod W repeats every W /
  // gcd(interval, W) due points, so the scan stops one such period into
  // that steady state. 0 for an unbounded history, which grows.
  static std::size_t history_rows(const RetrainScheduler& scheduler,
                                  std::size_t phase, std::size_t warmup,
                                  std::size_t capacity) {
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
    auto scores = std::make_unique_for_overwrite<double[]>(capacity);
    std::copy_n(scores_.get(), rows_, scores.get());
    values_ = std::move(values);
    labels_ = std::move(labels);
    scores_ = std::move(scores);
    capacity_ = capacity;
  }

  const std::size_t features_;
  const std::size_t warmup_;
  const std::size_t window_;  // W
  std::size_t capacity_;
  std::size_t floor_;  // global point index of stored row 0
  std::size_t rows_ = 0;
  std::unique_ptr<float[]> values_;  // [feature * capacity_ + row]
  std::unique_ptr<std::uint8_t[]> labels_;
  std::unique_ptr<double[]> scores_;  // as emitted, NaN if unclassified
  std::size_t labeled_until_ = 0;
};

}  // namespace opprentice::core
