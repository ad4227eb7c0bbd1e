// Quantile binning for histogram-based tree training.
//
// Tree split finding only needs the *order* of feature values, so we
// quantize each column to at most 255 quantile bins once per training run
// (LightGBM-style). Split search then costs O(rows + bins) per feature per
// node instead of O(rows log rows), which keeps fully-grown forests cheap
// to retrain every week.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace opprentice::ml {

inline constexpr std::size_t kMaxBins = 255;

// Per-feature quantile bin edges. A value v maps to the smallest bin b
// with v <= edges[b]; values above the last edge map to the last bin.
class FeatureBinner {
 public:
  // Builds edges from the column's value distribution.
  static FeatureBinner fit(std::span<const double> column,
                           std::size_t max_bins = kMaxBins);

  // Builds edges from the column's distinct non-NaN values, ascending;
  // fit() is this after sorting and deduplicating the column.
  static FeatureBinner from_distinct(std::span<const double> distinct,
                                     std::size_t max_bins = kMaxBins);

  std::uint8_t bin_of(double value) const;

  // Real-valued threshold separating bin <= code from bin > code; used to
  // translate a bin split back into a raw-value split for prediction.
  double upper_edge(std::uint8_t code) const;

  std::size_t num_bins() const { return edges_.size() + 1; }
  const std::vector<double>& edges() const { return edges_; }

 private:
  std::vector<double> edges_;  // ascending, distinct
};

// Each column's non-NaN rows of a dataset's row range, in ascending value
// order (ties in row order), as u32 indices of the dataset's rows. Built
// once per dataset, it lets every training window inside the range bin
// its columns without sorting them again (BinnedDataset::bin_column): an
// offline driver that trains many forests on nested or overlapping row
// ranges of one dataset sorts each column once. Columns are sorted in
// parallel on the global thread pool, each task writing only its own
// column. Costs 4 B per non-NaN value.
class ColumnOrder {
 public:
  // Sorts rows [begin, end) of every column of data. Throws
  // std::out_of_range on a bad range.
  ColumnOrder(const Dataset& data, std::size_t begin, std::size_t end);
  // Every row of data.
  explicit ColumnOrder(const Dataset& data);

  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }
  std::size_t num_features() const { return rows_.size(); }
  // Feature f's non-NaN rows in [begin, end), ascending by value.
  std::span<const std::uint32_t> rows(std::size_t feature) const {
    return rows_[feature];
  }

 private:
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::vector<std::vector<std::uint32_t>> rows_;  // [feature][rank]
};

// A dataset quantized for tree training. Keeps a reference-free copy of
// the labels and the code matrix.
//
// A column is binned from its non-NaN rows in ascending value order,
// either a ColumnOrder's or its own, sorted by an LSD radix sort of
// order-preserving 64-bit keys. A column may also come as f32: sorted on
// 32-bit keys, which order it as its exact f64 widening, and widened
// before any arithmetic or comparison, it bins as that widening does. A
// branchless pass keeps a ColumnOrder's rows inside the dataset's range;
// from there one binning tail serves every column: the distinct values
// give the same edges as FeatureBinner::fit, and one forward walk
// assigns every row its code, the number of edges below its value —
// exactly bin_of's lower_bound, with NaN in bin 0. Columns are binned in
// parallel on the global thread pool, each task writing only its own
// column, so the result is the same at any thread count.
class BinnedDataset {
 public:
  explicit BinnedDataset(const Dataset& data,
                         std::size_t max_bins = kMaxBins);

  // The labels and shape of data's rows [begin, end) with no column
  // binned yet: bin_column fills one column, so the columns can be binned
  // apart (the constructor above is this over every row, then bin_column
  // for every column in parallel). Copies only the range's labels; throws
  // std::out_of_range on a bad range.
  static BinnedDataset unbinned(const Dataset& data, std::size_t begin,
                                std::size_t end);
  // The same for a training set of labels.size() rows and `features`
  // columns held outside a Dataset.
  static BinnedDataset unbinned(std::span<const std::uint8_t> labels,
                                std::size_t features);

  // Bins feature f from `column`, the whole column of the dataset the
  // rows come from, sorting this dataset's rows of it. Touches only
  // feature f, so distinct columns may be binned concurrently.
  void bin_column(std::size_t f, std::span<const double> column,
                  std::size_t max_bins = kMaxBins);
  // The same from `sorted`, the column's non-NaN rows in ascending value
  // order (ColumnOrder::rows); rows outside this dataset's range are
  // skipped, so `sorted` must hold every non-NaN row inside it.
  void bin_column(std::size_t f, std::span<const double> column,
                  std::span<const std::uint32_t> sorted,
                  std::size_t max_bins = kMaxBins);
  // Bins feature f from an f32 `column`: the edges and codes of the
  // first overload on the column widened to f64, bit for bit.
  void bin_column(std::size_t f, std::span<const float> column,
                  std::size_t max_bins = kMaxBins);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return codes_.size(); }

  const std::vector<std::uint8_t>& codes(std::size_t feature) const {
    return codes_[feature];
  }
  std::uint8_t label(std::size_t row) const { return labels_[row]; }
  const FeatureBinner& binner(std::size_t feature) const {
    return binners_[feature];
  }

 private:
  BinnedDataset() = default;

  // The tail every bin_column shares: bins feature f from `sorted`, its
  // non-NaN rows inside the range in ascending value order, and
  // `values`, theirs as f64.
  void bin_sorted(std::size_t f, std::span<const std::uint32_t> sorted,
                  std::span<const double> values, std::size_t max_bins);

  std::size_t first_row_ = 0;  // the source dataset's row of row 0
  std::vector<FeatureBinner> binners_;
  std::vector<std::vector<std::uint8_t>> codes_;  // [feature][row]
  std::vector<std::uint8_t> labels_;
};

}  // namespace opprentice::ml
