#include "ml/binning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/thread_pool.hpp"

namespace opprentice::ml {

FeatureBinner FeatureBinner::fit(std::span<const double> column,
                                 std::size_t max_bins) {
  std::vector<double> sorted;
  sorted.reserve(column.size());
  for (double v : column) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return from_distinct(sorted, max_bins);
}

FeatureBinner FeatureBinner::from_distinct(std::span<const double> distinct,
                                           std::size_t max_bins) {
  FeatureBinner binner;
  if (distinct.size() <= 1) return binner;  // constant column: single bin

  const std::size_t candidate_edges =
      std::min(max_bins - 1, distinct.size() - 1);
  binner.edges_.reserve(candidate_edges);
  // Edges at evenly spaced quantiles of the distinct values; midpoints
  // between neighbours make the split threshold unambiguous.
  for (std::size_t e = 1; e <= candidate_edges; ++e) {
    const std::size_t idx =
        e * (distinct.size() - 1) / (candidate_edges + 1) + 1;
    const double edge = (distinct[idx - 1] + distinct[idx]) / 2.0;
    if (binner.edges_.empty() || edge > binner.edges_.back()) {
      binner.edges_.push_back(edge);
    }
  }
  return binner;
}

std::uint8_t FeatureBinner::bin_of(double value) const {
  if (std::isnan(value)) return 0;  // missing severities sort lowest
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  return static_cast<std::uint8_t>(it - edges_.begin());
}

double FeatureBinner::upper_edge(std::uint8_t code) const {
  if (edges_.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t idx = std::min<std::size_t>(code, edges_.size() - 1);
  return edges_[idx];
}

BinnedDataset::BinnedDataset(const Dataset& data, std::size_t max_bins)
    : binners_(data.num_features()),
      codes_(data.num_features()),
      labels_(data.labels()) {
  util::parallel_for(data.num_features(), [&](std::size_t f) {
    const auto column = data.column(f);
    std::vector<std::pair<double, std::uint32_t>> sorted;
    sorted.reserve(column.size());
    for (std::size_t r = 0; r < column.size(); ++r) {
      if (!std::isnan(column[r])) {
        sorted.emplace_back(column[r], static_cast<std::uint32_t>(r));
      }
    }
    // Codes depend on the value alone, so the order of ties is free.
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> distinct;
    distinct.reserve(sorted.size());
    for (const auto& entry : sorted) {
      if (distinct.empty() || entry.first != distinct.back()) {
        distinct.push_back(entry.first);
      }
    }
    binners_[f] = FeatureBinner::from_distinct(distinct, max_bins);

    const std::vector<double>& edges = binners_[f].edges();
    std::vector<std::uint8_t>& codes = codes_[f];
    codes.assign(column.size(), 0);  // NaN rows stay in bin 0
    std::size_t code = 0;
    for (const auto& [value, row] : sorted) {
      while (code < edges.size() && edges[code] < value) ++code;
      codes[row] = static_cast<std::uint8_t>(code);
    }
  });
}

}  // namespace opprentice::ml
