#include "ml/binning.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  if (max_bins == 0 || max_bins > 256) {  // codes are one byte
    throw std::invalid_argument("FeatureBinner: max_bins must be in [1, 256]");
  }
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

namespace {

// Maps a non-NaN double to a key whose unsigned order is the value's
// order: the sign bit is flipped for non-negative values and every bit
// for negative ones. −0.0 is first mapped to 0.0, which it equals.
std::uint64_t sort_key(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// Sorts `order`, indices of `keys`, stably by ascending key: an LSD radix
// sort with 8-bit digits, one counting pass for all eight digits, and no
// scatter for a digit every key shares. `scratch` is its buffer.
void radix_sort(std::span<const std::uint64_t> keys,
                std::vector<std::uint32_t>& order,
                std::vector<std::uint32_t>& scratch) {
  const std::size_t n = order.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const std::uint32_t i : order) {
    const std::uint64_t key = keys[i];
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  scratch.resize(n);
  for (std::size_t d = 0; d < 8; ++d) {
    std::array<std::uint32_t, 256>& offset = counts[d];
    const unsigned shift = static_cast<unsigned>(8 * d);
    if (offset[(keys[order[0]] >> shift) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offset) {
      const std::uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (const std::uint32_t i : order) {
      scratch[offset[(keys[i] >> shift) & 0xFF]++] = i;
    }
    order.swap(scratch);
  }
}

// The rows r in [begin, end) whose column[r] is not NaN, in ascending
// value order, ties in row order.
std::vector<std::uint32_t> sorted_rows(std::span<const double> column,
                                       std::size_t begin, std::size_t end) {
  // keys[i] and order hold row begin + i.
  std::vector<std::uint64_t> keys(end - begin);
  std::vector<std::uint32_t> order;
  order.reserve(end - begin);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double v = column[begin + i];
    if (std::isnan(v)) continue;
    keys[i] = sort_key(v);
    order.push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<std::uint32_t> scratch;
  radix_sort(keys, order, scratch);
  for (std::uint32_t& row : order) row += static_cast<std::uint32_t>(begin);
  return order;
}

void check_range(const Dataset& data, std::size_t begin, std::size_t end,
                 const char* what) {
  if (begin > end || end > data.num_rows()) throw std::out_of_range(what);
}

}  // namespace

ColumnOrder::ColumnOrder(const Dataset& data)
    : ColumnOrder(data, 0, data.num_rows()) {}

ColumnOrder::ColumnOrder(const Dataset& data, std::size_t begin,
                         std::size_t end)
    : begin_(begin), end_(end) {
  check_range(data, begin, end, "ColumnOrder: bad row range");
  rows_.resize(data.num_features());
  util::parallel_for(data.num_features(), [&](std::size_t f) {
    rows_[f] = sorted_rows(data.column(f), begin, end);
  });
}

BinnedDataset::BinnedDataset(const Dataset& data, std::size_t max_bins)
    : BinnedDataset(unbinned(data, 0, data.num_rows())) {
  util::parallel_for(data.num_features(), [&](std::size_t f) {
    bin_column(f, data.column(f), max_bins);
  });
}

BinnedDataset BinnedDataset::unbinned(const Dataset& data, std::size_t begin,
                                      std::size_t end) {
  check_range(data, begin, end, "BinnedDataset: bad row range");
  BinnedDataset out;
  out.first_row_ = begin;
  out.binners_.resize(data.num_features());
  out.codes_.resize(data.num_features());
  const auto labels = std::span(data.labels()).subspan(begin, end - begin);
  out.labels_.assign(labels.begin(), labels.end());
  return out;
}

void BinnedDataset::bin_column(std::size_t f, std::span<const double> column,
                               std::size_t max_bins) {
  bin_column(f, column,
             sorted_rows(column, first_row_, first_row_ + num_rows()),
             max_bins);
}

void BinnedDataset::bin_column(std::size_t f, std::span<const double> column,
                               std::span<const std::uint32_t> sorted,
                               std::size_t max_bins) {
  // The sorted rows inside [first_row_, first_row_ + rows): a row below
  // first_row_ wraps to a huge offset, so one compare keeps a row.
  const std::size_t rows = num_rows();
  std::vector<std::uint32_t> inside(sorted.size());
  std::size_t kept = 0;
  for (const std::uint32_t row : sorted) {
    inside[kept] = row;
    kept += static_cast<std::size_t>(row - first_row_ < rows);
  }
  std::vector<double> values(kept);  // ascending
  for (std::size_t i = 0; i < kept; ++i) values[i] = column[inside[i]];

  // −0.0 and 0.0 are one distinct value: whichever comes first adds the
  // same to a midpoint with its non-zero neighbour.
  std::vector<double> distinct;
  distinct.reserve(kept);
  for (const double value : values) {
    if (distinct.empty() || value != distinct.back()) {
      distinct.push_back(value);
    }
  }
  binners_[f] = FeatureBinner::from_distinct(distinct, max_bins);

  const std::vector<double>& edges = binners_[f].edges();
  std::vector<std::uint8_t>& codes = codes_[f];
  codes.assign(rows, 0);  // NaN rows stay in bin 0
  std::size_t code = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    while (code < edges.size() && edges[code] < values[i]) ++code;
    codes[inside[i] - first_row_] = static_cast<std::uint8_t>(code);
  }
}

}  // namespace opprentice::ml
