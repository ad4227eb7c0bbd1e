#include "ml/binning.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
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

double key_value(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0
                                   ? key & ~(std::uint64_t{1} << 63)
                                   : ~key);
}

// Sets `order` to the indices of `keys` in ascending key order: an LSD
// radix sort with 8-bit digits, one counting pass for all eight digits,
// and no scatter for a digit every key shares. `scratch` is its buffer.
void radix_sort(std::span<const std::uint64_t> keys,
                std::vector<std::uint32_t>& order,
                std::vector<std::uint32_t>& scratch) {
  const std::size_t n = keys.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const std::uint64_t key : keys) {
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  scratch.resize(n);
  for (std::size_t d = 0; d < 8; ++d) {
    std::array<std::uint32_t, 256>& offset = counts[d];
    const unsigned shift = static_cast<unsigned>(8 * d);
    if (offset[(keys[0] >> shift) & 0xFF] == n) continue;
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

}  // namespace

BinnedDataset::BinnedDataset(const Dataset& data, std::size_t max_bins)
    : BinnedDataset(unbinned(data, 0, data.num_rows())) {
  util::parallel_for(data.num_features(), [&](std::size_t f) {
    bin_column(f, data.column(f), max_bins);
  });
}

BinnedDataset BinnedDataset::unbinned(const Dataset& data, std::size_t begin,
                                      std::size_t end) {
  if (begin > end || end > data.num_rows()) {
    throw std::out_of_range("BinnedDataset: bad row range");
  }
  BinnedDataset out;
  out.binners_.resize(data.num_features());
  out.codes_.resize(data.num_features());
  const auto labels = std::span(data.labels()).subspan(begin, end - begin);
  out.labels_.assign(labels.begin(), labels.end());
  return out;
}

void BinnedDataset::bin_column(std::size_t f, std::span<const double> column,
                               std::size_t max_bins) {
  // Keys of the non-NaN values, in row order; index k is the k-th
  // non-NaN row.
  std::vector<std::uint64_t> keys;
  keys.reserve(column.size());
  for (const double v : column) {
    if (!std::isnan(v)) keys.push_back(sort_key(v));
  }
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> buffer;
  radix_sort(keys, order, buffer);
  std::vector<double> distinct;
  distinct.reserve(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || keys[order[i]] != keys[order[i - 1]]) {
      distinct.push_back(key_value(keys[order[i]]));
    }
  }
  binners_[f] = FeatureBinner::from_distinct(distinct, max_bins);

  // Codes of the non-NaN values go to slots 0..keys.size() first, then
  // move out to their rows from the back; slot k <= its row, so no code
  // is overwritten before it moves.
  const std::vector<double>& edges = binners_[f].edges();
  std::vector<std::uint8_t>& codes = codes_[f];
  codes.assign(column.size(), 0);  // NaN rows stay in bin 0
  std::size_t code = 0;
  for (const std::uint32_t k : order) {
    const double value = key_value(keys[k]);
    while (code < edges.size() && edges[code] < value) ++code;
    codes[k] = static_cast<std::uint8_t>(code);
  }
  if (keys.size() != column.size()) {
    std::size_t k = keys.size();
    for (std::size_t r = column.size(); r-- > 0;) {
      codes[r] = std::isnan(column[r]) ? 0 : codes[--k];
    }
  }
}

}  // namespace opprentice::ml
