#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace opprentice::util {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> present_values(std::span<const double> xs) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (double x : xs) {
    if (!is_missing(x)) v.push_back(x);
  }
  return v;
}

// Moves the present values of xs to its front; returns their count.
std::size_t compact_present(std::span<double> xs) {
  std::size_t n = 0;
  for (const double x : xs) {
    if (!is_missing(x)) xs[n++] = x;
  }
  return n;
}

// The two order statistics quantile q interpolates between over n >= 1
// values: ranks lo and lo + 1, unless lo is the last one.
struct QuantileRank {
  double pos;
  std::size_t lo;
  bool single;
};

QuantileRank quantile_rank(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  return {pos, lo, std::min(lo + 1, n - 1) == lo};
}

double interpolate(const QuantileRank& rank, double xlo, double xhi) {
  return rank.single
             ? xlo
             : xlo + (rank.pos - static_cast<double>(rank.lo)) * (xhi - xlo);
}

// Quantile q of the n >= 1 values in v, which it reorders.
double select_quantile(std::span<double> v, double q) {
  const QuantileRank rank = quantile_rank(v.size(), q);
  const auto lo = v.begin() + static_cast<std::ptrdiff_t>(rank.lo);
  std::nth_element(v.begin(), lo, v.end());
  return interpolate(rank, *lo,
                     rank.single ? *lo : *std::min_element(lo + 1, v.end()));
}

// The second pass of variance(): the mean squared deviation from m.
double variance_about(std::span<const double> xs, double m) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) {
      const double d = x - m;
      sum += d * d;
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

// std::lower_bound over sorted[0, n) as an index, with the comparison
// folded into a conditional move rather than a branch, which noisy data
// would mispredict about every other step.
std::size_t lower_bound_index(const double* sorted, std::size_t n, double x) {
  if (n == 0) return 0;
  const double* base = sorted;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < x ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - sorted) + (*base < x ? 1 : 0);
}

// std::upper_bound, likewise.
std::size_t upper_bound_index(const double* sorted, std::size_t n, double x) {
  if (n == 0) return 0;
  const double* base = sorted;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] <= x ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - sorted) + (*base <= x ? 1 : 0);
}

}  // namespace

bool is_missing(double x) {
  return std::isnan(x);
}

std::size_t count_present(std::span<const double> xs) {
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) ++n;
  }
  return n;
}

double mean(std::span<const double> xs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

double variance(std::span<const double> xs) {
  // Two passes in index order over the span itself: the mean, then the
  // mean squared deviation from it. No division per element, unlike
  // RunningStats, and as accurate.
  return variance_about(xs, mean(xs));
}

double stddev(std::span<const double> xs) {
  return stddev(xs, mean(xs));
}

double stddev(std::span<const double> xs, double mean) {
  const double v = variance_about(xs, mean);
  return is_missing(v) ? kNaN : std::sqrt(v);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v = present_values(xs);
  if (v.empty()) return kNaN;
  return select_quantile(v, std::clamp(q, 0.0, 1.0));
}

double median(std::span<const double> xs) {
  return quantile(xs, 0.5);
}

double mad(std::span<const double> xs) {
  const double med = median(xs);
  if (is_missing(med)) return kNaN;
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) {
    if (!is_missing(x)) dev.push_back(std::abs(x - med));
  }
  const double raw = median(dev);
  // 1.4826 makes MAD a consistent estimator of sigma under Gaussian data.
  return is_missing(raw) ? kNaN : 1.4826 * raw;
}

double min_value(std::span<const double> xs) {
  double best = kNaN;
  for (double x : xs) {
    if (is_missing(x)) continue;
    if (is_missing(best) || x < best) best = x;
  }
  return best;
}

double max_value(std::span<const double> xs) {
  double best = kNaN;
  for (double x : xs) {
    if (is_missing(x)) continue;
    if (is_missing(best) || x > best) best = x;
  }
  return best;
}

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  const double s = stddev(xs);
  if (is_missing(m) || is_missing(s) || m == 0.0) return kNaN;
  return s / m;
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (lag == 0 || lag >= xs.size()) return kNaN;
  const double m = mean(xs);
  if (is_missing(m)) return kNaN;
  double num = 0.0, den_a = 0.0, den_b = 0.0;
  std::size_t pairs = 0;
  for (std::size_t t = 0; t + lag < xs.size(); ++t) {
    const double a = xs[t], b = xs[t + lag];
    if (is_missing(a) || is_missing(b)) continue;
    num += (a - m) * (b - m);
    den_a += (a - m) * (a - m);
    den_b += (b - m) * (b - m);
    ++pairs;
  }
  if (pairs == 0 || den_a == 0.0 || den_b == 0.0) return kNaN;
  return num / std::sqrt(den_a * den_b);
}

double weighted_mean(std::span<const double> xs, std::span<const double> ws) {
  double sum = 0.0, wsum = 0.0;
  const std::size_t n = std::min(xs.size(), ws.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (is_missing(xs[i])) continue;
    sum += ws[i] * xs[i];
    wsum += ws[i];
  }
  return wsum == 0.0 ? kNaN : sum / wsum;
}

void RunningStats::add(double x) {
  if (is_missing(x)) return;
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  return n_ == 0 ? kNaN : mean_;
}

double RunningStats::variance() const {
  return n_ == 0 ? kNaN : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const {
  const double v = variance();
  return std::isnan(v) ? v : std::sqrt(v);
}

double median_in_place(std::span<double> xs) {
  const std::size_t n = compact_present(xs);
  return n == 0 ? kNaN : select_quantile(xs.first(n), 0.5);
}

SlidingSum::SlidingSum(std::size_t length)
    : chunk_(length), suffix_(length + 1, 0.0) {
  if (length == 0) {
    throw std::invalid_argument("SlidingSum: length must be positive");
  }
}

void SlidingSum::push(double x) {
  if (pos_ == chunk_.size()) {
    double acc = 0.0;
    for (std::size_t i = pos_; i-- > 0;) {
      acc += chunk_[i];
      suffix_[i] = acc;
    }
    pos_ = 0;
    prefix_ = 0.0;
  }
  chunk_[pos_++] = x;
  prefix_ += x;
}

void SlidingSum::clear() {
  std::fill(suffix_.begin(), suffix_.end(), 0.0);
  pos_ = 0;
  prefix_ = 0.0;
}

SortedWindow::SortedWindow(std::size_t capacity) : sorted_(capacity) {}

void SortedWindow::replace(double leaving, double entering) {
  double* const values = sorted_.data();
  const std::size_t size = size_;
  // The slot freed by `leaving`, or a new one past the end.
  std::size_t hole = size;
  if (!is_missing(leaving)) {
    hole = lower_bound_index(values, size, leaving);
    if (hole < size && values[hole] != leaving) hole = size;
  }
  const bool removed = hole < size;
  if (is_missing(entering)) {
    if (!removed) return;
    std::copy(values + hole + 1, values + size, values + hole);
    --size_;
    return;
  }
  // Move the hole to where `entering` belongs: past the larger values
  // before it, or else past the smaller values after it.
  std::size_t at = upper_bound_index(values, hole, entering);
  if (at < hole) {
    std::copy_backward(values + at, values + hole, values + hole + 1);
  } else if (removed) {
    at = hole + lower_bound_index(values + hole + 1, size - hole - 1, entering);
    std::copy(values + hole + 1, values + at + 1, values + hole);
  }
  values[at] = entering;
  if (!removed) ++size_;
}

double sorted_median(std::span<const double> sorted) {
  const std::size_t size = sorted.size();
  if (size == 0) return kNaN;
  const QuantileRank rank = quantile_rank(size, 0.5);
  return interpolate(rank, sorted[rank.lo],
                     sorted[std::min(rank.lo + 1, size - 1)]);
}

double sorted_mad(std::span<const double> sorted) {
  const double med = sorted_median(sorted);
  if (is_missing(med)) return kNaN;
  // |x - med| rises from the median outwards on both sides, so the
  // deviations are two ascending runs: the left side walked backwards and
  // the right side walked forwards. Values equal to an infinite median
  // deviate by NaN, which mad() skips; they open the right side.
  const std::size_t size = sorted.size();
  // The first value not below the median, walked to from the median's
  // rank: only ties (or an interpolation that rounds onto a neighbour)
  // move it.
  std::size_t left = std::min(quantile_rank(size, 0.5).lo + 1, size);
  while (left > 0 && sorted[left - 1] >= med) --left;
  while (left < size && sorted[left] < med) ++left;
  const std::size_t right =
      std::isinf(med) ? upper_bound_index(sorted.data(), size, med) : left;
  const std::size_t right_size = size - right;
  const std::size_t n = left + right_size;
  if (n == 0) return kNaN;
  const auto from_left = [&](std::size_t i) {
    return std::abs(sorted[left - 1 - i] - med);
  };
  const auto from_right = [&](std::size_t j) {
    return std::abs(sorted[right + j] - med);
  };
  // The rank.lo + 1 smallest deviations take i from the left run and the
  // rest from the right; binary search for the i at which every deviation
  // taken is at most every one left.
  const QuantileRank rank = quantile_rank(n, 0.5);
  const std::size_t taken = rank.lo + 1;
  std::size_t lo = taken > right_size ? taken - right_size : 0;
  std::size_t hi = std::min(taken, left);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    const bool more_from_left = from_left(i) < from_right(taken - 1 - i);
    lo = more_from_left ? i + 1 : lo;
    hi = more_from_left ? hi : i;
  }
  const std::size_t i = lo;
  const std::size_t j = taken - i;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double dlo = std::max(i > 0 ? from_left(i - 1) : -kInf,
                              j > 0 ? from_right(j - 1) : -kInf);
  const double dhi =
      rank.single ? dlo
                  : std::min(i < left ? from_left(i) : kInf,
                             j < right_size ? from_right(j) : kInf);
  const double raw = interpolate(rank, dlo, dhi);
  return is_missing(raw) ? kNaN : 1.4826 * raw;
}

}  // namespace opprentice::util
