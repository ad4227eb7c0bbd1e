// Scalar statistics used across detectors, data generation, and evaluation.
//
// All functions skip NaN entries ("missing points" in KPI data) unless noted;
// when every entry is NaN (or the span is empty) they return NaN so callers
// can propagate missingness instead of silently inventing values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace opprentice::util {

// True when x is NaN (we use NaN to encode missing KPI points).
bool is_missing(double x);

// Number of non-NaN entries.
std::size_t count_present(std::span<const double> xs);

double mean(std::span<const double> xs);

// Population variance (divides by the number of present values).
double variance(std::span<const double> xs);

double stddev(std::span<const double> xs);

// stddev() when `mean` is already mean(xs): skips that pass and returns
// the same bits.
double stddev(std::span<const double> xs, double mean);

// q in [0,1]; linear interpolation between order statistics.
double quantile(std::span<const double> xs, double q);

double median(std::span<const double> xs);

// Median absolute deviation around the median, scaled by 1.4826 so it
// estimates the standard deviation for Gaussian data.
double mad(std::span<const double> xs);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

// Coefficient of variation: stddev / mean (Table 1's dispersion measure).
double coefficient_of_variation(std::span<const double> xs);

// Pearson autocorrelation of the series at the given positive lag,
// pairing x[t] with x[t+lag] for every t where both are present.
double autocorrelation(std::span<const double> xs, std::size_t lag);

// Weighted mean with the given non-negative weights (same length as xs).
double weighted_mean(std::span<const double> xs, std::span<const double> ws);

// Streaming mean/variance accumulator (Welford). NaN inputs are ignored.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Allocation-free median(): selects inside `xs`, which it reorders and from
// which it drops NaNs (the tail past the present values is unspecified).
// Same arithmetic on the same order statistics as median(), so the result
// is bit-identical.
double median_in_place(std::span<double> xs);

// Sum of the last `length` pushed values (of all of them before `length`
// are pushed), amortized O(1) per push and free of drift. Values are
// grouped into aligned chunks of `length`: the window is a prefix of the
// current chunk plus a suffix of the previous one, whose suffix sums are
// recomputed exactly once, when the chunk completes. Nothing is ever
// subtracted, so the rounding error is that of summing the window's own
// values, and a non-finite value stops affecting the sum the moment it
// leaves the window.
class SlidingSum {
 public:
  explicit SlidingSum(std::size_t length);  // length >= 1

  void push(double x);
  double sum() const { return prefix_ + suffix_[pos_]; }
  void clear();

 private:
  std::vector<double> chunk_;   // values of the current chunk
  std::vector<double> suffix_;  // suffix_[i]: previous chunk's [i, length)
  std::size_t pos_ = 0;         // values in the current chunk
  double prefix_ = 0.0;         // sum of chunk_[0, pos_)
};

// median() and mad() of an ascending, NaN-free span: the same
// arithmetic on the same order statistics, so bit-identical to them;
// O(1) and O(log n).
double sorted_median(std::span<const double> sorted);
double sorted_mad(std::span<const double> sorted);

// The non-NaN values of a sliding window, kept sorted in a buffer sized
// once at construction; the caller names the entering and the leaving
// value. median() and mad() are bit-identical to median()/mad() over the
// window. (Equal values are interchangeable, so a -0.0 may leave in
// place of a +0.0: that can flip the sign of a zero median, never the
// MAD.)
class SortedWindow {
 public:
  explicit SortedWindow(std::size_t capacity);

  // Removes one value equal to `leaving` and adds `entering`, moving only
  // the values between their two positions; a NaN argument is ignored.
  // A full window must have something leaving.
  void replace(double leaving, double entering);
  std::size_t size() const { return size_; }
  double median() const { return sorted_median(values()); }
  double mad() const { return sorted_mad(values()); }
  void clear() { size_ = 0; }

 private:
  std::span<const double> values() const {
    return std::span<const double>(sorted_).first(size_);
  }

  std::vector<double> sorted_;
  std::size_t size_ = 0;
};

}  // namespace opprentice::util
