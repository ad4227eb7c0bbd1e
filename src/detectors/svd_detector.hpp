// SVD detector [Mahimkar et al., CoNEXT'11].
//
// The last row*col points are arranged column-major into a row x col lag
// matrix (each column is a consecutive segment of the series). A rank-1
// SVD re-projection captures the dominant "normal" behaviour shared by the
// segments; the severity of the newest point is the absolute reconstruction
// residual at the bottom-right matrix entry. Table 3 samples
// row in {10..50} and col in {3, 5, 7} — 15 configurations.
//
// The rank-1 basis comes from the Gram matrix of the past segments, whose
// entries are lagged dot products of the series kept as sliding sums, so
// a point costs O(col²) rather than an SVD of the window (DESIGN.md §6).
// The per-point path is compiled for each col in [2, 8].
#pragma once

#include <vector>

#include "detectors/detector.hpp"

namespace opprentice::detectors {

class SvdDetector final : public Detector {
 public:
  SvdDetector(std::size_t rows, std::size_t cols);

  std::string name() const override;
  std::size_t warmup_points() const override { return rows_ * cols_; }
  double feed(double value) override;
  void reset() override;

 private:
  using Feed = double (SvdDetector::*)(double);

  // feed() for C == cols, with fixed-size loops; the constructor picks
  // it once (feed_for; null outside [2, 8]).
  template <std::size_t C>
  double feed_as(double value);
  static Feed feed_for(std::size_t cols);
  // Adds a point; returns its phase block (see by_phase_).
  template <std::size_t C>
  const double* push(double value);
  template <std::size_t C>
  void rebuild_suffixes();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Feed feed_ = nullptr;
  // A point's phase is its position modulo rows: the lag matrix row it
  // lands on. Per phase, a block holds the last cols values of that phase
  // (newest first) and then, for each lag l, the last cols - l values of
  // the lag-l dot product there (newest first), which is all one point
  // reads.
  std::vector<double> by_phase_;
  // The lag-l dot product sums x[t]·x[t - l·rows] over the last `rows`
  // points: prefix_[l] over the current chunk of `rows` points plus a
  // suffix of the previous chunk, suffix_[phase·cols + l], rebuilt once per
  // chunk. Nothing is subtracted, so there is no drift to correct.
  std::vector<double> prefix_;
  std::vector<double> suffix_;
  std::size_t phase_ = 0;  // phase of the next point
  std::size_t held_ = 0;   // points held, up to rows·cols
  // The dominant direction of the past segments' Gram matrix, kept as
  // the next point's warm start.
  std::vector<double> direction_;
  double last_value_ = 0.0;
  bool has_last_ = false;
};

}  // namespace opprentice::detectors
