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
  // Adds a point; returns its phase block (see by_phase_).
  const double* push(double value);
  void rebuild_suffixes();
  double residual(const double* block);
  void dominant_direction(double trace);
  void jacobi_direction();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // A point's phase is its position modulo rows: the lag matrix row it
  // lands on. Per phase, a block holds the last cols values of that phase
  // (newest first) and, at lag_offset_[l], the last cols - l values of the
  // lag-l dot product there (newest first), which is all one point reads.
  std::vector<std::size_t> lag_offset_;
  std::size_t stride_ = 0;
  std::vector<double> by_phase_;
  // The lag-l dot product sums x[t]·x[t - l·rows] over the last `rows`
  // points: prefix_[l] over the current chunk of `rows` points plus a
  // suffix of the previous chunk, suffix_[phase·cols + l], rebuilt once per
  // chunk. Nothing is subtracted, so there is no drift to correct.
  std::vector<double> prefix_;
  std::vector<double> suffix_;
  std::size_t phase_ = 0;  // phase of the next point
  std::size_t held_ = 0;   // points held, up to rows·cols
  std::vector<double> gram_;       // (cols-1)² Gram matrix of past segments
  std::vector<double> direction_;  // its dominant eigenvector; warm start
  std::vector<double> scratch_;    // eigen-solve work space
  double last_value_ = 0.0;
  bool has_last_ = false;
};

}  // namespace opprentice::detectors
