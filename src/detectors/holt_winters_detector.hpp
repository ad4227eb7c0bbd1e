// Holt-Winters (triple exponential smoothing) detector [Brutlag, LISA'00].
//
// Additive seasonal model with a one-day season. The severity of a point is
// the absolute one-step forecast residual |value - (level + trend +
// season[slot])|, as described in §4.3.1 of the paper. Parameters alpha
// (level), beta (trend), gamma (season) are each sampled from
// {0.2, 0.4, 0.6, 0.8}, giving the 64 configurations of Table 3.
//
// The 64 configurations of a bank share one HoltWintersBank: one lane of
// model state per configuration, advanced together (DESIGN.md §6b).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "detectors/detector.hpp"

namespace opprentice::detectors {

// The Holt-Winters state of every configuration of a bank, struct of
// arrays: per lane one level, trend and alpha/beta/gamma, and the season
// stored slot-major (slot s of lane l at s·lanes + l), so one point runs
// the same operations, in the same order, on every lane in one loop. All
// lanes share the first-day bootstrap, which is the same for every
// configuration.
//
// The bank follows the stream through its readers exactly as a
// SeasonalSlotStore does: each reader reports every point it is fed with
// arrive(), the first report of point n advances every lane by it, a
// reader that stops being fed (a quarantined column) holds nothing up, and
// a reader reporting point 0 while the bank is further on restarts it.
class HoltWintersBank {
 public:
  explicit HoltWintersBank(std::size_t season_length);

  // A new lane, before the first point; returns its index.
  std::size_t add_lane(double alpha, double beta, double gamma);

  // A reader is fed point `index` (counted from 0), whose value is
  // `value`. Throws std::logic_error when the reader is out of step.
  void arrive(std::size_t index, double value) {
    if (index + 1 != advanced_) follow(index, value);  // else already here
  }

  // The raw |residual| of a lane at the point the bank last advanced by;
  // 0 during the bootstrap day and for a missing point.
  double severity(std::size_t lane) const { return severity_[lane]; }

  std::size_t season_length() const { return season_length_; }

  void reset();

 private:
  // arrive() for a point the bank has not advanced by yet.
  void follow(std::size_t index, double value);
  void advance(double value);

  std::size_t season_length_ = 0;
  std::vector<double> alpha_;
  std::vector<double> beta_;
  std::vector<double> gamma_;
  std::vector<double> level_;
  std::vector<double> trend_;
  std::vector<double> season_;  // slot-major, season_length_ x lanes
  std::vector<double> severity_;
  bool model_ready_ = false;
  // First-season bootstrap, shared by every lane.
  std::vector<double> first_day_;
  std::size_t advanced_ = 0;  // points the bank has advanced by
};

// One configuration: a reader of one lane of a bank.
class HoltWintersDetector final : public Detector {
 public:
  // A configuration with a bank of its own.
  HoltWintersDetector(double alpha, double beta, double gamma,
                      const SeriesContext& ctx);
  // A lane of `bank`, which the bank's other readers share.
  HoltWintersDetector(double alpha, double beta, double gamma,
                      std::shared_ptr<HoltWintersBank> bank);

  std::string name() const override;
  std::size_t warmup_points() const override {
    return 2 * bank_->season_length();
  }
  double feed(double value) override;
  void reset() override;
  const void* shared_state() const override { return bank_.get(); }

 private:
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double gamma_ = 0.0;
  std::shared_ptr<HoltWintersBank> bank_;
  std::size_t lane_ = 0;
  std::size_t seen_ = 0;
};

}  // namespace opprentice::detectors
