// Deterministic staggered retrain scheduling (DESIGN.md §5i).
//
// Retraining every series at the same point count would spike training
// load at week boundaries — netdata staggers per-metric training across
// its 3-hour window for exactly this reason (SNIPPETS.md §3). The fleet
// engine instead gives each series a fixed *phase* inside the retrain
// interval, derived purely from a seeded hash of the series id:
//
//   phase(id)             = hash(seed, id) mod interval
//   due(id, points_seen)  = points_seen >= interval
//                           && points_seen mod interval == phase(id)
//
// The schedule depends on nothing but (seed, id, interval): no clocks, no
// counters, no thread state. Two processes — or one process at different
// thread counts — compute the identical schedule, which is what the
// fleet determinism sweep asserts byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace opprentice::core {

class RetrainScheduler {
 public:
  // `interval_points` is the number of points between retrains of one
  // series (a week of points in the paper's protocol). Zero is clamped
  // to one (every point due — degenerate but well-defined).
  RetrainScheduler(std::uint64_t seed, std::size_t interval_points);

  std::uint64_t seed() const { return seed_; }
  std::size_t interval() const { return interval_; }

  // The series' fixed slot in [0, interval): a pure seeded hash of the
  // id, so ids spread uniformly across the interval.
  std::size_t phase(std::string_view id) const;

  // True when a series that has consumed `points_seen` points must
  // retrain now. The first due point is the first phase hit at or after
  // one full interval, so a series never trains on less than an
  // interval of history.
  bool due_at(std::size_t phase, std::size_t points_seen) const;
  bool due(std::string_view id, std::size_t points_seen) const {
    return due_at(phase(id), points_seen);
  }

  // The next point count strictly after `points_seen` at which the
  // series is due.
  std::size_t next_due(std::size_t phase, std::size_t points_seen) const;

 private:
  std::uint64_t seed_;
  std::size_t interval_;
};

}  // namespace opprentice::core
