// Duration filter (§6 "Anomaly duration").
//
// The paper deliberately detects individual anomalous points and leaves
// alarm aggregation to "a simple threshold filter" on the duration of
// continuous anomalies: "if operators are only interested in continuous
// anomalies that last for more than 5 minutes, one can solve it through a
// simple threshold filter". This is that filter, plus an alarm gap policy
// so one long incident does not re-alert every point.
#pragma once

#include <cstddef>

namespace opprentice::core {

struct DurationFilterOptions {
  // Minimum run of consecutive anomalous points before an alarm fires.
  std::size_t min_run = 1;
  // A short normal gap inside an anomalous run (<= merge_gap points) does
  // not reset the run — real incidents flicker.
  std::size_t merge_gap = 0;
};

class DurationFilter {
 public:
  explicit DurationFilter(DurationFilterOptions options = {});

  // Feeds one point-level decision; returns true exactly when an alarm
  // should fire (the ongoing anomalous run just reached min_run points).
  bool feed(bool anomalous);

  // Length of the current (possibly gap-bridged) anomalous run.
  std::size_t current_run() const { return run_; }

  // True while inside an alarmed incident (run >= min_run).
  bool in_incident() const { return run_ >= options_.min_run; }

  void reset();

 private:
  DurationFilterOptions options_;
  std::size_t run_ = 0;
  std::size_t gap_ = 0;
};

}  // namespace opprentice::core
