// Per-configuration cost attribution (DESIGN.md §5h).
//
// The family histograms (metrics.hpp) answer "where does the extraction
// budget go per detector family"; this accumulator answers the sharper
// question ROADMAP item 2 needs: which of the 133 individual detector
// configurations burn it. One slot per configuration id holds
// count/sum/max of µs observations with relaxed atomics only — hot paths
// look their slot up once and then update it lock-free, exactly like the
// metrics instruments.
//
// Slots are registered by configuration name ("svd(rows=5,cols=60)");
// registration takes a mutex and the returned slot address is stable for
// the registry's lifetime. Snapshots are ordered by total cost
// (descending, name as the tiebreak), so the first K rows of a snapshot
// are the "top-K most expensive configs" table the CLI and bench print —
// the direct target list for the extraction-hot-path work.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::obs {

// Lock-free accumulator for one configuration's observed cost.
class CostSlot {
 public:
  void record(double us) {
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + us,
                                       std::memory_order_relaxed)) {
    }
    double mx = max_.load(std::memory_order_relaxed);
    while (us > mx &&
           !max_.compare_exchange_weak(mx, us, std::memory_order_relaxed)) {
    }
  }

  // Batch variant: one timed pass of `points` points costing `total_us`.
  // Counts every point, adds the pass total to the sum, and folds the
  // pass's per-point mean into max (batch passes are not timed per point,
  // so max is "worst per-point cost at the granularity observed").
  void record_pass(double total_us, std::uint64_t points) {
    if (points == 0) return;
    count_.fetch_add(points, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + total_us,
                                       std::memory_order_relaxed)) {
    }
    const double per_point = total_us / static_cast<double>(points);
    double mx = max_.load(std::memory_order_relaxed);
    while (per_point > mx && !max_.compare_exchange_weak(
                                 mx, per_point, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_us() const { return sum_.load(std::memory_order_relaxed); }
  double max_us() const { return max_.load(std::memory_order_relaxed); }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// One row of a cost snapshot.
struct CostRow {
  std::string configuration;
  std::uint64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;
  // sum_us / total sum across all rows of the snapshot, in [0, 1].
  double share = 0.0;
};

// Name -> CostSlot registry. Like obs::Registry: slots are created on
// first lookup and never destroyed before the registry.
class CostAttribution {
 public:
  // Process-wide instance used by the extractor instrumentation.
  static CostAttribution& instance();

  CostAttribution() = default;
  CostAttribution(const CostAttribution&) = delete;
  CostAttribution& operator=(const CostAttribution&) = delete;

  CostSlot& slot(std::string_view configuration);
  std::size_t slot_count() const;

  // All rows with at least one observation, ordered by sum_us descending
  // (name ascending as the deterministic tiebreak), with `share`
  // normalized against the snapshot's total.
  std::vector<CostRow> snapshot() const;

  // Zeroes every slot but keeps registrations (held references stay
  // valid). For tests and bench harnesses, like Registry::reset_values.
  void reset_values();

 private:
  mutable util::Mutex mutex_{util::LockLevel::cost_ledger};
  std::map<std::string, std::unique_ptr<CostSlot>, std::less<>> slots_
      OPPRENTICE_GUARDED_BY(mutex_);
};

// Renders a snapshot as a JSON array (one object per row, snapshot
// order). Empty snapshot renders as "[]".
std::string cost_rows_json(const std::vector<CostRow>& rows);

}  // namespace opprentice::obs
