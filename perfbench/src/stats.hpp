// Summary statistics and output digests for the repository benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

// A tail percentile the sample can support (choosing-metrics guide §1):
// the requested percentile when at least `min_beyond` samples lie above
// it, otherwise the highest percentile that still has `min_beyond`
// samples beyond it. With `min_beyond` samples or fewer no percentile
// qualifies and the maximum is reported (percentile = 100, supported =
// false).
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;  // the percentile actually reported
  std::size_t count = 0;    // samples
  std::size_t beyond = 0;   // samples strictly above the reported rank
  bool supported = false;
};

TailStat tail_percentile(std::span<const double> samples, double wanted_pct,
                         std::size_t min_beyond = 10);

double median(std::span<const double> samples);

// Best-of-laps composite. The timed window runs whole laps of the same
// work, each lap cut into `slots` steps; steps[lap * slots + slot] is the
// time one step took, and the steps of one slot do the same work in every
// lap. Co-tenants on a shared host slow whole seconds at a time, so each
// slot keeps its fastest lap: the composite lap holds every step of the
// work in its proportion and drops the contention. `lags` (same layout)
// carries a second per-step measure taken along with the chosen steps.
struct CompositeLap {
  double total = 0.0;         // sum of the chosen steps
  std::vector<double> lags;   // per slot, the `lags` entry of its chosen step
};
CompositeLap composite_lap(std::span<const double> steps,
                           std::span<const double> lags, std::size_t slots);

double mean(std::span<const double> samples);

// Order-sensitive 64-bit digest of a verdict or score stream. Doubles are
// folded in by bit pattern, so two streams digest equal only when every
// value is bit-identical (NaN payloads and the sign of zero included).
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  void add_bool(bool v) { add_u64(v ? 1u : 0u); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x243F6A8885A308D3ull;
};

}  // namespace perfbench
