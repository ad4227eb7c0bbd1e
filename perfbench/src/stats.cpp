#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {
namespace {

// Rank (1-based) of the nearest-rank percentile `pct` among n samples.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

TailStat tail_percentile(std::span<const double> samples, double wanted_pct,
                         std::size_t min_beyond) {
  TailStat out;
  out.count = samples.size();
  if (samples.empty()) return out;
  const std::vector<double> sorted = sorted_copy(samples);
  const std::size_t n = sorted.size();
  if (n <= min_beyond) {
    out.value = sorted.back();
    out.percentile = 100.0;
    return out;
  }
  std::size_t rank = nearest_rank(n, wanted_pct);
  if (n - rank < min_beyond) rank = n - min_beyond;
  out.value = sorted[rank - 1];
  out.percentile = std::min(
      wanted_pct, 100.0 * static_cast<double>(rank) / static_cast<double>(n));
  out.beyond = n - rank;
  out.supported = true;
  return out;
}

double median(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  const std::vector<double> sorted = sorted_copy(samples);
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

CompositeLap composite_lap(std::span<const double> steps,
                           std::span<const double> lags, std::size_t slots) {
  CompositeLap out;
  const std::size_t laps = slots == 0 ? 0 : steps.size() / slots;
  if (laps == 0) return out;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::size_t chosen = slot;  // the first of equally fast laps
    for (std::size_t i = slot + slots; i < laps * slots; i += slots) {
      if (steps[i] < steps[chosen]) chosen = i;
    }
    out.total += steps[chosen];
    out.lags.push_back(lags[chosen]);
  }
  return out;
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void Digest::add_u64(std::uint64_t v) {
  // splitmix64 finalizer over (state, v): order-sensitive and well mixed.
  std::uint64_t z = state_ ^ (v + 0x9E3779B97F4A7C15ull + (state_ << 6) +
                              (state_ >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  state_ = z ^ (z >> 31);
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add_u64(bits);
}

}  // namespace perfbench
