// Deterministic pseudo-random number generation for Opprentice.
//
// All stochastic components of the library (data generation, label noise,
// bootstrap sampling, feature sub-sampling, ...) draw from an explicitly
// seeded Rng so that every experiment is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace opprentice::util {

// xoshiro256** by Blackman & Vigna: small state, excellent statistical
// quality, and trivially seedable from a single 64-bit value via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  // Re-initializes the full state from a single 64-bit seed.
  void reseed(std::uint64_t seed);

  // Uniform 64-bit value.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  // Adds one to counts[uniform_int(counts.size())], `draws` times: the
  // same next_u64 stream as that many uniform_int calls, with the
  // rejection threshold computed once. Requires a non-empty span.
  void tally_uniform_int(std::span<std::uint32_t> counts, std::size_t draws);

  // Advances the stream past `draws` uniform_int(n) calls without their
  // results: the state tally_uniform_int leaves over n counts. Requires
  // n > 0.
  void discard_uniform_int(std::uint64_t n, std::size_t draws);

  // Standard normal via Marsaglia polar method.
  double normal();

  // Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  // Poisson-distributed count (Knuth for small lambda, normal
  // approximation for large lambda). Requires lambda >= 0.
  std::uint64_t poisson(double lambda);

  // Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // The same draws and sample, written into `out`, reusing its storage.
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<std::size_t>& out);

  // Derives an independent child generator; useful to give each
  // subcomponent its own stream.
  Rng split();

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace opprentice::util
