#include "util/rng.hpp"

#include <cmath>
#include <numeric>

namespace opprentice::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  has_cached_normal_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

void Rng::tally_uniform_int(std::span<std::uint32_t> counts,
                            std::size_t draws) {
  const std::uint64_t n = counts.size();
  const std::uint64_t threshold = -n % n;
  for (std::size_t d = 0; d < draws; ++d) {
    std::uint64_t r = next_u64();
    while (r < threshold) r = next_u64();
    ++counts[r % n];
  }
}

void Rng::discard_uniform_int(std::uint64_t n, std::size_t draws) {
  const std::uint64_t threshold = -n % n;
  for (std::size_t d = 0; d < draws; ++d) {
    std::uint64_t r = next_u64();
    while (r < threshold) r = next_u64();
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // synthetic count KPIs where lambda is large.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  std::vector<std::size_t> idx;
  sample_without_replacement(n, k, idx);
  return idx;
}

void Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                     std::vector<std::size_t>& out) {
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  // Partial Fisher-Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k && i + 1 < n; ++i) {
    const std::size_t j = i + uniform_int(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k < n ? k : n);
}

Rng Rng::split() {
  return Rng(next_u64());
}

}  // namespace opprentice::util
