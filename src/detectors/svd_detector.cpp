#include "detectors/svd_detector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// util::svd drops a left singular vector whose singular value is at most
// this, which leaves the newest value itself as the residual.
constexpr double kZeroSigma = 1e-12;
// The eigen-solve stops once the direction's error bound falls below
// this; the residual moves by about |window| times that error.
constexpr double kDirectionTolerance = 1e-12;
// A gap below this fraction of the trace is rounding in λ (an exact tie
// computes as a gap of a few ulps), so it certifies nothing.
constexpr double kMinGap = 1e-12;
constexpr int kMaxRayleighIterations = 8;
constexpr int kPowerSteps = 2;
constexpr int kMaxJacobiSweeps = 60;

// Solves m·z = z in place (k x k, row-major, m overwritten) by Gaussian
// elimination with partial pivoting; false when m is singular. Each pivot
// is inverted once and multiplied by.
template <std::size_t K>
bool solve_in_place(double* m, double* z) {
  std::array<double, K> inverse_pivot;
  for (std::size_t c = 0; c < K; ++c) {
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < K; ++r) {
      if (std::abs(m[r * K + c]) > std::abs(m[pivot * K + c])) pivot = r;
    }
    if (m[pivot * K + c] == 0.0) return false;
    if (pivot != c) {
      for (std::size_t j = c; j < K; ++j) std::swap(m[pivot * K + j], m[c * K + j]);
      std::swap(z[pivot], z[c]);
    }
    inverse_pivot[c] = 1.0 / m[c * K + c];
    for (std::size_t r = c + 1; r < K; ++r) {
      const double f = m[r * K + c] * inverse_pivot[c];
      for (std::size_t j = c + 1; j < K; ++j) m[r * K + j] -= f * m[c * K + j];
      z[r] -= f * z[c];
    }
  }
  for (std::size_t c = K; c-- > 0;) {
    double sum = z[c];
    for (std::size_t j = c + 1; j < K; ++j) sum -= m[c * K + j] * z[j];
    z[c] = sum * inverse_pivot[c];
  }
  return true;
}

// m·J for the Jacobi rotation J of columns p and r (k x k, row-major).
template <std::size_t K>
void rotate_columns(double* m, std::size_t p, std::size_t r, double c,
                    double s) {
  for (std::size_t i = 0; i < K; ++i) {
    const double x = m[i * K + p];
    const double y = m[i * K + r];
    m[i * K + p] = c * x - s * y;
    m[i * K + r] = s * x + c * y;
  }
}

// Jᵀ·m for the same rotation.
template <std::size_t K>
void rotate_rows(double* m, std::size_t p, std::size_t r, double c,
                 double s) {
  for (std::size_t i = 0; i < K; ++i) {
    const double x = m[p * K + i];
    const double y = m[r * K + i];
    m[p * K + i] = c * x - s * y;
    m[r * K + i] = s * x + c * y;
  }
}

// The per-point solve for a lag matrix of C columns: the Gram matrix of
// the C-1 past segments and its dominant direction, in fixed-size arrays.
template <std::size_t C>
struct Kernel {
  static constexpr std::size_t K = C - 1;
  using Gram = std::array<double, K * K>;

  // Where the lag-l dot products start in a phase block (see by_phase_),
  // and the block's length.
  static constexpr std::array<std::size_t, C> kLagOffset = [] {
    std::array<std::size_t, C> offset{};
    std::size_t at = C;
    for (std::size_t lag = 0; lag < C; ++lag) {
      offset[lag] = at;
      at += C - lag;
    }
    return offset;
  }();
  static constexpr std::size_t kStride = kLagOffset[C - 1] + 1;

  // Column-major fill: column c of the lag matrix holds segment c of the
  // window (oldest segment first), so the newest point lands at
  // (rows-1, cols-1). The dominant subspace is learned from the *past*
  // segments A only — otherwise a large anomaly in the newest segment y
  // would dominate the basis and reconstruct itself with a near-zero
  // residual. With v the dominant eigenvector of G = AᵀA and σ² = vᵀGv,
  // the left singular vector is Av/σ, so the rank-1 reconstruction of y's
  // last entry is (vᵀAᵀy/σ)·(a·v/σ), a being A's last row: the newest
  // phase's values before the newest one.
  static double residual(const double* block, double* direction) {
    // Segments i <= j are j-i segments apart and segment j ends C-1-j
    // chunks ago, so their dot product is that old value of the
    // lag-(j-i) sum at this phase.
    Gram gram;
    double trace = 0.0;
    for (std::size_t j = 0; j < K; ++j) {
      for (std::size_t i = 0; i <= j; ++i) {
        const double dot = block[kLagOffset[j - i] + (C - 1 - j)];
        gram[i * K + j] = dot;
        gram[j * K + i] = dot;
      }
      trace += gram[j * K + j];
    }
    const double newest = block[0];
    // util::svd's degenerate branches: no singular value above zero, or a
    // past segment whose squared norm overflows (an infinite singular
    // value, whose left singular vector it scales to zero).
    if (!(trace > 0.0) || std::isinf(trace)) return newest;
    const double sigma2 = dominant_direction(gram, trace, direction);

    double projection = 0.0;  // vᵀAᵀy
    double last_row = 0.0;    // a·v
    for (std::size_t i = 0; i < K; ++i) {
      projection += direction[i] * block[kLagOffset[C - 1 - i]];
      last_row += direction[i] * block[C - 1 - i];
    }
    const double sigma = std::sqrt(sigma2);
    if (!(sigma > kZeroSigma)) return newest;
    return newest - (projection / sigma) * (last_row / sigma);
  }

  // Rayleigh quotient iteration from a start near the dominant
  // eigenvector: λ = vᵀGv, then v <- (G - λI)⁻¹v normalized, which
  // converges cubically to the eigenvector nearest λ. G is positive
  // semi-definite, so when λ exceeds half the trace every other
  // eigenvalue lies below trace - λ, and the residual r = Gv - λv bounds
  // the angle between v and the dominant eigenvector by |r|/(2λ - trace).
  // Without that certificate (no dominant direction, or convergence to
  // another eigenvector) a Jacobi eigen-solve decides. Returns vᵀGv of the
  // direction left in v.
  static double dominant_direction(const Gram& gram, double trace,
                                   double* v) {
    std::array<double, K> gv;
    Gram m;
    std::array<double, K> z;
    start_direction(gram, v);
    for (int iteration = 0; iteration < kMaxRayleighIterations; ++iteration) {
      const double lambda = quotient(gram, v, gv.data());
      double residual2 = 0.0;
      for (std::size_t i = 0; i < K; ++i) {
        const double r = gv[i] - lambda * v[i];
        residual2 += r * r;
      }
      const double gap = 2.0 * lambda - trace;
      const bool dominant = gap > kMinGap * trace;
      if (std::sqrt(residual2) <=
          kDirectionTolerance * (dominant ? gap : lambda)) {
        if (dominant) return lambda;
        break;  // an eigenvector, but not a dominant one
      }
      for (std::size_t i = 0; i < K; ++i) {
        for (std::size_t j = 0; j < K; ++j) m[i * K + j] = gram[i * K + j];
        m[i * K + i] -= lambda;
        z[i] = v[i];
      }
      if (!solve_in_place<K>(m.data(), z.data())) break;
      double norm2 = 0.0;
      for (std::size_t i = 0; i < K; ++i) norm2 += z[i] * z[i];
      if (!(norm2 > 0.0) || std::isinf(norm2)) break;
      const double inv_norm = 1.0 / std::sqrt(norm2);
      for (std::size_t i = 0; i < K; ++i) v[i] = z[i] * inv_norm;
    }
    jacobi_direction(gram, v);
    return quotient(gram, v, gv.data());
  }

  // The Rayleigh quotient vᵀGv; Gv goes to gv.
  static double quotient(const Gram& gram, const double* v, double* gv) {
    double lambda = 0.0;
    for (std::size_t i = 0; i < K; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < K; ++j) sum += gram[i * K + j] * v[j];
      gv[i] = sum;
      lambda += v[i] * sum;
    }
    return lambda;
  }

  // The iteration's start. For K = 2 it is the dominant eigenvector in
  // closed form: with G = [a b; b c], d = (a - c)/2 and h = √(d² + b²),
  // it is (d + h, b) or, for d < 0, (b, h - d), neither of which cancels.
  // A tie (h = 0) or an overflow leaves v for the iteration to judge.
  // Otherwise v is the previous point's direction, whose certificate is
  // typically 1e-1 to 1e-2; two power steps v <- Gv/|Gv| bring it close
  // enough that one solve usually certifies it.
  static void start_direction(const Gram& gram, double* v) {
    if constexpr (K == 2) {
      const double d = 0.5 * (gram[0] - gram[3]);
      const double b = gram[1];
      const double h = std::sqrt(d * d + b * b);
      const double x = d >= 0.0 ? d + h : b;
      const double y = d >= 0.0 ? b : h - d;
      const double norm2 = x * x + y * y;
      if (h > 0.0 && norm2 > 0.0 && !std::isinf(norm2)) {
        const double inv_norm = 1.0 / std::sqrt(norm2);
        v[0] = x * inv_norm;
        v[1] = y * inv_norm;
      }
    } else {
      for (int step = 0; step < kPowerSteps; ++step) {
        std::array<double, K> gv;
        double norm2 = 0.0;
        for (std::size_t i = 0; i < K; ++i) {
          double sum = 0.0;
          for (std::size_t j = 0; j < K; ++j) sum += gram[i * K + j] * v[j];
          gv[i] = sum;
          norm2 += sum * sum;
        }
        if (!(norm2 > 0.0) || std::isinf(norm2)) return;
        const double inv_norm = 1.0 / std::sqrt(norm2);
        for (std::size_t i = 0; i < K; ++i) v[i] = gv[i] * inv_norm;
      }
    }
  }

  // Cyclic Jacobi eigen-solve of the Gram matrix; the eigenvector of the
  // largest eigenvalue becomes the direction.
  static void jacobi_direction(const Gram& gram, double* direction) {
    Gram a = gram;
    Gram q;
    for (std::size_t i = 0; i < K * K; ++i) q[i] = i % (K + 1) == 0 ? 1.0 : 0.0;
    for (int sweep = 0; sweep < kMaxJacobiSweeps; ++sweep) {
      double off = 0.0;
      double diag = 0.0;
      for (std::size_t p = 0; p < K; ++p) {
        diag += a[p * K + p] * a[p * K + p];
        for (std::size_t r = p + 1; r < K; ++r) off += a[p * K + r] * a[p * K + r];
      }
      if (off <= 1e-32 * diag) break;
      for (std::size_t p = 0; p + 1 < K; ++p) {
        for (std::size_t r = p + 1; r < K; ++r) {
          const double apr = a[p * K + r];
          if (apr == 0.0) continue;
          const double theta = (a[r * K + r] - a[p * K + p]) / (2.0 * apr);
          const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                           (std::abs(theta) + std::sqrt(1.0 + theta * theta));
          const double c = 1.0 / std::sqrt(1.0 + t * t);
          const double s = c * t;
          rotate_columns<K>(a.data(), p, r, c, s);
          rotate_rows<K>(a.data(), p, r, c, s);
          rotate_columns<K>(q.data(), p, r, c, s);
        }
      }
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < K; ++i) {
      if (a[i * K + i] > a[best * K + best]) best = i;
    }
    for (std::size_t i = 0; i < K; ++i) direction[i] = q[i * K + best];
  }
};

// The number of doubles in a phase block of `cols` columns.
std::size_t block_stride(std::size_t cols) {
  return cols + cols * (cols + 1) / 2;
}

}  // namespace

template <std::size_t C>
double SvdDetector::feed_as(double value) {
  if (util::is_missing(value)) {
    // Hold the last value so the lag matrix stays well defined.
    if (has_last_) push<C>(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  const double* block = push<C>(value);
  if (held_ < rows_ * C) return 0.0;
  return sanitize_severity(
      std::abs(Kernel<C>::residual(block, direction_.data())));
}

template <std::size_t C>
const double* SvdDetector::push(double value) {
  if (phase_ == 0 && held_ > 0) rebuild_suffixes<C>();
  double* block = &by_phase_[phase_ * Kernel<C>::kStride];
  for (std::size_t m = C - 1; m > 0; --m) block[m] = block[m - 1];
  block[0] = value;
  const double* suffix = &suffix_[(phase_ + 1) * C];
  for (std::size_t lag = 0; lag < C; ++lag) {
    // block[lag] is the value lag·rows points back (0 before the stream).
    prefix_[lag] += value * block[lag];
    double* dots = block + Kernel<C>::kLagOffset[lag];
    for (std::size_t m = C - 1 - lag; m > 0; --m) dots[m] = dots[m - 1];
    dots[0] = prefix_[lag] + suffix[lag];
  }
  if (held_ < rows_ * C) ++held_;
  phase_ = phase_ + 1 == rows_ ? 0 : phase_ + 1;
  return block;
}

// A chunk of `rows` points just completed: every phase block still holds
// that chunk's point first, so its lagged products are recomputed from
// the blocks and summed from the back.
template <std::size_t C>
void SvdDetector::rebuild_suffixes() {
  for (std::size_t phase = rows_; phase-- > 0;) {
    const double* block = &by_phase_[phase * Kernel<C>::kStride];
    for (std::size_t lag = 0; lag < C; ++lag) {
      suffix_[phase * C + lag] =
          suffix_[(phase + 1) * C + lag] + block[0] * block[lag];
    }
  }
  std::fill(prefix_.begin(), prefix_.end(), 0.0);
}

SvdDetector::Feed SvdDetector::feed_for(std::size_t cols) {
  switch (cols) {
    case 2: return &SvdDetector::feed_as<2>;
    case 3: return &SvdDetector::feed_as<3>;
    case 4: return &SvdDetector::feed_as<4>;
    case 5: return &SvdDetector::feed_as<5>;
    case 6: return &SvdDetector::feed_as<6>;
    case 7: return &SvdDetector::feed_as<7>;
    case 8: return &SvdDetector::feed_as<8>;
    default: return nullptr;
  }
}

SvdDetector::SvdDetector(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  feed_ = feed_for(cols);
  if (rows == 0 || feed_ == nullptr) {
    throw std::invalid_argument(
        "SvdDetector: rows must be positive and cols in [2, 8]");
  }
  by_phase_.resize(rows_ * block_stride(cols_));
  prefix_.resize(cols_);
  suffix_.resize((rows_ + 1) * cols_);
  direction_.resize(cols_ - 1);
  reset();
}

std::string SvdDetector::name() const {
  std::ostringstream out;
  out << "svd(row=" << rows_ << ",col=" << cols_ << ')';
  return out.str();
}

double SvdDetector::feed(double value) {
  return (this->*feed_)(value);
}

void SvdDetector::reset() {
  std::fill(by_phase_.begin(), by_phase_.end(), 0.0);
  std::fill(prefix_.begin(), prefix_.end(), 0.0);
  std::fill(suffix_.begin(), suffix_.end(), 0.0);
  phase_ = 0;
  held_ = 0;
  // Cold start: the all-equal direction, dominant for any series with a
  // level.
  std::fill(direction_.begin(), direction_.end(),
            1.0 / std::sqrt(static_cast<double>(direction_.size())));
  has_last_ = false;
  last_value_ = 0.0;
}

}  // namespace opprentice::detectors
