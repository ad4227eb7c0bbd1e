#include "detectors/svd_detector.hpp"

#include <algorithm>
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
constexpr int kMaxRayleighIterations = 8;
constexpr int kMaxJacobiSweeps = 60;

// Solves m·z = z in place (k x k, row-major, m overwritten) by Gaussian
// elimination with partial pivoting; false when m is singular.
bool solve_in_place(double* m, double* z, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < k; ++r) {
      if (std::abs(m[r * k + c]) > std::abs(m[pivot * k + c])) pivot = r;
    }
    if (m[pivot * k + c] == 0.0) return false;
    if (pivot != c) {
      for (std::size_t j = c; j < k; ++j) std::swap(m[pivot * k + j], m[c * k + j]);
      std::swap(z[pivot], z[c]);
    }
    for (std::size_t r = c + 1; r < k; ++r) {
      const double f = m[r * k + c] / m[c * k + c];
      for (std::size_t j = c + 1; j < k; ++j) m[r * k + j] -= f * m[c * k + j];
      z[r] -= f * z[c];
    }
  }
  for (std::size_t c = k; c-- > 0;) {
    double sum = z[c];
    for (std::size_t j = c + 1; j < k; ++j) sum -= m[c * k + j] * z[j];
    z[c] = sum / m[c * k + c];
  }
  return true;
}

// m·J for the Jacobi rotation J of columns p and r (k x k, row-major).
void rotate_columns(double* m, std::size_t k, std::size_t p, std::size_t r,
                    double c, double s) {
  for (std::size_t i = 0; i < k; ++i) {
    const double x = m[i * k + p];
    const double y = m[i * k + r];
    m[i * k + p] = c * x - s * y;
    m[i * k + r] = s * x + c * y;
  }
}

// Jᵀ·m for the same rotation.
void rotate_rows(double* m, std::size_t k, std::size_t p, std::size_t r,
                 double c, double s) {
  for (std::size_t i = 0; i < k; ++i) {
    const double x = m[p * k + i];
    const double y = m[r * k + i];
    m[p * k + i] = c * x - s * y;
    m[r * k + i] = s * x + c * y;
  }
}

}  // namespace

SvdDetector::SvdDetector(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("SvdDetector: rows and cols must be positive");
  }
  lag_offset_.resize(cols_);
  stride_ = cols_;
  for (std::size_t lag = 0; lag < cols_; ++lag) {
    lag_offset_[lag] = stride_;
    stride_ += cols_ - lag;
  }
  by_phase_.resize(rows_ * stride_);
  prefix_.resize(cols_);
  suffix_.resize((rows_ + 1) * cols_);
  const std::size_t k = cols_ - 1;
  gram_.resize(k * k);
  direction_.resize(k);
  scratch_.resize(2 * k * k + 2 * k);
  reset();
}

std::string SvdDetector::name() const {
  std::ostringstream out;
  out << "svd(row=" << rows_ << ",col=" << cols_ << ')';
  return out.str();
}

double SvdDetector::feed(double value) {
  if (util::is_missing(value)) {
    // Hold the last value so the lag matrix stays well defined.
    if (has_last_) push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  const double* block = push(value);
  if (held_ < rows_ * cols_) return 0.0;
  return sanitize_severity(std::abs(residual(block)));
}

const double* SvdDetector::push(double value) {
  if (phase_ == 0 && held_ > 0) rebuild_suffixes();
  double* block = &by_phase_[phase_ * stride_];
  for (std::size_t m = cols_ - 1; m > 0; --m) block[m] = block[m - 1];
  block[0] = value;
  const double* suffix = &suffix_[(phase_ + 1) * cols_];
  for (std::size_t lag = 0; lag < cols_; ++lag) {
    // block[lag] is the value lag·rows points back (0 before the stream).
    prefix_[lag] += value * block[lag];
    double* dots = block + lag_offset_[lag];
    for (std::size_t m = cols_ - 1 - lag; m > 0; --m) dots[m] = dots[m - 1];
    dots[0] = prefix_[lag] + suffix[lag];
  }
  if (held_ < rows_ * cols_) ++held_;
  phase_ = phase_ + 1 == rows_ ? 0 : phase_ + 1;
  return block;
}

// A chunk of `rows` points just completed: every phase block still holds
// that chunk's point first, so its lagged products are recomputed from
// the blocks and summed from the back.
void SvdDetector::rebuild_suffixes() {
  for (std::size_t phase = rows_; phase-- > 0;) {
    const double* block = &by_phase_[phase * stride_];
    for (std::size_t lag = 0; lag < cols_; ++lag) {
      suffix_[phase * cols_ + lag] =
          suffix_[(phase + 1) * cols_ + lag] + block[0] * block[lag];
    }
  }
  std::fill(prefix_.begin(), prefix_.end(), 0.0);
}

// Column-major fill: column c of the lag matrix holds segment c of the
// window (oldest segment first), so the newest point lands at
// (rows-1, cols-1). The dominant subspace is learned from the *past*
// segments A only — otherwise a large anomaly in the newest segment y
// would dominate the basis and reconstruct itself with a near-zero
// residual. With v the dominant eigenvector of G = AᵀA and σ² = vᵀGv, the
// left singular vector is Av/σ, so the rank-1 reconstruction of y's last
// entry is (vᵀAᵀy/σ)·(a·v/σ), a being A's last row: the newest phase's
// values before the newest one.
double SvdDetector::residual(const double* block) {
  const std::size_t k = cols_ - 1;
  // Segments i <= j are j-i segments apart and segment j ends cols-1-j
  // chunks ago, so their dot product is that old value of the lag-(j-i)
  // sum at this phase.
  double trace = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      const double dot = block[lag_offset_[j - i] + (cols_ - 1 - j)];
      gram_[i * k + j] = dot;
      gram_[j * k + i] = dot;
    }
    trace += gram_[j * k + j];
  }
  const double newest = block[0];
  // util::svd's degenerate branches: no singular value above zero, or a
  // past segment whose squared norm overflows (an infinite singular value,
  // whose left singular vector it scales to zero).
  if (!(trace > 0.0) || std::isinf(trace)) return newest;
  dominant_direction(trace);

  double sigma2 = 0.0;
  double projection = 0.0;  // vᵀAᵀy
  double last_row = 0.0;    // a·v
  for (std::size_t i = 0; i < k; ++i) {
    double gv = 0.0;
    for (std::size_t j = 0; j < k; ++j) gv += gram_[i * k + j] * direction_[j];
    sigma2 += direction_[i] * gv;
    projection += direction_[i] * block[lag_offset_[cols_ - 1 - i]];
    last_row += direction_[i] * block[cols_ - 1 - i];
  }
  const double sigma = std::sqrt(sigma2);
  if (!(sigma > kZeroSigma)) return newest;
  return newest - (projection / sigma) * (last_row / sigma);
}

// Rayleigh quotient iteration, warm-started from the previous point's
// direction v: λ = vᵀGv, then v <- (G - λI)⁻¹v normalized, which
// converges cubically to the eigenvector nearest λ. G is positive
// semi-definite, so when λ exceeds half the trace every other eigenvalue
// lies below trace - λ, and the residual r = Gv - λv bounds the angle
// between v and the dominant eigenvector by |r|/(2λ - trace). Without
// that certificate (no dominant direction, or convergence to another
// eigenvector) a Jacobi eigen-solve decides.
void SvdDetector::dominant_direction(double trace) {
  const std::size_t k = direction_.size();
  double* v = direction_.data();
  double* gv = scratch_.data();
  double* m = gv + k;
  double* z = m + k * k;
  for (int iteration = 0; iteration < kMaxRayleighIterations; ++iteration) {
    double lambda = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < k; ++j) sum += gram_[i * k + j] * v[j];
      gv[i] = sum;
      lambda += v[i] * sum;
    }
    double residual2 = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double r = gv[i] - lambda * v[i];
      residual2 += r * r;
    }
    const double gap = 2.0 * lambda - trace;
    if (std::sqrt(residual2) <=
        kDirectionTolerance * (gap > 0.0 ? gap : lambda)) {
      if (gap > 0.0) return;
      break;  // an eigenvector, but not the dominant one
    }
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) m[i * k + j] = gram_[i * k + j];
      m[i * k + i] -= lambda;
      z[i] = v[i];
    }
    if (!solve_in_place(m, z, k)) break;
    double norm2 = 0.0;
    for (std::size_t i = 0; i < k; ++i) norm2 += z[i] * z[i];
    if (!(norm2 > 0.0) || std::isinf(norm2)) break;
    const double inv_norm = 1.0 / std::sqrt(norm2);
    for (std::size_t i = 0; i < k; ++i) v[i] = z[i] * inv_norm;
  }
  jacobi_direction();
}

// Cyclic Jacobi eigen-solve of the Gram matrix; the eigenvector of the
// largest eigenvalue becomes the direction.
void SvdDetector::jacobi_direction() {
  const std::size_t k = direction_.size();
  double* a = scratch_.data();
  double* q = a + k * k;
  for (std::size_t i = 0; i < k * k; ++i) {
    a[i] = gram_[i];
    q[i] = i % (k + 1) == 0 ? 1.0 : 0.0;
  }
  for (int sweep = 0; sweep < kMaxJacobiSweeps; ++sweep) {
    double off = 0.0;
    double diag = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      diag += a[p * k + p] * a[p * k + p];
      for (std::size_t r = p + 1; r < k; ++r) off += a[p * k + r] * a[p * k + r];
    }
    if (off <= 1e-32 * diag) break;
    for (std::size_t p = 0; p + 1 < k; ++p) {
      for (std::size_t r = p + 1; r < k; ++r) {
        const double apr = a[p * k + r];
        if (apr == 0.0) continue;
        const double theta = (a[r * k + r] - a[p * k + p]) / (2.0 * apr);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate_columns(a, k, p, r, c, s);
        rotate_rows(a, k, p, r, c, s);
        rotate_columns(q, k, p, r, c, s);
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (a[i * k + i] > a[best * k + best]) best = i;
  }
  for (std::size_t i = 0; i < k; ++i) direction_[i] = q[i * k + best];
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
