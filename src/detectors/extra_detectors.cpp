#include "detectors/extra_detectors.hpp"

#include <cmath>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {

CusumDetector::CusumDetector(double k, std::size_t window)
    : k_(k), window_(window), history_(window) {}

std::string CusumDetector::name() const {
  std::ostringstream out;
  out << "cusum(k=" << k_ << ",win=" << window_ << ')';
  return out.str();
}

double CusumDetector::feed(double value) {
  if (util::is_missing(value)) return 0.0;
  double severity = 0.0;
  if (history_.full()) {
    const double mean = util::mean(history_.window());
    const double sd = util::stddev(history_.window());
    const double z = (value - mean) / std::max(sd, 1e-9 * std::abs(mean) + 1e-12);
    s_pos_ = std::max(0.0, s_pos_ + z - k_);
    s_neg_ = std::max(0.0, s_neg_ - z - k_);
    severity = std::max(s_pos_, s_neg_);
  }
  history_.push(value);
  return sanitize_severity(severity);
}

void CusumDetector::reset() {
  history_.clear();
  s_pos_ = 0.0;
  s_neg_ = 0.0;
}

HoltDetector::HoltDetector(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {}

std::string HoltDetector::name() const {
  std::ostringstream out;
  out << "holt(a=" << alpha_ << ",b=" << beta_ << ')';
  return out.str();
}

double HoltDetector::feed(double value) {
  if (util::is_missing(value)) return 0.0;
  if (seen_ == 0) {
    level_ = value;
    ++seen_;
    return 0.0;
  }
  if (seen_ == 1) {
    trend_ = value - level_;
    level_ = value;
    ++seen_;
    return 0.0;
  }
  const double forecast = level_ + trend_;
  const double severity = std::abs(value - forecast);
  const double prev_level = level_;
  level_ = alpha_ * value + (1.0 - alpha_) * (prev_level + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  return sanitize_severity(severity);
}

void HoltDetector::reset() {
  level_ = 0.0;
  trend_ = 0.0;
  seen_ = 0;
}

void register_extension_families(DetectorRegistry& registry) {
  registry.register_family("cusum", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (double k : {0.5, 1.0, 2.0}) {
      out.push_back(std::make_unique<CusumDetector>(k, 50));
    }
    return out;
  });
  registry.register_family("holt", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (double a : {0.3, 0.7}) {
      for (double b : {0.3, 0.7}) {
        out.push_back(std::make_unique<HoltDetector>(a, b));
      }
    }
    return out;
  });
}

}  // namespace opprentice::detectors
