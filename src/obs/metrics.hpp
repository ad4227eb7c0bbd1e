// Metrics registry: named counters, gauges, and exponential-bucket
// latency histograms with lock-cheap atomic updates.
//
// Registration (name lookup) takes a mutex; instruments returned by the
// registry have stable addresses for the lifetime of the registry, so hot
// paths look an instrument up once (e.g. in a function-local static) and
// then update it with relaxed atomics only. Snapshots render to
// Prometheus-style text or JSON; both are value-consistent when no writer
// is concurrently active (writers never block a snapshot, so a snapshot
// taken mid-update may lag individual instruments by one update).
//
// Naming convention (see DESIGN.md "Observability"): dot-separated
// lowercase path, unit as the last component for histograms
// ("opprentice.forest.train.ms", "opprentice.extract.family.ewma.us").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::obs {

// Monotonically increasing count of events.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins scalar.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Exponential-bucket histogram for non-negative values (latencies).
//
// Bucket i covers (upper_bound(i-1), upper_bound(i)] with
// upper_bound(i) = 2^(kMinExponent + i); bucket 0 also absorbs
// everything <= 2^kMinExponent (including zero and negatives), and the
// last bucket is unbounded. With kMinExponent = -10 and 64 buckets the
// finite bounds span ~0.001 .. 2^52, which covers nanoseconds-to-hours
// whether the unit is microseconds or milliseconds.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;
  static constexpr int kMinExponent = -10;

  // Inclusive upper bound of bucket i; +inf for the last bucket.
  static double upper_bound(std::size_t i);
  // Exclusive lower bound of bucket i; 0 for bucket 0.
  static double lower_bound(std::size_t i);
  // Index of the bucket that receives `v`.
  static std::size_t bucket_index(double v);

  void record(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min_value() const;  // +inf when empty
  double max_value() const;  // 0 when empty
  double mean() const;
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Linearly interpolated quantile estimate from the bucket counts,
  // clamped to the observed [min, max]. q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

// Name -> instrument registry. Instruments are created on first lookup
// and never destroyed before the registry; references stay valid.
class Registry {
 public:
  // Process-wide registry used by the library's instrumentation.
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Registered names, sorted (for tests and renderers).
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  // Prometheus text exposition ('.' in names becomes '_').
  std::string prometheus_text() const;
  // JSON snapshot; schema documented in DESIGN.md "Observability".
  std::string json() const;

  // Zeroes every instrument but keeps them registered (references held by
  // call sites stay valid). Intended for tests and bench harnesses.
  void reset_values();

 private:
  mutable util::Mutex mutex_{util::LockLevel::metrics_registry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      OPPRENTICE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      OPPRENTICE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      OPPRENTICE_GUARDED_BY(mutex_);
};

// Shorthands against the process-wide registry.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

// Writes a snapshot of the process-wide registry: Prometheus text when
// `path` ends in ".prom" or ".txt", JSON otherwise. Returns false when the
// file cannot be written.
bool write_metrics_file(const std::string& path);

// When false (the default), hot paths skip per-event clock reads and only
// maintain cheap relaxed counters; detailed latency histograms and spans
// stay empty. Enabled by tracing, by the CLI --metrics flag, and by the
// bench --json emitters.
bool detailed_timing_enabled();
void set_detailed_timing(bool enabled);

}  // namespace opprentice::obs
