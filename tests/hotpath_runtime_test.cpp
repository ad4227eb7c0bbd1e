// The per-point hot-path contract (DESIGN.md §5g), checked at run time:
// every hot root, driven in steady state, allocates nothing and takes no
// lock. §5.8's practicality claim — classification lag << extraction lag
// << data interval — rests on it.
//
// The binary replaces the global operator new/delete to count the calling
// thread's allocations, which is why it is an executable of its own.
// Every root runs while the test holds a util::Mutex at
// LockLevel::log_write, the top of the lock order, so any lock the root
// takes — obs::log's log_write included — aborts with both lock names
// (util/mutex.hpp).
//
// This file is the list of hot roots:
//   - StreamingExtractor::feed_into over the full 133-configuration bank;
//   - every detector family's feed (kFamilies below, which must match
//     the registry plus the extension families);
//   - RandomForest::score and RandomForest::classify;
//   - core::DurationFilter::feed;
//   - net::decode_frame_header and net::SourceTracker::observe.
// StreamingExtractor::feed is not one: it returns a fresh vector by
// contract, and feed_into is its allocation-free form.
//
// Each root is warmed past its window plus a day, then measured over two
// days of 10-minute points. ARIMA's daily refit is the one reviewed
// exception: it may allocate on at most one point per configuration per
// day.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/duration_filter.hpp"
#include "detectors/extra_detectors.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "net/framing.hpp"
#include "net/source_state.hpp"
#include "obs/log.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace {

// Allocations made by the calling thread (trivially constructed, so the
// replaced operator new may touch it on any thread at any time).
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every form is replaced: a sanitizer runtime supplies its own defaults
// for any form left out, and those would not be counted.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace opprentice;

constexpr std::size_t kPointsPerDay = 144;  // 10-minute bins
constexpr std::size_t kMeasuredPoints = 2 * kPointsPerDay;
const detectors::SeriesContext kCtx{kPointsPerDay, 7 * kPointsPerDay};

// The 14 paper families plus the two extension families; see
// EveryRegisteredFamilyIsListed.
const char* const kFamilies[] = {
    "simple_threshold", "diff",           "simple_ma",
    "weighted_ma",      "ma_of_diff",     "ewma",
    "tsd",              "tsd_mad",        "historical_average",
    "historical_mad",   "holt_winters",   "svd",
    "wavelet",          "arima",          "cusum",
    "holt"};

// Held around every measured call: nothing may be locked inside it.
constinit util::Mutex g_top_level{util::LockLevel::log_write};

// Runs step(i) for i in [0, n) under g_top_level and returns how many
// steps allocated on the calling thread.
template <typename Step>
std::size_t allocating_steps(std::size_t n, Step&& step) {
  util::MutexLock hold(g_top_level);
  std::size_t allocating = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = t_allocations;
    step(i);
    if (t_allocations != before) ++allocating;
  }
  return allocating;
}

// A daily-seasonal KPI with noise, occasional spikes and missing points,
// so the steady state crosses every branch a real stream does.
std::vector<double> kpi_stream(std::size_t n) {
  util::Rng rng(20261017);
  std::vector<double> out(n);
  constexpr double kTwoPi = 6.283185307179586;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = kTwoPi * static_cast<double>(i % kPointsPerDay) /
                         static_cast<double>(kPointsPerDay);
    out[i] = 100.0 + 20.0 * std::sin(phase) + rng.normal(0.0, 2.0);
    if (i % 211 == 0) out[i] += 60.0;
    if (i % 97 == 0) out[i] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

detectors::DetectorRegistry all_families() {
  auto registry = detectors::DetectorRegistry::with_standard_families();
  detectors::register_extension_families(registry);
  return registry;
}

// Steps over two days of steady state on which `detector` allocated.
std::size_t detector_allocating_steps(detectors::Detector& detector) {
  const std::size_t warm = detector.warmup_points() + kPointsPerDay;
  const std::vector<double> stream = kpi_stream(warm + kMeasuredPoints);
  for (std::size_t i = 0; i < warm; ++i) detector.feed(stream[i]);
  double sink = 0.0;
  const auto step = [&](std::size_t i) {
    sink += detector.feed(stream[warm + i]);
  };
  const std::size_t steps = allocating_steps(kMeasuredPoints, step);
  EXPECT_FALSE(std::isnan(sink));
  return steps;
}

TEST(HotPath, EveryRegisteredFamilyIsListed) {
  const std::vector<std::string> registered = all_families().family_names();
  EXPECT_EQ(registered,
            std::vector<std::string>(std::begin(kFamilies),
                                     std::end(kFamilies)));
}

class DetectorFeed : public ::testing::TestWithParam<const char*> {};

TEST_P(DetectorFeed, SteadyStateAllocatesNothingAndTakesNoLock) {
  const std::string family = GetParam();
  const std::size_t allowed =
      family == "arima" ? kMeasuredPoints / kPointsPerDay : 0;
  auto configs = all_families().instantiate_family(family, kCtx);
  ASSERT_FALSE(configs.empty());
  for (auto& detector : configs) {
    EXPECT_LE(detector_allocating_steps(*detector), allowed)
        << detector->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Families, DetectorFeed,
                         ::testing::ValuesIn(kFamilies),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(HotPath, StreamingExtractorFeedIntoOverTheFullBank) {
  detectors::StreamingExtractor extractor(
      detectors::standard_configurations(kCtx));
  ASSERT_EQ(extractor.num_features(), detectors::kStandardConfigurationCount);
  std::size_t arima_configs = 0;
  for (const auto& name : extractor.feature_names()) {
    if (detectors::family_of(name) == "arima") ++arima_configs;
  }
  ASSERT_GT(arima_configs, 0u);

  const std::size_t warm = extractor.max_warmup() + kPointsPerDay;
  const std::vector<double> stream = kpi_stream(warm + kMeasuredPoints);
  std::vector<double> features(extractor.num_features());
  for (std::size_t i = 0; i < warm; ++i) {
    extractor.feed_into(stream[i], features);
  }
  ASSERT_TRUE(extractor.warmed_up());
  const auto step = [&](std::size_t i) {
    extractor.feed_into(stream[warm + i], features);
  };
  EXPECT_LE(allocating_steps(kMeasuredPoints, step),
            arima_configs * kMeasuredPoints / kPointsPerDay);
}

TEST(HotPath, RandomForestScoreAndClassify) {
  constexpr std::size_t kRows = 400;
  constexpr std::size_t kFeatures = 4;
  util::Rng rng(7);
  std::vector<std::vector<double>> columns(kFeatures,
                                           std::vector<double>(kRows));
  std::vector<std::uint8_t> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& column : columns) column[r] = rng.uniform();
    labels[r] = columns[0][r] + columns[1][r] > 1.2 ? 1 : 0;
  }
  ml::ForestOptions options;
  options.num_trees = 16;
  ml::RandomForest forest(options);
  forest.train(ml::Dataset({"a", "b", "c", "d"}, columns, labels));

  std::vector<std::vector<double>> rows(kMeasuredPoints,
                                        std::vector<double>(kFeatures));
  for (auto& row : rows) {
    for (double& v : row) v = rng.uniform();
  }
  // First calls initialize the instruments' magic statics.
  (void)forest.score(rows[0]);
  (void)forest.classify(rows[0]);

  std::size_t anomalies = 0;
  const auto step = [&](std::size_t i) {
    const double score = forest.score(rows[i]);
    if (forest.classify(rows[i], 0.5) != (score >= 0.5)) ADD_FAILURE();
    if (score >= 0.5) ++anomalies;
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_GT(anomalies, 0u);
}

TEST(HotPath, DurationFilterFeed) {
  core::DurationFilter filter({3, 1});
  std::size_t alarms = 0;
  const auto step = [&](std::size_t i) {
    if (filter.feed(i % 10 < 4 || i % 10 == 5)) ++alarms;
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_GT(alarms, 0u);
}

TEST(HotPath, DecodeFrameHeader) {
  net::DataPayload payload;
  payload.series_id = "pv";
  payload.points = {{600, 1.0}, {1200, 2.0}};
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(net::make_data(41, payload));
  std::uint64_t seq_sum = 0;
  const auto step = [&](std::size_t) {
    seq_sum += net::decode_frame_header(bytes.data()).seq;
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_EQ(seq_sum, 41u * kMeasuredPoints);
}

TEST(HotPath, SourceTrackerObserve) {
  net::SourceTracker tracker;
  const auto step = [&](std::size_t i) {
    // In order, with a duplicate, a reorder and a gap every 16 frames.
    const auto base = static_cast<std::uint32_t>(i + 1);
    const std::uint32_t seq = i % 16 == 5   ? base - 1
                              : i % 16 == 9 ? base + 2
                                            : base;
    tracker.observe(seq, i);
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_GT(tracker.counters().duplicates + tracker.counters().reordered +
                tracker.counters().gap_frames,
            0u);
}

// ---- planted violations: the checks above must catch them ----

// Allocates a scratch buffer on every point.
class PushBackDetector final : public detectors::Detector {
 public:
  std::string name() const override { return "planted_push_back"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double value) override {
    std::vector<double> scratch;
    scratch.push_back(value);
    return scratch.size() > 0 ? 0.0 : 1.0;
  }
  void reset() override {}
};

// Logs on every point, which takes the log_write lock.
class LoggingDetector final : public detectors::Detector {
 public:
  std::string name() const override { return "planted_log"; }
  std::size_t warmup_points() const override { return 0; }
  double feed(double value) override {
    obs::log(obs::LogLevel::kWarn, "planted", "feed", {{"value", value}});
    return 0.0;
  }
  void reset() override {}
};

TEST(HotPathPlanted, AllocationIsCaughtDirectlyAndThroughTheExtractor) {
  PushBackDetector direct;
  EXPECT_EQ(detector_allocating_steps(direct), kMeasuredPoints);

  std::vector<detectors::DetectorPtr> bank;
  bank.push_back(std::make_unique<PushBackDetector>());
  detectors::StreamingExtractor extractor(std::move(bank));
  std::vector<double> features(extractor.num_features());
  const auto step = [&](std::size_t i) {
    extractor.feed_into(static_cast<double>(i), features);
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), kMeasuredPoints);
}

TEST(HotPathPlantedDeathTest, LockIsCaughtByTheHeldTopLevel) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        obs::set_log_level(obs::LogLevel::kWarn);
        LoggingDetector detector;
        detector_allocating_steps(detector);
      },
      "acquiring 'log_write'.*while holding 'log_write'");
}

}  // namespace
