// Unit tests for src/detectors: the 14 basic detectors, the configuration
// registry (Table 3), and feature extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "detectors/arima_detector.hpp"
#include "detectors/basic_detectors.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/holt_winters_detector.hpp"
#include "detectors/registry.hpp"
#include "detectors/ring_buffer.hpp"
#include "detectors/seasonal_detectors.hpp"
#include "detectors/svd_detector.hpp"
#include "detectors/wavelet_detector.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::detectors;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Small calendar so seasonal detectors warm up quickly: hourly data.
SeriesContext small_ctx() {
  return SeriesContext{24, 168};
}

// A noisy daily-periodic signal with a big spike at `spike_at`.
std::vector<double> periodic_with_spike(std::size_t n, std::size_t spike_at,
                                        double spike_factor = 3.0,
                                        std::uint64_t seed = 1) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = static_cast<double>(i % 24) / 24.0;
    xs[i] = 100.0 + 30.0 * std::sin(2 * 3.14159265 * phase) +
            rng.normal(0.0, 1.0);
  }
  if (spike_at < n) xs[spike_at] *= spike_factor;
  return xs;
}

// ---- RingBuffer ----

TEST(RingBuffer, PushAndBack) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.back(0), 3);
  EXPECT_EQ(rb.back(2), 1);
  rb.push(4);  // evicts 1
  EXPECT_EQ(rb.back(0), 4);
  EXPECT_EQ(rb.back(2), 2);
  EXPECT_THROW(rb.back(3), std::out_of_range);
}

std::vector<int> window_of(const RingBuffer<int>& rb) {
  const std::span<const int> window = rb.window();
  return std::vector<int>(window.begin(), window.end());
}

TEST(RingBuffer, WindowIsContiguousOldestFirst) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.window().empty());
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(window_of(rb), (std::vector<int>{1, 2}));  // partial fill
  for (int i = 3; i <= 7; ++i) {
    rb.push(i);
    // Every wrap position reads the last three, oldest first.
    const std::vector<int> want{std::max(1, i - 2), std::max(2, i - 1), i};
    EXPECT_EQ(window_of(rb), want) << "after pushing " << i;
    EXPECT_EQ(rb.window().back(), rb.back(0));
  }

  RingBuffer<int> one(1);
  one.push(4);
  one.push(9);
  EXPECT_EQ(window_of(one), (std::vector<int>{9}));

  rb.clear();
  EXPECT_TRUE(rb.window().empty());
  rb.push(8);
  EXPECT_EQ(window_of(rb), (std::vector<int>{8}));
}

TEST(RingBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

// ---- Generic properties over all 133 configurations ----

struct NamedConfig {
  std::string family;
  std::size_t index;
};

class AllConfigurations
    : public ::testing::TestWithParam<std::string> {  // family name
 protected:
  std::vector<DetectorPtr> make_family() {
    return DetectorRegistry::with_standard_families().instantiate_family(
        GetParam(), small_ctx());
  }
};

TEST_P(AllConfigurations, SeveritiesNonNegativeAndFinite) {
  for (auto& d : make_family()) {
    const auto xs = periodic_with_spike(600, 500);
    for (double x : xs) {
      const double s = d->feed(x);
      EXPECT_GE(s, 0.0) << d->name();
      EXPECT_TRUE(std::isfinite(s)) << d->name();
    }
  }
}

TEST_P(AllConfigurations, MissingInputYieldsZeroAndRecovers) {
  for (auto& d : make_family()) {
    const auto xs = periodic_with_spike(400, 1000);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double x = (i >= 200 && i < 210) ? kNaN : xs[i];
      const double s = d->feed(x);
      if (std::isnan(x)) {
        EXPECT_EQ(s, 0.0) << d->name() << " at " << i;
      } else {
        EXPECT_TRUE(std::isfinite(s)) << d->name() << " at " << i;
      }
    }
  }
}

TEST_P(AllConfigurations, ResetReproducesIdenticalStream) {
  for (auto& d : make_family()) {
    const auto xs = periodic_with_spike(500, 450);
    std::vector<double> first;
    for (double x : xs) first.push_back(d->feed(x));
    d->reset();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_DOUBLE_EQ(d->feed(xs[i]), first[i])
          << d->name() << " at " << i;
    }
  }
}

TEST_P(AllConfigurations, OnlineCausality) {
  // Severities of a prefix must not depend on what comes after it
  // (§4.3.2: detectors must work online).
  for (auto& d : make_family()) {
    const auto xs = periodic_with_spike(400, 1000);
    std::vector<double> full;
    for (double x : xs) full.push_back(d->feed(x));
    d->reset();
    // Feed only the first half and compare.
    for (std::size_t i = 0; i < 200; ++i) {
      EXPECT_DOUBLE_EQ(d->feed(xs[i]), full[i]) << d->name() << " at " << i;
    }
  }
}

TEST_P(AllConfigurations, WarmupFitsInsideInitialTrainingSet) {
  // All warm-ups must fit comfortably inside the paper's 8-week initial
  // training set (the largest is SVD's row*col window).
  for (auto& d : make_family()) {
    EXPECT_LE(d->warmup_points(), 3 * small_ctx().points_per_week)
        << d->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllConfigurations,
    ::testing::Values("simple_threshold", "diff", "simple_ma", "weighted_ma",
                      "ma_of_diff", "ewma", "tsd", "tsd_mad",
                      "historical_average", "historical_mad", "holt_winters",
                      "svd", "wavelet", "arima"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// ---- Specific detector semantics ----

TEST(SimpleThreshold, SeverityIsTheValue) {
  SimpleThresholdDetector d;
  EXPECT_DOUBLE_EQ(d.feed(42.0), 42.0);
  EXPECT_DOUBLE_EQ(d.feed(0.0), 0.0);
  // Negative values clamp to zero severity (severities are non-negative).
  EXPECT_DOUBLE_EQ(d.feed(-5.0), 0.0);
}

TEST(Diff, LastSlotMeasuresStepChange) {
  DiffDetector d(DiffLag::kLastSlot, small_ctx());
  d.feed(10.0);
  EXPECT_DOUBLE_EQ(d.feed(13.0), 3.0);
  EXPECT_DOUBLE_EQ(d.feed(7.0), 6.0);
}

TEST(Diff, LastDayComparesSameHourYesterday) {
  DiffDetector d(DiffLag::kLastDay, small_ctx());
  std::vector<double> day1(24);
  for (std::size_t i = 0; i < 24; ++i) day1[i] = static_cast<double>(i);
  for (double x : day1) EXPECT_EQ(d.feed(x), 0.0);  // warm-up
  EXPECT_DOUBLE_EQ(d.feed(5.0), 5.0);   // vs day1[0] = 0
  EXPECT_DOUBLE_EQ(d.feed(1.0), 0.0);   // vs day1[1] = 1
}

TEST(Diff, WeekLagNamesDiffer) {
  const auto ctx = small_ctx();
  EXPECT_NE(DiffDetector(DiffLag::kLastDay, ctx).name(),
            DiffDetector(DiffLag::kLastWeek, ctx).name());
}

TEST(SimpleMa, ResidualAgainstWindowMean) {
  SimpleMaDetector d(3);
  d.feed(1.0);
  d.feed(2.0);
  d.feed(3.0);
  // Window mean = 2; |5 - 2| = 3.
  EXPECT_DOUBLE_EQ(d.feed(5.0), 3.0);
}

TEST(SimpleMa, FlatSignalZeroSeverity) {
  SimpleMaDetector d(5);
  for (int i = 0; i < 20; ++i) {
    const double s = d.feed(7.0);
    if (i >= 5) {
      EXPECT_DOUBLE_EQ(s, 0.0);
    }
  }
}

TEST(WeightedMa, RecentPointsWeighMore) {
  WeightedMaDetector d(2);
  d.feed(0.0);
  d.feed(3.0);
  // weights: newest=2, older=1 -> mean = (2*3 + 1*0)/3 = 2; |6-2| = 4.
  EXPECT_DOUBLE_EQ(d.feed(6.0), 4.0);
}

TEST(MaOfDiff, DetectsSustainedJitter) {
  MaOfDiffDetector d(4);
  // Flat first: zero severity once warm.
  for (int i = 0; i < 10; ++i) d.feed(10.0);
  double flat = d.feed(10.0);
  EXPECT_DOUBLE_EQ(flat, 0.0);
  // Alternating +-5 jitter: the MA of |diffs| ramps toward 10.
  double last = 0.0;
  for (int i = 0; i < 8; ++i) last = d.feed(i % 2 == 0 ? 15.0 : 5.0);
  EXPECT_NEAR(last, 10.0, 1e-9);
}

TEST(Ewma, PredictionTracksLevel) {
  EwmaDetector d(0.5);
  d.feed(10.0);  // initializes prediction
  EXPECT_DOUBLE_EQ(d.feed(10.0), 0.0);
  // prediction stays 10 -> jump to 20 has severity 10.
  EXPECT_DOUBLE_EQ(d.feed(20.0), 10.0);
  // prediction now 15 -> severity of 20 is 5.
  EXPECT_DOUBLE_EQ(d.feed(20.0), 5.0);
}

TEST(Ewma, HighAlphaAdaptsFaster) {
  EwmaDetector fast(0.9), slow(0.1);
  fast.feed(10.0);
  slow.feed(10.0);
  fast.feed(20.0);
  slow.feed(20.0);
  // After seeing the jump, the fast detector's next severity is smaller.
  EXPECT_LT(fast.feed(20.0), slow.feed(20.0));
}

TEST(Tsd, SpikeScoresFarAboveNormal) {
  TsdDetector d(3, small_ctx());
  const std::size_t spike_at = 3 * 168 + 50;
  const auto xs = periodic_with_spike(4 * 168, spike_at);
  double spike_severity = 0.0, normal_sum = 0.0;
  std::size_t normal_n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == spike_at) {
      spike_severity = s;
    } else if (i > 2 * 168) {
      normal_sum += s;
      ++normal_n;
    }
  }
  EXPECT_GT(spike_severity,
            10.0 * normal_sum / static_cast<double>(normal_n));
}

TEST(TsdMad, RobustToPriorOutlier) {
  // An extreme outlier in the history corrupts the mean-based template
  // more than the median-based one.
  const auto ctx = small_ctx();
  TsdDetector mean_based(3, ctx);
  TsdMadDetector median_based(3, ctx);
  auto xs = periodic_with_spike(5 * 168, 1000000);
  // Plant an extreme corruption at the same slot in week 3.
  const std::size_t slot = 3 * 168 + 7;
  xs[slot] = 100000.0;
  const std::size_t probe = 4 * 168 + 7;  // same slot a week later
  double sev_mean = 0.0, sev_median = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double a = mean_based.feed(xs[i]);
    const double b = median_based.feed(xs[i]);
    if (i == probe) {
      sev_mean = a;
      sev_median = b;
    }
  }
  // The probe point is normal: the robust variant should flag it less.
  EXPECT_LT(sev_median, sev_mean);
}

TEST(HistoricalAverage, CountsSigmasFromSlotMean) {
  HistoricalAverageDetector d(2, small_ctx());
  const auto xs = periodic_with_spike(6 * 168, 5 * 168 + 12, 2.0, 3);
  double spike_sev = 0.0;
  double late_normal = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == 5 * 168 + 12) spike_sev = s;
    if (i == 5 * 168 + 13) late_normal = s;
  }
  EXPECT_GT(spike_sev, 5.0);       // a 2x spike is many sigmas out
  EXPECT_LT(late_normal, spike_sev / 3.0);
}

TEST(HoltWinters, LearnsDailySeasonality) {
  HoltWintersDetector d(0.4, 0.2, 0.4, small_ctx());
  std::vector<double> xs(8 * 24);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 50.0 + 20.0 * std::sin(2 * 3.14159265 *
                                   static_cast<double>(i % 24) / 24.0);
  }
  double late_sum = 0.0;
  std::size_t late_n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i >= 6 * 24) {
      late_sum += s;
      ++late_n;
    }
  }
  // After several days the additive seasonal model tracks the clean
  // sinusoid closely.
  EXPECT_LT(late_sum / static_cast<double>(late_n), 1.0);
}

TEST(HoltWinters, FlagsSpikeAfterWarmup) {
  HoltWintersDetector d(0.4, 0.2, 0.4, small_ctx());
  const std::size_t spike_at = 5 * 24 + 7;
  const auto xs = periodic_with_spike(7 * 24, spike_at);
  double spike_sev = 0.0, before = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == spike_at - 1) before = s;
    if (i == spike_at) spike_sev = s;
  }
  EXPECT_GT(spike_sev, 10.0 * (before + 1.0));
}

TEST(Svd, NearZeroResidualOnRepeatingSegments) {
  SvdDetector d(10, 3);
  // A 10-periodic signal makes all lag-matrix columns identical -> rank 1.
  double last = 1.0;
  for (int i = 0; i < 120; ++i) {
    last = d.feed(10.0 + (i % 10));
  }
  EXPECT_NEAR(last, 0.0, 1e-9);
}

TEST(Svd, SpikeRaisesResidual) {
  SvdDetector d(10, 3);
  double base = 0.0;
  for (int i = 0; i < 100; ++i) base = d.feed(10.0 + (i % 10));
  const double spike = d.feed(200.0);
  EXPECT_GT(spike, 10.0);
  EXPECT_GT(spike, 100.0 * (base + 1e-9));
}

TEST(Svd, ColumnCountsWithoutAKernelAreRejected) {
  for (const std::size_t cols : {0u, 1u, 9u}) {
    EXPECT_THROW(SvdDetector(10, cols), std::invalid_argument) << cols;
  }
  EXPECT_THROW(SvdDetector(0, 3), std::invalid_argument);
  for (const std::size_t cols : {2u, 8u}) {
    SvdDetector d(10, cols);
    double last = 1.0;
    for (int i = 0; i < 200; ++i) last = d.feed(10.0 + (i % 10));
    EXPECT_NEAR(last, 0.0, 1e-9) << cols;
  }
}

// ---- the shared seasonal slot store ----

TEST(SeasonalSlotStore, OneStorePerBankAndPerInstantiatedFamily) {
  const auto registry = DetectorRegistry::with_standard_families();
  const auto bank = registry.instantiate_all(small_ctx());
  const void* store = nullptr;
  const void* holt_winters = nullptr;
  std::size_t readers = 0;
  std::size_t lanes = 0;
  for (const DetectorPtr& d : bank) {
    const std::string family = family_of(d->name());
    const bool seasonal = family == "tsd" || family == "tsd_mad" ||
                          family == "historical_average" ||
                          family == "historical_mad";
    if (family == "holt_winters") {
      ASSERT_NE(d->shared_state(), nullptr) << d->name();
      if (holt_winters == nullptr) holt_winters = d->shared_state();
      EXPECT_EQ(d->shared_state(), holt_winters) << d->name();
      ++lanes;
      continue;
    }
    if (!seasonal) {
      EXPECT_EQ(d->shared_state(), nullptr) << d->name();
      continue;
    }
    ASSERT_NE(d->shared_state(), nullptr) << d->name();
    if (store == nullptr) store = d->shared_state();
    EXPECT_EQ(d->shared_state(), store) << d->name();
    ++readers;
  }
  EXPECT_EQ(readers, 20u);
  EXPECT_EQ(lanes, 64u);
  EXPECT_NE(store, holt_winters);

  const auto tsd = registry.instantiate_family("tsd", small_ctx());
  EXPECT_NE(tsd.front()->shared_state(), store);
  EXPECT_EQ(tsd.front()->shared_state(), tsd.back()->shared_state());
  const TsdDetector alone(2, small_ctx());
  EXPECT_NE(alone.shared_state(), tsd.front()->shared_state());
}

// Readers of one store move in step. A reader that starts over from
// point 0 restarts the store (a caller running the readers one after the
// other), but one left behind mid-stream is a caller's bug and throws.
TEST(SeasonalSlotStore, ReaderLeftBehindThrows) {
  auto pair = DetectorRegistry::with_standard_families().instantiate_family(
      "historical_mad", small_ctx());
  Detector& a = *pair[0];
  Detector& b = *pair[1];
  a.feed(1.0);
  b.feed(1.0);
  a.feed(2.0);
  b.feed(2.0);
  b.feed(3.0);
  b.feed(4.0);
  EXPECT_THROW(a.feed(3.0), std::logic_error);  // two points behind b

  const auto xs = periodic_with_spike(6 * 168, 5 * 168 + 7);
  a.reset();
  b.reset();
  std::vector<double> in_step;
  for (const double x : xs) {
    a.feed(x);
    in_step.push_back(b.feed(x));
  }
  a.reset();
  b.reset();
  for (const double x : xs) a.feed(x);
  std::vector<double> after_a;  // b's point 0 restarts the store
  for (const double x : xs) after_a.push_back(b.feed(x));
  EXPECT_EQ(after_a, in_step);
}

// ---- the Holt-Winters bank ----

// A daily cycle for the bank with a leading missing run (the bootstrap
// waits for it), a missing run later, a dead stretch and spikes.
std::vector<double> holt_winters_stream() {
  std::vector<double> xs = periodic_with_spike(5 * 168, 300, 8.0, 9);
  for (std::size_t i = 0; i < 5; ++i) xs[i] = kNaN;
  for (std::size_t i = 100; i < 130; ++i) xs[i] = kNaN;
  for (std::size_t i = 400; i < 440; ++i) xs[i] = 0.0;
  xs[600] = -1e6;
  return xs;
}

std::vector<DetectorPtr> holt_winters_family() {
  return DetectorRegistry::with_standard_families().instantiate_family(
      "holt_winters", small_ctx());
}

std::vector<std::vector<double>> stream_rows(StreamingExtractor& extractor,
                                             const std::vector<double>& xs) {
  std::vector<std::vector<double>> rows;
  for (const double x : xs) rows.push_back(extractor.feed(x));
  return rows;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The 64 configurations are lanes of one bank. Each lane equals a lone
// configuration with a bank of its own, and batch extraction (the bank's
// readers form one task) equals streaming, at threads 1 and 4.
TEST(HoltWintersBank, LanesMatchLoneConfigurationsBatchAndStreaming) {
  const std::vector<double> xs = holt_winters_stream();
  const ts::TimeSeries series("hw", 0, 3600, xs);
  StreamingExtractor bank(holt_winters_family());
  const auto streamed = stream_rows(bank, xs);
  ASSERT_EQ(bank.num_features(), 64u);

  const std::vector<DetectorPtr> family = holt_winters_family();
  std::size_t mismatches = 0;
  const double params[] = {0.2, 0.4, 0.6, 0.8};
  std::size_t f = 0;
  for (const double a : params) {
    for (const double b : params) {
      for (const double g : params) {
        HoltWintersDetector lone(a, b, g, small_ctx());
        ASSERT_EQ(lone.name(), family[f]->name());
        for (std::size_t i = 0; i < xs.size(); ++i) {
          const double severity = lone.feed(xs[i]);
          const double want = i < lone.warmup_points() ? 0.0 : severity;
          mismatches += same_bits(streamed[i][f], want) ? 0 : 1;
        }
        ++f;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  for (const std::size_t threads : {1u, 4u}) {
    util::set_global_threads(threads);
    const FeatureMatrix batch = extract_features(series, holt_winters_family());
    util::set_global_threads(0);
    ASSERT_EQ(batch.num_features(), 64u);
    std::size_t batch_mismatches = 0;
    for (std::size_t c = 0; c < 64; ++c) {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        batch_mismatches +=
            same_bits(batch.columns[c][i], streamed[i][c]) ? 0 : 1;
      }
    }
    EXPECT_EQ(batch_mismatches, 0u) << "threads=" << threads;
  }
}

// A bank reader that fails from point `from` on, after feeding the point
// to the bank as an injected fault does.
class FailingReader final : public Detector {
 public:
  FailingReader(DetectorPtr reader, std::size_t from)
      : reader_(std::move(reader)), from_(from) {}
  std::string name() const override { return reader_->name(); }
  std::size_t warmup_points() const override {
    return reader_->warmup_points();
  }
  double feed(double value) override {
    const double severity = reader_->feed(value);
    if (seen_++ >= from_) throw std::runtime_error("failing reader");
    return severity;
  }
  void reset() override {
    seen_ = 0;
    reader_->reset();
  }
  const void* shared_state() const override {
    return reader_->shared_state();
  }

 private:
  DetectorPtr reader_;
  std::size_t from_;
  std::size_t seen_ = 0;
};

// A quarantined reader holds nothing up: whichever lane is quarantined,
// the first in bank order (the one that advances the bank) included, the
// other 63 columns equal a clean run bit for bit, streaming and batch.
TEST(HoltWintersBank, QuarantinedLaneLeavesTheOthersBitIdentical) {
  const std::vector<double> xs = holt_winters_stream();
  const ts::TimeSeries series("hw", 0, 3600, xs);
  StreamingExtractor clean(holt_winters_family());
  const auto clean_rows = stream_rows(clean, xs);
  const FeatureMatrix clean_batch =
      extract_features(series, holt_winters_family());
  constexpr std::size_t kFailFrom = 200;
  FaultBoundary boundary;
  boundary.quarantine_after = 3;

  for (const std::size_t quarantined : {0u, 1u, 37u, 63u}) {
    const auto with_failing_lane = [&] {
      std::vector<DetectorPtr> family = holt_winters_family();
      family[quarantined] = std::make_unique<FailingReader>(
          std::move(family[quarantined]), kFailFrom);
      return family;
    };
    StreamingExtractor faulted(with_failing_lane(), boundary);
    const auto rows = stream_rows(faulted, xs);
    const FeatureMatrix batch =
        extract_features(series, with_failing_lane(), boundary);
    EXPECT_EQ(faulted.quarantined()[quarantined], 1);
    EXPECT_EQ(faulted.quarantined().size() - 1,
              static_cast<std::size_t>(std::count(
                  faulted.quarantined().begin(), faulted.quarantined().end(),
                  0)));
    EXPECT_EQ(batch.num_quarantined(), 1u);
    std::size_t mismatches = 0;
    for (std::size_t f = 0; f < 64; ++f) {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const bool neutral = f == quarantined && i >= kFailFrom;
        const double stream_want = neutral ? 0.0 : clean_rows[i][f];
        const double batch_want = neutral ? 0.0 : clean_batch.columns[f][i];
        mismatches += same_bits(rows[i][f], stream_want) ? 0 : 1;
        mismatches += same_bits(batch.columns[f][i], batch_want) ? 0 : 1;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "quarantined lane " << quarantined;
  }
}

// reset() mid-stream restarts the bank: the stream that follows equals a
// fresh bank's bit for bit.
TEST(HoltWintersBank, ResetMidStreamRestartsTheBank) {
  const std::vector<double> xs = holt_winters_stream();
  StreamingExtractor fresh(holt_winters_family());
  const auto want = stream_rows(fresh, xs);

  StreamingExtractor reused(holt_winters_family());
  (void)stream_rows(reused, periodic_with_spike(300, 250, 5.0, 4));
  reused.reset();
  const auto got = stream_rows(reused, xs);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t f = 0; f < 64; ++f) {
      mismatches += same_bits(got[i][f], want[i][f]) ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // One reader reset and fed from point 0 restarts the bank for all.
  std::vector<DetectorPtr> family = holt_winters_family();
  for (const double x : periodic_with_spike(300, 250, 5.0, 4)) {
    for (auto& d : family) d->feed(x);
  }
  family[5]->reset();
  std::size_t lone_mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double severity = family[5]->feed(xs[i]);
    const double masked = i < family[5]->warmup_points() ? 0.0 : severity;
    lone_mismatches += same_bits(masked, want[i][5]) ? 0 : 1;
  }
  EXPECT_EQ(lone_mismatches, 0u);
}

TEST(Wavelet, HighBandCatchesSpike) {
  WaveletDetector d(3, util::FrequencyBand::kHigh, small_ctx());
  const std::size_t n = 6 * 24;
  const std::size_t spike_at = 5 * 24;
  const auto xs = periodic_with_spike(n, spike_at, 4.0);
  double spike_sev = 0.0, typical = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == spike_at) {
      spike_sev = s;
    } else if (i > 4 * 24 && i < spike_at) {
      typical += s;
      ++count;
    }
  }
  EXPECT_GT(spike_sev, 5.0 * typical / static_cast<double>(count));
}

TEST(Wavelet, LowBandCatchesLevelShift) {
  WaveletDetector d(3, util::FrequencyBand::kLow, small_ctx());
  std::vector<double> xs(8 * 24, 100.0);
  for (std::size_t i = 6 * 24; i < xs.size(); ++i) xs[i] = 160.0;
  double before = 0.0, after = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == 6 * 24 - 1) before = s;
    if (i == 7 * 24) after = s;
  }
  EXPECT_GT(after, before + 10.0);
}

TEST(Arima, FitRecoversArCoefficients) {
  // x_t = 0.7 x_{t-1} + e_t
  util::Rng rng(71);
  std::vector<double> xs(5000);
  double x = 0.0;
  for (auto& v : xs) {
    x = 0.7 * x + rng.normal();
    v = x;
  }
  const ArParameters p = fit_ar_by_aic(xs, 6);
  ASSERT_GE(p.order(), 1);
  EXPECT_NEAR(p.phi[0], 0.7, 0.05);
}

TEST(Arima, WhiteNoisePrefersLowOrder) {
  util::Rng rng(73);
  std::vector<double> xs(5000);
  for (auto& v : xs) v = rng.normal();
  const ArParameters p = fit_ar_by_aic(xs, 6);
  // AIC should not pick a large spurious order.
  EXPECT_LE(p.order(), 2);
}

TEST(Arima, DetectorFlagsSpikeAfterFit) {
  ArimaDetector d(small_ctx());
  const std::size_t spike_at = 300;
  const auto xs = periodic_with_spike(400, spike_at, 3.0);
  double spike_sev = 0.0, typical = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double s = d.feed(xs[i]);
    if (i == spike_at) {
      spike_sev = s;
    } else if (i > 200 && i < spike_at) {
      typical += s;
      ++n;
    }
  }
  EXPECT_GT(d.current_order(), 0);
  EXPECT_GT(spike_sev, 5.0 * typical / static_cast<double>(n));
}

// ---- registry ----

TEST(Registry, CustomFamilyPluggable) {
  DetectorRegistry reg;
  reg.register_family("custom", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    out.push_back(std::make_unique<SimpleThresholdDetector>());
    return out;
  });
  EXPECT_TRUE(reg.has_family("custom"));
  EXPECT_EQ(reg.instantiate_all(small_ctx()).size(), 1u);
}

TEST(Registry, DuplicateFamilyThrows) {
  DetectorRegistry reg;
  auto factory = [](const SeriesContext&) {
    return std::vector<DetectorPtr>{};
  };
  reg.register_family("x", factory);
  EXPECT_THROW(reg.register_family("x", factory), std::invalid_argument);
}

TEST(Registry, UnknownFamilyThrows) {
  const auto reg = DetectorRegistry::with_standard_families();
  EXPECT_THROW(reg.instantiate_family("nope", small_ctx()),
               std::out_of_range);
}

// ---- feature extraction ----

TEST(FeatureExtractor, ShapeMatchesConfigurations) {
  const ts::TimeSeries series("kpi", 0, 3600,
                              periodic_with_spike(3 * 168, 400));
  const auto features = extract_standard_features(series);
  EXPECT_EQ(features.num_features(), 133u);
  EXPECT_EQ(features.num_rows, series.size());
  for (const auto& col : features.columns) {
    EXPECT_EQ(col.size(), series.size());
  }
}

TEST(FeatureExtractor, WarmupRegionIsZero) {
  const ts::TimeSeries series("kpi", 0, 3600,
                              periodic_with_spike(3 * 168, 10, 50.0));
  const auto features = extract_standard_features(series);
  // The spike at t=10 falls inside every seasonal detector's warm-up, so
  // their columns must be zero there.
  for (std::size_t f = 0; f < features.num_features(); ++f) {
    const auto& name = features.feature_names[f];
    if (name.rfind("tsd", 0) == 0) {
      EXPECT_EQ(features.columns[f][10], 0.0) << name;
    }
  }
}

TEST(FeatureExtractor, RowAccessor) {
  const ts::TimeSeries series("kpi", 0, 3600,
                              periodic_with_spike(2 * 168, 250));
  const auto features = extract_standard_features(series);
  const auto row = features.row(200);
  ASSERT_EQ(row.size(), 133u);
  for (std::size_t f = 0; f < row.size(); ++f) {
    EXPECT_DOUBLE_EQ(row[f], features.columns[f][200]);
  }
}

TEST(StreamingExtractor, MatchesBatchExtraction) {
  const ts::TimeSeries series("kpi", 0, 3600,
                              periodic_with_spike(2 * 168, 300));
  const SeriesContext ctx{series.points_per_day(), series.points_per_week()};
  const auto batch =
      extract_features(series, standard_configurations(ctx));

  StreamingExtractor streaming(standard_configurations(ctx));
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto row = streaming.feed(series[i]);
    for (std::size_t f = 0; f < row.size(); ++f) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[f]),
                std::bit_cast<std::uint64_t>(batch.columns[f][i]))
          << batch.feature_names[f] << " at " << i << ": " << row[f]
          << " vs " << batch.columns[f][i];
    }
  }
}

TEST(StreamingExtractor, WarmupFlag) {
  StreamingExtractor streaming(standard_configurations(small_ctx()));
  EXPECT_FALSE(streaming.warmed_up());
  for (std::size_t i = 0; i < streaming.max_warmup(); ++i) {
    streaming.feed(100.0);
  }
  EXPECT_TRUE(streaming.warmed_up());
}

}  // namespace
