// The per-point hot-path contract (DESIGN.md §5g), checked at run time:
// every hot root, driven in steady state, allocates nothing and takes no
// lock. §5.8's practicality claim — classification lag << extraction lag
// << data interval — rests on it.
//
// The binary replaces the global operator new/delete to count the calling
// thread's allocations, which is why it is an executable of its own.
// Every root but FleetEngine::feed runs while the test holds a
// util::Mutex at LockLevel::log_write, the top of the lock order, so any
// lock the root takes — obs::log's log_write included — aborts with both
// lock names (util/mutex.hpp). FleetEngine::feed takes its series' lock
// by design, so it is checked for allocations only.
//
// This file is the list of hot roots:
//   - StreamingExtractor::feed_into over the full 133-configuration bank;
//   - FleetEngine::feed over the same bank, between retrains;
//   - every detector family's feed (kFamilies below, which must match
//     the registry plus the extension families);
//   - RandomForest::score;
//   - core::DurationFilter::feed;
//   - net::decode_frame_header, net::crc32, net::append_frame into a
//     buffer with room, net::FrameParser::next into a warmed Frame, and
//     net::SourceTracker::observe;
//   - the server's side of a one-point DATA frame (on_bytes, its ACK,
//     and the tick() that applies it), which takes the server's and the
//     series' locks by design and is held to an allocation budget.
// One training unit is held to a byte budget instead: ForestTraining's
// bootstrap draw, whose bytes must not grow with the training rows. A
// series' due point, which copies its training rows, is held to an
// allocation budget that must not grow with the features.
// StreamingExtractor::feed is not one: it returns a fresh vector by
// contract, and feed_into is its allocation-free form.
//
// Each root is warmed past its window plus a day, then measured over two
// days of 10-minute points. ARIMA's daily refit is the one reviewed
// exception: it may allocate on at most one point per configuration per
// day.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/duration_filter.hpp"
#include "core/fleet_engine.hpp"
#include "detectors/extra_detectors.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/source_state.hpp"
#include "obs/log.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace {

// Allocations, and the bytes they asked for, made by the calling thread
// (trivially constructed, so the replaced operator new may touch them on
// any thread at any time).
thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_allocated_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  t_allocated_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  t_allocated_bytes += size;
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
  t_allocated_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  t_allocated_bytes += size;
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

// Runs step(i) for i in [0, n) and returns how many steps allocated on
// the calling thread.
template <typename Step>
std::size_t count_allocating_steps(std::size_t n, Step&& step) {
  std::size_t allocating = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = t_allocations;
    step(i);
    if (t_allocations != before) ++allocating;
  }
  return allocating;
}

// The same under g_top_level.
template <typename Step>
std::size_t allocating_steps(std::size_t n, Step&& step) {
  util::MutexLock hold(g_top_level);
  return count_allocating_steps(n, step);
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

// A 16-tree forest on four features drawn from `rng`, anomalous when the
// first two sum past 1.2.
ml::RandomForest trained_forest(util::Rng& rng) {
  constexpr std::size_t kRows = 400;
  std::vector<std::vector<double>> columns(4, std::vector<double>(kRows));
  std::vector<std::uint8_t> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& column : columns) column[r] = rng.uniform();
    labels[r] = columns[0][r] + columns[1][r] > 1.2 ? 1 : 0;
  }
  ml::ForestOptions options;
  options.num_trees = 16;
  ml::RandomForest forest(options);
  forest.train(ml::Dataset({"a", "b", "c", "d"}, columns, labels));
  return forest;
}

// ARIMA configurations in the bank: each may allocate once a day.
std::size_t arima_configs(const detectors::StreamingExtractor& extractor) {
  std::size_t count = 0;
  for (const auto& name : extractor.feature_names()) {
    if (detectors::family_of(name) == "arima") ++count;
  }
  return count;
}

TEST(HotPath, StreamingExtractorFeedIntoOverTheFullBank) {
  detectors::StreamingExtractor extractor(
      detectors::standard_configurations(kCtx));
  ASSERT_EQ(extractor.num_features(), detectors::kStandardConfigurationCount);
  ASSERT_GT(arima_configs(extractor), 0u);

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
            arima_configs(extractor) * kMeasuredPoints / kPointsPerDay);
}

TEST(HotPath, FleetEngineFeedBetweenRetrains) {
  // paper_stream's series: the default bank, a one-week history bound
  // and weekly retrains.
  core::FleetOptions options;
  options.ctx = kCtx;
  options.history_capacity = kCtx.points_per_week;
  options.forest.num_trees = 8;
  core::FleetEngine engine(std::move(options));
  // The engine's and the forest's instruments register on first use.
  engine.feed(engine.add_series("warm-instruments"), 1.0);
  util::Rng rng(7);
  (void)trained_forest(rng).score(std::vector<double>(4, 0.5));
  const core::SeriesHandle series = engine.add_series("pv");

  // From the first point, past the bank's warm-up and twice the bound
  // (where the history was once trimmed), labelling points as they
  // arrive, then on to the install of the next weekly retrain. A bank fed
  // in lockstep allocates what the series' own bank does, ARIMA's daily
  // refits included, so on every point that runs no retrain stage — its
  // due point T and T + 1 .. T + kForestInstallDelay do — the engine may
  // allocate no more than it: the history store is sized once and never
  // grows.
  detectors::StreamingExtractor bank(
      detectors::standard_configurations(kCtx));
  std::vector<double> features(bank.num_features());
  const std::size_t warm =
      std::max(bank.max_warmup(), 2 * kCtx.points_per_week) + kPointsPerDay;
  const std::vector<double> stream =
      kpi_stream(warm + kCtx.points_per_week + kMeasuredPoints);
  std::size_t fed = 0;
  std::size_t extra_allocations = 0;
  const auto feed_labeled = [&] {
    const std::uint8_t label = fed % 211 == 0 ? 1 : 0;  // kpi_stream spikes
    const std::size_t before_bank = t_allocations;
    bank.feed_into(stream[fed], features);
    const std::size_t bank_allocations = t_allocations - before_bank;
    const std::size_t before_engine = t_allocations;
    engine.feed(series, stream[fed]);
    const std::size_t engine_allocations = t_allocations - before_engine;
    bool stage_point = false;
    for (std::size_t k = 0; k <= core::kForestInstallDelay && k <= fed; ++k) {
      stage_point = stage_point || engine.scheduler().due("pv", fed + 1 - k);
    }
    if (!stage_point && engine_allocations > bank_allocations) {
      ++extra_allocations;
    }
    engine.ingest_labels(series, std::span(&label, 1), fed);
    ++fed;
  };
  while (fed < warm) feed_labeled();
  const std::size_t retrains = engine.stats(series).retrains + 1;
  while (engine.stats(series).retrains < retrains) {
    ASSERT_LT(fed, warm + kCtx.points_per_week);
    feed_labeled();
  }
  EXPECT_EQ(extra_allocations, 0u);
  EXPECT_GE(retrains, 2u);

  // The next retrain is a week away: two days of points never reach it,
  // and no stage of the last one is left.
  std::size_t classified = 0;
  const auto step = [&](std::size_t) {
    if (engine.feed(series, stream[fed++]).classified) ++classified;
  };
  EXPECT_LE(count_allocating_steps(kMeasuredPoints, step),
            arima_configs(bank) * kMeasuredPoints / kPointsPerDay);
  EXPECT_EQ(engine.stats(series).retrains, retrains);
  EXPECT_EQ(classified, kMeasuredPoints);
}

// The standard bank, or without its 64 Holt-Winters configurations.
std::vector<detectors::DetectorPtr> bank_of(bool holt_winters) {
  std::vector<detectors::DetectorPtr> bank =
      detectors::standard_configurations(kCtx);
  if (!holt_winters) {
    std::erase_if(bank, [](const detectors::DetectorPtr& detector) {
      return detectors::family_of(detector->name()) == "holt_winters";
    });
  }
  return bank;
}

// Allocations a paper_stream-like series makes, beyond a lockstep bank of
// its configurations, on each of its first `installs` due points whose
// retrain installed a forest: the copy of its training set and stage 0.
std::vector<std::size_t> due_point_allocations(bool holt_winters,
                                               std::size_t installs) {
  core::FleetOptions options;
  options.ctx = kCtx;
  options.history_capacity = kCtx.points_per_week;
  options.forest.num_trees = 8;
  options.detector_factory = [holt_winters](const detectors::SeriesContext&) {
    return bank_of(holt_winters);
  };
  core::FleetEngine engine(std::move(options));
  engine.feed(engine.add_series("warm-instruments"), 1.0);
  const core::SeriesHandle series = engine.add_series("pv");
  detectors::StreamingExtractor bank(bank_of(holt_winters));
  std::vector<double> features(bank.num_features());
  const std::vector<double> stream = kpi_stream(5 * kCtx.points_per_week);
  std::vector<std::size_t> out;
  std::size_t last_due = 0;
  std::size_t due_allocations = 0;
  for (std::size_t fed = 0; out.size() < installs; ++fed) {
    if (fed == stream.size()) {
      ADD_FAILURE() << "only " << out.size() << " installs";
      break;
    }
    const std::size_t before_bank = t_allocations;
    bank.feed_into(stream[fed], features);
    const std::size_t bank_allocations = t_allocations - before_bank;
    const std::size_t retrains = engine.stats(series).retrains;
    const std::size_t before_engine = t_allocations;
    engine.feed(series, stream[fed]);
    const std::size_t engine_allocations = t_allocations - before_engine;
    if (engine.scheduler().due("pv", fed + 1)) {
      last_due = fed + 1;
      due_allocations = engine_allocations - bank_allocations;
    }
    if (engine.stats(series).retrains > retrains) {
      EXPECT_EQ(last_due + core::kForestInstallDelay, fed + 1);
      out.push_back(due_allocations);
    }
    const std::uint8_t label = fed % 211 == 0 ? 1 : 0;  // kpi_stream spikes
    engine.ingest_labels(series, std::span(&label, 1), fed);
  }
  return out;
}

// A due point T copies its series' training rows as one f32 block and
// runs stage 0 (the forest's shape, the week's cThld pick) in the call
// that feeds it. Its allocations are a handful of buffers, the same for
// any bank: the copy is one block, its labels and scores, never a vector
// or a name per feature. Measured at 12 on a first install (no forest
// has scored a row yet, so there is no cThld to pick) and 13 on later
// ones, with either bank; a copy per column would add at least one
// allocation per feature, 133 with the full bank.
TEST(HotPath, FleetEngineDuePointAllocationBudget) {
  constexpr std::size_t kBudget = 16;
  // Instruments and other statics register on a first retrain.
  (void)due_point_allocations(false, 1);
  const std::vector<std::size_t> full = due_point_allocations(true, 3);
  const std::vector<std::size_t> small = due_point_allocations(false, 3);
  ASSERT_EQ(full.size(), 3u);
  ASSERT_EQ(small.size(), 3u);
  EXPECT_EQ(full, small);
  for (const std::size_t count : full) EXPECT_LE(count, kBudget);
}

TEST(HotPath, RandomForestScoreAndClassify) {
  util::Rng rng(7);
  const ml::RandomForest forest = trained_forest(rng);
  std::vector<std::vector<double>> rows(kMeasuredPoints,
                                        std::vector<double>(4));
  for (auto& row : rows) {
    for (double& v : row) v = rng.uniform();
  }
  // First calls initialize the instruments' magic statics.
  (void)forest.score(rows[0]);

  std::size_t anomalies = 0;
  const auto step = [&](std::size_t i) {
    if (forest.score(rows[i]) >= 0.5) ++anomalies;
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_GT(anomalies, 0u);
}

// The draw unit walks the forest RNG in tree order and keeps each tree's
// seed and starting RNG; each tree tallies its own bootstrap counts as it
// grows. So the bytes the unit allocates must not grow with the rows: a
// draw that kept every tree's counts would allocate 48 x rows x 4 B.
TEST(HotPath, ForestDrawUnitBytesDoNotGrowWithRows) {
  const auto draw_bytes = [](std::size_t rows) {
    util::Rng rng(rows);
    std::vector<std::vector<double>> columns(3, std::vector<double>(rows));
    for (auto& column : columns) {
      for (double& v : column) v = rng.normal(0.0, 1.0);
    }
    std::vector<std::uint8_t> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) labels[r] = r % 7 == 0 ? 1 : 0;
    const ml::Dataset data({"a", "b", "c"}, std::move(columns),
                           std::move(labels));
    ml::ForestTraining training(ml::ForestOptions{}, data);
    const std::size_t before = t_allocated_bytes;
    training.bin(data, training.bin_units() - 1);  // the draw unit
    const std::size_t bytes = t_allocated_bytes - before;
    for (std::size_t f = 0; f + 1 < training.bin_units(); ++f) {
      training.bin(data, f);
    }
    for (std::size_t t = 0; t < training.tree_units(); ++t) training.grow(t);
    EXPECT_TRUE(training.assemble().is_trained());
    return bytes;
  };
  const std::size_t small = draw_bytes(1000);
  const std::size_t large = draw_bytes(16000);
  EXPECT_EQ(large, small);
  EXPECT_LT(large, 1000 * sizeof(std::uint32_t));
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

TEST(HotPath, Crc32) {
  util::Rng rng(34);
  std::vector<std::uint8_t> bytes(300);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(256));
  }
  std::uint32_t sink = 0;
  const auto step = [&](std::size_t i) {
    sink ^= net::crc32(std::span(bytes).first(i % bytes.size()));
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_NE(sink, 0u);
}

TEST(HotPath, AppendFrameIntoABufferWithRoom) {
  const ts::RawPoint point{1700000400, 1.5};
  const net::Frame data = net::make_data(7, "a00/s00", 600, {&point, 1});
  std::vector<std::uint8_t> out;
  out.reserve(256);
  const auto step = [&](std::size_t i) {
    out.clear();
    net::append_frame(out, data);
    net::append_frame(
        out, net::FrameType::kAck, 0,
        net::ack_payload(net::AckPayload{static_cast<std::uint32_t>(i)}));
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_EQ(out.size(), 2 * (net::kHeaderBytes + net::kCrcBytes) +
                            data.payload.size() + 4);
}

TEST(HotPath, FrameParserNextIntoAWarmedFrame) {
  // One-point DATA frames and the ACKs they get, one frame per push, as
  // a connection receives them.
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::uint32_t seq = 1; seq <= kMeasuredPoints + 1; ++seq) {
    const ts::RawPoint point{1700000400 + 600 * seq, 1.0 * seq};
    wire.push_back(seq % 2 == 0
                       ? net::encode_frame(net::make_ack(net::AckPayload{seq}))
                       : net::encode_frame(
                             net::make_data(seq, "pv", 600, {&point, 1})));
  }
  net::FrameParser parser;
  net::Frame frame;
  parser.push_bytes(wire.back());  // the largest payload warms the Frame
  ASSERT_TRUE(parser.next(&frame));
  std::size_t parsed = 0;
  const auto step = [&](std::size_t i) {
    parser.push_bytes(wire[i]);
    while (parser.next(&frame)) ++parsed;
  };
  EXPECT_EQ(allocating_steps(kMeasuredPoints, step), 0u);
  EXPECT_EQ(parsed, kMeasuredPoints);
  EXPECT_EQ(parser.corrupt_frames(), 0u);
}

// The server's whole share of a one-point DATA frame: on_bytes parses it,
// queues it and writes its ACK, and tick() repairs it and feeds it to the
// engine. Both take the server's lock and the series' lock by design, so
// this is held to an allocation budget, not to the no-lock rule. Each
// frame may allocate twice:
//   1. decode_data's point vector, which the queued batch owns until the
//      tick hands it to ingest_raw;
//   2. repair_series' grid values, which the TimeSeries it returns owns.
TEST(HotPath, WireExchangeAllocationBudget) {
  constexpr std::size_t kBudget = 2;
  core::FleetOptions options;
  options.ctx = kCtx;
  options.detector_factory = [](const detectors::SeriesContext& ctx) {
    auto registry = detectors::DetectorRegistry::with_standard_families();
    auto bank = registry.instantiate_family("simple_threshold", ctx);
    for (auto& config : registry.instantiate_family("diff", ctx)) {
      bank.push_back(std::move(config));
    }
    return bank;
  };
  options.retrain_interval = 1000 * kCtx.points_per_week;
  options.history_capacity = kPointsPerDay;
  core::FleetEngine engine(std::move(options));
  net::ServerOptions server_options;
  server_options.default_interval_seconds = 600;
  net::IngestServer server(engine, server_options);
  ASSERT_TRUE(server.on_connect(1));
  std::vector<std::uint8_t> responses;
  ASSERT_TRUE(server.on_bytes(
      1, net::encode_frame(net::make_hello(0, net::HelloPayload{"agent-00", 0})),
      responses));

  // A day to warm the series, the queues, the work list and the
  // instruments, then two days measured. Values are finite: a dirty
  // chunk is logged and flight-recorded, which allocates by design.
  const std::size_t total = kPointsPerDay + kMeasuredPoints;
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t t = 0; t < total; ++t) {
    const ts::RawPoint point{1700000400 + 600 * static_cast<std::int64_t>(t),
                             100.0 + static_cast<double>(t % 17)};
    wire.push_back(net::encode_frame(net::make_data(
        static_cast<std::uint32_t>(t + 1), "a00/s00", 0, {&point, 1})));
  }
  std::size_t fed = 0;
  std::size_t most = 0;
  const auto exchange = [&](std::size_t t) {
    responses.clear();
    const std::size_t before = t_allocations;
    EXPECT_TRUE(server.on_bytes(1, wire[t], responses));
    server.tick();
    most = std::max(most, t_allocations - before);
    ++fed;
  };
  for (std::size_t t = 0; t < kPointsPerDay; ++t) exchange(t);
  most = 0;
  for (std::size_t t = kPointsPerDay; t < total; ++t) exchange(t);
  EXPECT_LE(most, kBudget);
  EXPECT_EQ(engine.stats(engine.find_series("a00/s00")).points_seen, fed);
  net::FrameParser parser;
  parser.push_bytes(responses);
  net::Frame reply;
  ASSERT_TRUE(parser.next(&reply));
  EXPECT_EQ(reply.type, net::FrameType::kAck);
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
