// Oracle for the incremental SVD, wavelet and MAD detectors and the
// seasonal detectors' two-pass stddev (DESIGN.md §6): each configuration
// runs beside the plain per-point implementation it replaced
// (tests/reference_detectors.*) over long seeded streams at 10-minute
// bins with NaN runs, constant and zero stretches, a zero-mean stretch,
// ±inf and ±1e300 spikes. SVD, wavelet, TSD and historical-average
// severities must agree within 1e-9·(1 + max|x| over the detector's
// window); TSD-MAD and historical MAD, bit for bit. The full streaming
// bank must match the reference bank column by column under the same
// rule.
//
// ctest label: chaos (CI runs it under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/kpi_presets.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "detectors/svd_detector.hpp"
#include "reference_detectors.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::detectors;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRelativeTolerance = 1e-9;
constexpr std::size_t kStreamPoints = 24000;

// 10-minute bins: the paper's workload.
const SeriesContext kCtx{144, 1008};

// A PV-like KPI (level, daily and weekly cycles, noise) with dirt planted
// every few hundred points. Kept free of -0.0: equal values of a window
// then have equal bits, which the bit-identity checks rely on.
std::vector<double> dirty_stream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  const double two_pi = 2.0 * 3.14159265358979;
  for (std::size_t i = 0; i < n; ++i) {
    const double day = static_cast<double>(i % 144) / 144.0;
    const double week = static_cast<double>(i % 1008) / 1008.0;
    xs[i] = 1000.0 + 300.0 * std::sin(two_pi * day) +
            100.0 * std::sin(two_pi * week) + rng.normal(0.0, 20.0);
  }
  for (std::size_t at = 600; at < n; at += 150 + rng.uniform_int(500)) {
    const std::size_t len = 1 + rng.uniform_int(60);
    const auto fill_until = [&](std::size_t end, auto value_at) {
      for (std::size_t j = at; j < std::min(end, n); ++j) xs[j] = value_at(j);
    };
    switch (rng.uniform_int(9)) {
      case 0:  // missing run
        fill_until(at + len, [](std::size_t) { return kNaN; });
        break;
      case 1: {  // stuck exporter
        const double stuck = xs[at];
        fill_until(at + 5 * len, [&](std::size_t) { return stuck; });
        break;
      }
      case 2:  // dead series
        fill_until(at + 5 * len, [](std::size_t) { return 0.0; });
        break;
      case 3:  // zero-mean noise: no dominant SVD direction
        fill_until(at + 8 * len,
                   [&](std::size_t) { return rng.normal(0.0, 50.0); });
        break;
      case 4:
        xs[at] = rng.uniform() < 0.5 ? kInf : -kInf;
        break;
      case 5:  // overflows when squared; a second one can land as the
               // newest point while the first sits in SVD's past segments
        xs[at] = rng.uniform() < 0.5 ? 1e300 : -1e300;
        if (rng.uniform() < 0.5 && at + 100 < n) {
          xs[at + 60 + rng.uniform_int(40)] = 1e299;
        }
        break;
      case 6:
        xs[at] *= 8.0;
        break;
      case 7:  // level shift
        fill_until(n, [&](std::size_t j) { return xs[j] + 400.0; });
        break;
      default:  // a missing point inside otherwise clean data
        xs[at] = kNaN;
        break;
    }
  }
  return xs;
}

// Two stretches of ±1000 that leave the SVD eigen-solve without a
// dominant direction, planted over a dirty stream (the sums are exact in
// floating point, so the ties are exact):
//  - from point 2000, a 20-point period of 15 × +1000 and 5 × -1000:
//    segments 10, 30 or 50 points apart are orthogonal and of equal
//    norm, the col=3 closed-form tie (b = 0, a = c), and with more
//    columns the top eigenvalue repeats;
//  - from point 4000, the same times a square wave of period 40, so
//    segments 10 points apart are orthogonal and those 20 apart have
//    opposite signs: at aligned phases every column count ties at the
//    top, and the Jacobi fallback decides.
std::vector<double> with_svd_ties(std::vector<double> xs) {
  const auto tie = [](std::size_t j) { return j % 20 < 15 ? 1000.0 : -1000.0; };
  for (std::size_t j = 0; j < 600 && 4000 + j < xs.size(); ++j) {
    xs[2000 + j] = tie(j);
    xs[4000 + j] = j % 40 < 20 ? tie(j) : -tie(j);
  }
  return xs;
}

// max|x| over the last `window` values an SVD or wavelet detector held
// after each input point (NaN inputs repeat the last value; leading NaNs
// push nothing), by a sparse table over the held sequence.
class HeldWindowMax {
 public:
  explicit HeldWindowMax(const std::vector<double>& xs) {
    std::vector<double> held;
    for (const double x : xs) {
      if (!std::isnan(x)) {
        held.push_back(std::abs(x));
      } else if (!held.empty()) {
        held.push_back(held.back());
      }
      count_.push_back(held.size());
    }
    table_.push_back(held);
    for (std::size_t span = 1; 2 * span <= held.size(); span *= 2) {
      const std::vector<double>& prev = table_.back();
      std::vector<double> next(prev.size() - span);
      for (std::size_t i = 0; i < next.size(); ++i) {
        next[i] = std::max(prev[i], prev[i + span]);
      }
      table_.push_back(std::move(next));
    }
  }

  double at(std::size_t point, std::size_t window) const {
    const std::size_t hi = count_[point];
    const std::size_t lo = hi - std::min(hi, window);
    if (hi == lo) return 0.0;
    std::size_t level = 0;
    while ((std::size_t{2} << level) <= hi - lo) ++level;
    const std::vector<double>& row = table_[level];
    return std::max(row[lo], row[hi - (std::size_t{1} << level)]);
  }

 private:
  std::vector<std::size_t> count_;
  std::vector<std::vector<double>> table_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool within_tolerance(double fast, double ref, double window_max) {
  return std::abs(fast - ref) <= kRelativeTolerance * (1.0 + window_max);
}

// Checks one column's agreement at one point; reports the first few
// disagreements of each column.
class ColumnCheck {
 public:
  ColumnCheck(std::string name, bool exact, std::size_t window)
      : name_(std::move(name)), exact_(exact), window_(window) {}

  void check(std::size_t point, double fast, double ref,
             const HeldWindowMax& held) {
    const bool ok = exact_ ? same_bits(fast, ref)
                           : within_tolerance(fast, ref,
                                              held.at(point, window_));
    if (ok) return;
    if (++mismatches_ <= 3) {
      ADD_FAILURE() << name_ << " at point " << point << ": fast " << fast
                    << ", reference " << ref;
    }
  }

  std::size_t mismatches() const { return mismatches_; }

 private:
  std::string name_;
  bool exact_;
  std::size_t window_;
  std::size_t mismatches_ = 0;
};

void expect_family_matches_reference(const std::string& family, bool exact,
                                     const std::vector<double>& xs) {
  const HeldWindowMax held(xs);
  const std::vector<DetectorPtr> fast =
      DetectorRegistry::with_standard_families().instantiate_family(family,
                                                                    kCtx);
  const std::vector<DetectorPtr> ref =
      reference::reference_family(family, kCtx);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t f = 0; f < fast.size(); ++f) {
    ASSERT_EQ(fast[f]->name(), ref[f]->name());
    ColumnCheck column(fast[f]->name(), exact, fast[f]->warmup_points());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      column.check(i, fast[f]->feed(xs[i]), ref[f]->feed(xs[i]), held);
    }
    EXPECT_EQ(column.mismatches(), 0u) << fast[f]->name();
  }
}

TEST(DetectorOracle, SvdWithinToleranceOfFullSvd) {
  expect_family_matches_reference(
      "svd", /*exact=*/false, with_svd_ties(dirty_stream(kStreamPoints, 11)));
}

// The bank samples cols 3, 5 and 7; the solve is compiled for 2 to 8.
TEST(DetectorOracle, EverySvdKernelWithinToleranceOfFullSvd) {
  const std::vector<double> xs = with_svd_ties(dirty_stream(6000, 20));
  const HeldWindowMax held(xs);
  for (const std::size_t cols : {2u, 4u, 6u, 8u}) {
    SvdDetector fast(10, cols);
    reference::SvdDetector ref(10, cols);
    ColumnCheck column(fast.name(), /*exact=*/false, fast.warmup_points());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      column.check(i, fast.feed(xs[i]), ref.feed(xs[i]), held);
    }
    EXPECT_EQ(column.mismatches(), 0u) << fast.name();
  }
}

TEST(DetectorOracle, WaveletWithinToleranceOfBandReconstruction) {
  expect_family_matches_reference("wavelet", /*exact=*/false,
                                  dirty_stream(kStreamPoints, 12));
}

TEST(DetectorOracle, TsdWithinToleranceOfWelford) {
  expect_family_matches_reference("tsd", /*exact=*/false,
                                  dirty_stream(kStreamPoints, 17));
}

TEST(DetectorOracle, HistoricalAverageWithinToleranceOfWelford) {
  expect_family_matches_reference("historical_average", /*exact=*/false,
                                  dirty_stream(kStreamPoints, 18));
}

TEST(DetectorOracle, TsdMadBitIdentical) {
  expect_family_matches_reference("tsd_mad", /*exact=*/true,
                                  dirty_stream(kStreamPoints, 13));
}

TEST(DetectorOracle, HistoricalMadBitIdentical) {
  expect_family_matches_reference("historical_mad", /*exact=*/true,
                                  dirty_stream(kStreamPoints, 14));
}

TEST(DetectorOracle, StreamingBankMatchesReferenceBank) {
  const std::vector<double> xs = with_svd_ties(dirty_stream(kStreamPoints, 15));
  const HeldWindowMax held(xs);
  StreamingExtractor fast(standard_configurations(kCtx));
  StreamingExtractor ref(reference::reference_configurations(kCtx));
  const std::vector<std::string> names = fast.feature_names();
  ASSERT_EQ(names, ref.feature_names());

  std::vector<ColumnCheck> columns;
  for (const DetectorPtr& d : standard_configurations(kCtx)) {
    const std::string family = family_of(d->name());
    const bool tolerant = family == "svd" || family == "wavelet" ||
                          family == "tsd" || family == "historical_average";
    columns.emplace_back(d->name(), !tolerant, d->warmup_points());
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::vector<double> a = fast.feed(xs[i]);
    const std::vector<double> b = ref.feed(xs[i]);
    for (std::size_t f = 0; f < columns.size(); ++f) {
      columns[f].check(i, a[f], b[f], held);
    }
  }
  for (std::size_t f = 0; f < columns.size(); ++f) {
    EXPECT_EQ(columns[f].mismatches(), 0u) << names[f];
  }
}

// 64-bit FNV-1a over the bits of the severities.
class Digest {
 public:
  void add(double x) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ (bits & 0xff)) * 0x100000001b3ull;
      bits >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::vector<double> preset_stream(datagen::KpiPreset preset) {
  preset.model.weeks = 7;
  const datagen::GeneratedKpi kpi =
      datagen::generate_kpi(preset.model, preset.injection);
  return {kpi.series.values().begin(), kpi.series.values().end()};
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Pins every streaming column of the full bank bit for bit: one digest per
// configuration over the dirty stream above, then seven weeks of PV and of
// #SR, each through a fresh extractor. The tolerance oracles above cannot
// tell a rounding change from none; this test can. A deliberate change of
// a column's bits re-records its line of tests/golden/bank_digests.txt
// (the failure prints the whole table) and says why in CHANGES.md.
TEST(DetectorOracle, GoldenBankDigests) {
  const std::vector<std::vector<double>> streams = {
      dirty_stream(kStreamPoints, 19),
      preset_stream(datagen::pv_preset(datagen::Scale::kSmall, 23)),
      preset_stream(datagen::sr_preset(datagen::Scale::kSmall, 29))};
  std::vector<std::string> names;
  std::vector<Digest> digests;
  for (const std::vector<double>& xs : streams) {
    StreamingExtractor bank(standard_configurations(kCtx));
    if (names.empty()) {
      names = bank.feature_names();
      digests.resize(names.size());
    }
    std::vector<double> row(bank.num_features());
    for (const double x : xs) {
      bank.feed_into(x, row);
      for (std::size_t f = 0; f < row.size(); ++f) digests[f].add(row[f]);
    }
  }
  std::string actual;
  for (std::size_t f = 0; f < names.size(); ++f) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx ",
                  static_cast<unsigned long long>(digests[f].value()));
    actual += hex + names[f] + '\n';
  }
  const std::string golden = read_file(
      std::filesystem::path(OPPRENTICE_GOLDEN_DIR) / "bank_digests.txt");
  std::istringstream want(golden);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  std::size_t lines = 0;
  while (std::getline(got, got_line)) {
    ++lines;
    if (!std::getline(want, want_line)) want_line.clear();
    EXPECT_EQ(got_line, want_line) << "column " << lines;
  }
  EXPECT_EQ(lines, kStandardConfigurationCount);
  if (actual != golden) ADD_FAILURE() << "digests now:\n" << actual;
}

// The allocation-free statistics against util::median/util::mad on
// random windows with NaNs, infinities, ties and signed values.
TEST(DetectorOracle, InPlaceAndSortedWindowMadBitIdentical) {
  util::Rng rng(16);
  const auto draw = [&rng]() {
    const std::uint64_t kind = rng.uniform_int(40);
    if (kind == 0) return kNaN;
    if (kind == 1) return kInf;
    if (kind == 2) return -kInf;
    if (kind < 8) return static_cast<double>(rng.uniform_int(5)) + 1.0;
    return rng.normal(0.0, 10.0);
  };
  for (std::size_t capacity : {1u, 2u, 3u, 16u, 144u}) {
    util::SortedWindow sorted(capacity);
    std::vector<double> window;
    for (int step = 0; step < 3000; ++step) {
      const double x = draw();
      double leaving = kNaN;
      if (window.size() == capacity) {
        leaving = window.front();
        window.erase(window.begin());
      }
      window.push_back(x);
      sorted.replace(leaving, x);

      std::vector<double> scratch = window;
      EXPECT_TRUE(same_bits(util::median_in_place(scratch),
                            util::median(window)));
      EXPECT_TRUE(same_bits(sorted.median(), util::median(window)))
          << "capacity " << capacity << " step " << step;
      EXPECT_TRUE(same_bits(sorted.mad(), util::mad(window)))
          << "capacity " << capacity << " step " << step;
    }
  }
}

// Sliding sums stay exact over their window: no drift from values that
// left it, and an infinity stops counting once it leaves.
TEST(DetectorOracle, SlidingSumForgetsWhatLeftTheWindow) {
  util::SlidingSum sum(4);
  for (const double x : {1e16, kInf, 1.0, 2.0, 3.0, 4.0}) sum.push(x);
  EXPECT_EQ(sum.sum(), 10.0);
  sum.push(5.0);
  EXPECT_EQ(sum.sum(), 14.0);
  sum.clear();
  sum.push(7.0);
  EXPECT_EQ(sum.sum(), 7.0);
}

}  // namespace
