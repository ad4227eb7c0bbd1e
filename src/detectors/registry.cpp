#include "detectors/registry.hpp"

#include <stdexcept>

#include "detectors/arima_detector.hpp"
#include "detectors/basic_detectors.hpp"
#include "detectors/holt_winters_detector.hpp"
#include "detectors/seasonal_detectors.hpp"
#include "detectors/svd_detector.hpp"
#include "detectors/wavelet_detector.hpp"

namespace opprentice::detectors {
namespace {

constexpr std::size_t kMaWindows[] = {10, 20, 30, 40, 50};
constexpr double kEwmaAlphas[] = {0.1, 0.3, 0.5, 0.7, 0.9};
constexpr std::size_t kWeekWindows[] = {1, 2, 3, 4, 5};
constexpr double kHwParams[] = {0.2, 0.4, 0.6, 0.8};
constexpr std::size_t kSvdRows[] = {10, 20, 30, 40, 50};
constexpr std::size_t kSvdCols[] = {3, 5, 7};
constexpr std::size_t kWaveletDays[] = {3, 5, 7};
constexpr util::FrequencyBand kWaveletBands[] = {
    util::FrequencyBand::kLow, util::FrequencyBand::kMid,
    util::FrequencyBand::kHigh};

// The calendar of ctx with a fresh slot store for the seasonal
// configurations of one bank.
SeriesContext with_own_store(const SeriesContext& ctx) {
  SeriesContext bank = ctx;
  bank.slot_store = std::make_shared<SeasonalSlotStore>(ctx);
  return bank;
}

}  // namespace

void DetectorRegistry::register_family(std::string family_name,
                                       DetectorFamilyFactory factory) {
  if (has_family(family_name)) {
    throw std::invalid_argument("DetectorRegistry: duplicate family '" +
                                family_name + "'");
  }
  families_.emplace_back(std::move(family_name), std::move(factory));
}

bool DetectorRegistry::has_family(const std::string& family_name) const {
  for (const auto& [name, factory] : families_) {
    if (name == family_name) return true;
  }
  return false;
}

std::vector<std::string> DetectorRegistry::family_names() const {
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, factory] : families_) names.push_back(name);
  return names;
}

std::vector<DetectorPtr> DetectorRegistry::instantiate_all(
    const SeriesContext& ctx) const {
  const SeriesContext bank = with_own_store(ctx);
  std::vector<DetectorPtr> all;
  for (const auto& [name, factory] : families_) {
    auto configs = factory(bank);
    for (auto& d : configs) all.push_back(std::move(d));
  }
  return all;
}

std::vector<DetectorPtr> DetectorRegistry::instantiate_family(
    const std::string& family_name, const SeriesContext& ctx) const {
  for (const auto& [name, factory] : families_) {
    if (name == family_name) return factory(with_own_store(ctx));
  }
  throw std::out_of_range("DetectorRegistry: unknown family '" + family_name +
                          "'");
}

DetectorRegistry DetectorRegistry::with_standard_families() {
  DetectorRegistry reg;

  reg.register_family("simple_threshold", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    out.push_back(std::make_unique<SimpleThresholdDetector>());
    return out;
  });

  reg.register_family("diff", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (DiffLag lag :
         {DiffLag::kLastSlot, DiffLag::kLastDay, DiffLag::kLastWeek}) {
      out.push_back(std::make_unique<DiffDetector>(lag, ctx));
    }
    return out;
  });

  reg.register_family("simple_ma", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kMaWindows) {
      out.push_back(std::make_unique<SimpleMaDetector>(win));
    }
    return out;
  });

  reg.register_family("weighted_ma", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kMaWindows) {
      out.push_back(std::make_unique<WeightedMaDetector>(win));
    }
    return out;
  });

  reg.register_family("ma_of_diff", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kMaWindows) {
      out.push_back(std::make_unique<MaOfDiffDetector>(win));
    }
    return out;
  });

  reg.register_family("ewma", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (double alpha : kEwmaAlphas) {
      out.push_back(std::make_unique<EwmaDetector>(alpha));
    }
    return out;
  });

  reg.register_family("tsd", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kWeekWindows) {
      out.push_back(std::make_unique<TsdDetector>(win, ctx));
    }
    return out;
  });

  reg.register_family("tsd_mad", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kWeekWindows) {
      out.push_back(std::make_unique<TsdMadDetector>(win, ctx));
    }
    return out;
  });

  reg.register_family("historical_average", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kWeekWindows) {
      out.push_back(std::make_unique<HistoricalAverageDetector>(win, ctx));
    }
    return out;
  });

  reg.register_family("historical_mad", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (std::size_t win : kWeekWindows) {
      out.push_back(std::make_unique<HistoricalMadDetector>(win, ctx));
    }
    return out;
  });

  // The 64 configurations are the lanes of one bank.
  reg.register_family("holt_winters", [](const SeriesContext& ctx) {
    const auto bank = std::make_shared<HoltWintersBank>(ctx.points_per_day);
    std::vector<DetectorPtr> out;
    for (double a : kHwParams) {
      for (double b : kHwParams) {
        for (double g : kHwParams) {
          out.push_back(std::make_unique<HoltWintersDetector>(a, b, g, bank));
        }
      }
    }
    return out;
  });

  reg.register_family("svd", [](const SeriesContext&) {
    std::vector<DetectorPtr> out;
    for (std::size_t rows : kSvdRows) {
      for (std::size_t cols : kSvdCols) {
        out.push_back(std::make_unique<SvdDetector>(rows, cols));
      }
    }
    return out;
  });

  reg.register_family("wavelet", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    for (std::size_t days : kWaveletDays) {
      for (util::FrequencyBand band : kWaveletBands) {
        out.push_back(std::make_unique<WaveletDetector>(days, band, ctx));
      }
    }
    return out;
  });

  reg.register_family("arima", [](const SeriesContext& ctx) {
    std::vector<DetectorPtr> out;
    out.push_back(std::make_unique<ArimaDetector>(ctx));
    return out;
  });

  return reg;
}

std::vector<DetectorPtr> standard_configurations(const SeriesContext& ctx) {
  return DetectorRegistry::with_standard_families().instantiate_all(ctx);
}

}  // namespace opprentice::detectors
