// Detector registry: reproduces Table 3's 133 configurations and lets
// downstream users plug in their own detectors (§4.3.2: "Opprentice is not
// limited to the detectors we used, and can incorporate emerging
// detectors, as long as they meet our detector requirements").
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "detectors/detector.hpp"

namespace opprentice::detectors {

// Builds every sampled configuration of one basic detector.
using DetectorFamilyFactory =
    std::function<std::vector<DetectorPtr>(const SeriesContext&)>;

class DetectorRegistry {
 public:
  // Registry preloaded with the paper's 14 detector families.
  static DetectorRegistry with_standard_families();

  // Empty registry (for tests / fully custom deployments).
  DetectorRegistry() = default;

  // Registers a family under `family_name`. Throws std::invalid_argument
  // on duplicates.
  void register_family(std::string family_name, DetectorFamilyFactory factory);

  bool has_family(const std::string& family_name) const;
  std::vector<std::string> family_names() const;
  std::size_t family_count() const { return families_.size(); }

  // Instantiates every configuration of every family, in registration
  // order. The standard registry yields the paper's 133 configurations.
  // The seasonal configurations among them share one SeasonalSlotStore
  // (ctx.slot_store is replaced by a fresh one).
  std::vector<DetectorPtr> instantiate_all(const SeriesContext& ctx) const;

  // Instantiates one family's configurations, with a slot store of their
  // own.
  std::vector<DetectorPtr> instantiate_family(const std::string& family_name,
                                              const SeriesContext& ctx) const;

 private:
  std::vector<std::pair<std::string, DetectorFamilyFactory>> families_;
};

// Shorthand: all 133 standard configurations.
std::vector<DetectorPtr> standard_configurations(const SeriesContext& ctx);

// The number of configurations the standard registry produces (133).
inline constexpr std::size_t kStandardConfigurationCount = 133;

}  // namespace opprentice::detectors
