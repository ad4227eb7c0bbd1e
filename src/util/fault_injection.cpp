#include "util/fault_injection.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::util {
namespace {

// splitmix64: passes statistical tests, two multiplies and three xors —
// cheap enough to sit on the severity hot path behind the enabled check.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

// Installed plans are retired, never destroyed, so a hot-path reader that
// loaded the pointer just before a reconfigure still reads valid memory
// (same lifetime discipline as the metrics registry's instruments).
struct PlanStore {
  util::Mutex mutex{util::LockLevel::fault_store};
  std::vector<std::unique_ptr<FaultPlan>> retired OPPRENTICE_GUARDED_BY(mutex);
  std::atomic<const FaultPlan*> active{nullptr};
};

PlanStore& plan_store() {
  // opprentice-check: allow(unguarded-static) Meyers singleton; the plan list is guarded by its own mutex and `active` is atomic
  static PlanStore store;
  return store;
}

// One-shot env activation: OPPRENTICE_FAULTS installs a plan the first
// time anything queries the harness, unless set_fault_plan ran first.
void ensure_env_plan_loaded() {
  static const bool loaded = [] {
    PlanStore& store = plan_store();
    if (store.active.load(std::memory_order_acquire) != nullptr) return true;
    const char* spec = std::getenv("OPPRENTICE_FAULTS");
    if (spec != nullptr && *spec != '\0') {
      set_fault_plan(parse_fault_spec(spec));
    }
    return true;
  }();
  (void)loaded;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const std::vector<std::string>& fault_sites() {
  static const std::vector<std::string> kSites = {
      std::string(faults::kIngestGap),     std::string(faults::kIngestDuplicate),
      std::string(faults::kIngestDisorder), std::string(faults::kIngestNan),
      std::string(faults::kDetectorThrow), std::string(faults::kDetectorNan),
      std::string(faults::kForestTrain),
      std::string(faults::kNetFrameCorrupt),
      std::string(faults::kNetFrameDrop),
      std::string(faults::kNetFrameDuplicate),
      std::string(faults::kNetFrameReorder),
      std::string(faults::kNetConnReset),
      std::string(faults::kNetAcceptFail),
  };
  return kSites;
}

FaultPlan parse_fault_spec(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t sep = rest.find_first_of(",;");
    const std::string_view piece = trim(rest.substr(0, sep));
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (piece.empty()) continue;
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(
          "fault spec entry '" + std::string(piece) +
          "' is not key=value (expected e.g. detector.throw=0.02)");
    }
    const std::string key(trim(piece.substr(0, eq)));
    const std::string value(trim(piece.substr(eq + 1)));
    if (key == "seed") {
      try {
        std::size_t pos = 0;
        plan.seed = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        throw std::invalid_argument("fault spec seed '" + value +
                                    "' is not a non-negative integer");
      }
      continue;
    }
    bool known = false;
    for (const auto& site : fault_sites()) known = known || site == key;
    if (!known) {
      std::string sites;
      for (const auto& site : fault_sites()) {
        if (!sites.empty()) sites += ", ";
        sites += site;
      }
      throw std::invalid_argument("unknown fault site '" + key +
                                  "' (valid sites: " + sites + ")");
    }
    double rate = 0.0;
    try {
      std::size_t pos = 0;
      rate = std::stod(value, &pos);
      if (pos != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("fault rate '" + value + "' for site '" +
                                  key + "' is not a number");
    }
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw std::invalid_argument("fault rate for site '" + key +
                                  "' must be in [0, 1], got " + value);
    }
    plan.rates[key] = rate;
  }
  return plan;
}

void set_fault_plan(const FaultPlan& plan) {
  PlanStore& store = plan_store();
  auto owned = std::make_unique<FaultPlan>(plan);
  const FaultPlan* raw = owned.get();
  {
    util::MutexLock lock(store.mutex);
    store.retired.push_back(std::move(owned));
  }
  store.active.store(raw, std::memory_order_release);
}

void clear_fault_plan() {
  plan_store().active.store(nullptr, std::memory_order_release);
}

bool faults_enabled() {
  ensure_env_plan_loaded();
  const FaultPlan* plan =
      plan_store().active.load(std::memory_order_acquire);
  if (plan == nullptr) return false;
  for (const auto& [site, rate] : plan->rates) {
    if (rate > 0.0) return true;
  }
  return false;
}

bool fault_fires(std::string_view site, std::uint64_t key) {
  ensure_env_plan_loaded();
  const FaultPlan* plan =
      plan_store().active.load(std::memory_order_acquire);
  if (plan == nullptr) return false;
  const auto it = plan->rates.find(site);
  if (it == plan->rates.end() || it->second <= 0.0) return false;
  const std::uint64_t h =
      splitmix64(plan->seed ^ fnv1a(site) ^
                 (key * 0x9E3779B97F4A7C15ull));
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < it->second;
}

bool inject_fault(std::string_view site, std::uint64_t key) {
  if (!fault_fires(site, key)) return false;
  obs::counter("opprentice.faults.injected").add();
  std::string name = "opprentice.faults.";
  name += site;
  obs::counter(name).add();
  // Whether a fault fires is a pure hash of (seed, site, key), so the
  // fired-event set — and therefore the sorted flight dump — is identical
  // at any thread count (flight_recorder.hpp).
  obs::flight_record("fault", site, key, "");
  return true;
}

std::uint64_t fault_key(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ splitmix64(b));
}

std::uint64_t stable_id_hash(std::string_view id) {
  return splitmix64(fnv1a(id));
}

}  // namespace opprentice::util
