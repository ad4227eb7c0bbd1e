#include "core/retrain_scheduler.hpp"

#include "util/fault_injection.hpp"

namespace opprentice::core {

RetrainScheduler::RetrainScheduler(std::uint64_t seed,
                                   std::size_t interval_points)
    : seed_(seed), interval_(interval_points == 0 ? 1 : interval_points) {}

std::size_t RetrainScheduler::phase(std::string_view id) const {
  return static_cast<std::size_t>(
      util::fault_key(seed_, util::stable_id_hash(id)) %
      static_cast<std::uint64_t>(interval_));
}

bool RetrainScheduler::due_at(std::size_t phase,
                              std::size_t points_seen) const {
  return points_seen >= interval_ && points_seen % interval_ == phase;
}

std::size_t RetrainScheduler::next_due(std::size_t phase,
                                       std::size_t points_seen) const {
  std::size_t n = points_seen + 1;
  if (n < interval_) n = interval_;
  const std::size_t rem = n % interval_;
  return rem <= phase ? n + (phase - rem) : n + interval_ - (rem - phase);
}

}  // namespace opprentice::core
