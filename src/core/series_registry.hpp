// Sharded concurrent registry for per-series fleet state (DESIGN.md §5i).
//
// The fleet engine owns tens of thousands of per-series state objects
// keyed by series id. A single map under a single mutex would serialize
// every feed; this registry splits the key space over a fixed number of
// shards (chosen at construction, never resized), each an ordered map
// under its own annotated `util::Mutex`. A series id maps to its shard by
// a seeded deterministic hash (util::stable_id_hash), so the shard layout
// is identical in every process and at any thread count — registry
// placement can never perturb results.
//
// Shards hold `std::shared_ptr<T>`: lookups hand out a reference the
// caller can use after the shard lock is released, so an evict racing a
// feed is safe — the feeder keeps the state alive, the registry merely
// forgets it. Iteration (`ids_sorted`) snapshots ids shard by shard and
// merges them into one globally sorted list, so every traversal order is
// deterministic regardless of shard count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault_injection.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::core {

// Shard index for `id`: seeded hash reduced onto [0, shard_count).
// Deterministic across processes; exposed for tests and for callers that
// want to co-locate work by shard.
std::size_t registry_shard_index(std::string_view id, std::size_t shard_count,
                                 std::uint64_t seed);

template <typename T>
class SeriesRegistry {
 public:
  explicit SeriesRegistry(std::size_t shard_count = 16,
                          std::uint64_t seed = 0)
      : seed_(seed) {
    if (shard_count == 0) shard_count = 1;
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  std::size_t shard_count() const { return shards_.size(); }

  // Returns the entry for `id`, creating it from `factory()` if absent.
  // The factory runs under the shard lock, so concurrent get_or_create
  // calls for the same id construct exactly one T.
  template <typename Factory>
  std::shared_ptr<T> get_or_create(const std::string& id, Factory&& factory) {
    Shard& shard = shard_for(id);
    util::MutexLock lock(shard.mutex);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) return it->second;
    std::shared_ptr<T> made = factory();
    shard.entries.emplace(id, made);
    return made;
  }

  // Returns the entry for `id`, or nullptr when absent.
  std::shared_ptr<T> find(std::string_view id) const {
    const Shard& shard = shard_for(id);
    util::MutexLock lock(shard.mutex);
    const auto it = shard.entries.find(id);
    return it == shard.entries.end() ? nullptr : it->second;
  }

  bool contains(std::string_view id) const { return find(id) != nullptr; }

  // Removes `id`; returns false when it was not present. Outstanding
  // shared_ptr holders keep the state alive until they drop it.
  bool erase(std::string_view id) {
    Shard& shard = shard_for(id);
    util::MutexLock lock(shard.mutex);
    const auto it = shard.entries.find(id);
    if (it == shard.entries.end()) return false;
    shard.entries.erase(it);
    return true;
  }

  std::size_t entry_count() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mutex);
      n += shard->entries.size();
    }
    return n;
  }

  // All ids, globally sorted (shards hold ordered maps; the per-shard
  // runs are merged by a final sort). The snapshot is taken shard by
  // shard, so ids inserted concurrently may or may not appear — but any
  // id present for the whole call does.
  std::vector<std::string> ids_sorted() const {
    std::vector<std::string> ids;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mutex);
      for (const auto& [id, entry] : shard->entries) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  // Entries snapshot in globally sorted id order — the deterministic
  // traversal the fleet engine schedules ticks from.
  std::vector<std::pair<std::string, std::shared_ptr<T>>> snapshot_sorted()
      const {
    std::vector<std::pair<std::string, std::shared_ptr<T>>> out;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mutex);
      for (const auto& entry : shard->entries) out.push_back(entry);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

 private:
  struct Shard {
    mutable util::Mutex mutex{util::LockLevel::registry_shard};
    std::map<std::string, std::shared_ptr<T>, std::less<>> entries
        OPPRENTICE_GUARDED_BY(mutex);
  };

  Shard& shard_for(std::string_view id) {
    return *shards_[registry_shard_index(id, shards_.size(), seed_)];
  }
  const Shard& shard_for(std::string_view id) const {
    return *shards_[registry_shard_index(id, shards_.size(), seed_)];
  }

  // unique_ptr per shard: Mutex is not movable, and a stable address per
  // shard keeps the capability the analysis tracks well-defined.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t seed_;
};

}  // namespace opprentice::core
