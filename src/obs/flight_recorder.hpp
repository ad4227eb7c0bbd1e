// Flight recorder (DESIGN.md §5h): a fixed-size ring buffer of structured
// events for chaos-test postmortems.
//
// Logs answer "what happened" only when someone enabled them before the
// crash; the flight recorder is always on, bounded, and cheap, so the
// last N notable events (quarantine transitions, forest-training
// failures, ingest repairs, fault fires, pipeline stage transitions) are
// available after the fact — dumped into every run report and to stderr
// on a fatal CLI error.
//
// Determinism contract: an event is (category, name, key, detail) with NO
// timestamp and NO thread id — every field is a pure function of the
// logical work unit (configuration index, point index, training-window
// bounds), exactly like the fault-injection keys. Dumps sort events by
// (category, name, key, detail), so as long as the buffer did not
// overflow, a dump is byte-identical across reruns at any thread count
// (locked in by tests/parallel_equivalence_test.cpp). Overflow drops the
// oldest events and is itself reported (`dropped` in the dump), so a
// truncated postmortem is never mistaken for a complete one.
//
// Recording takes a mutex: every instrumented site is a rare transition
// (quarantine trips once per configuration, training fails at most once
// per week, repairs happen once per ingest pass), never a steady-state
// per-point path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::obs {

struct FlightEvent {
  // Dot-separated component like metric names: "detector", "forest",
  // "ingest", "fault", "stage".
  std::string category;
  // Event name within the category: "quarantine", "train_failed", ...
  std::string name;
  // Deterministic ordering key for the logical unit of work
  // (configuration index, fault key, stage ordinal).
  std::uint64_t key = 0;
  // Free-form detail, pre-rendered at the call site ("config=svd(...)").
  std::string detail;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  // Process-wide recorder used by the library's instrumentation.
  static FlightRecorder& instance();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Named record_event (not record) so tokenizer-level tools like the
  // hot-path analyzer never confuse this locking append with the
  // wait-free Histogram::record / CostSlot::record on the hot path.
  void record_event(std::string_view category, std::string_view name,
                    std::uint64_t key, std::string_view detail = {});

  // Events currently buffered / dropped to overflow since the last clear.
  std::size_t event_count() const;
  std::uint64_t dropped_count() const;
  std::size_t capacity() const { return capacity_; }

  // Buffered events sorted by (category, name, key, detail) — the
  // deterministic postmortem order, independent of thread interleaving.
  std::vector<FlightEvent> sorted_events() const;

  // JSON: {"capacity": N, "dropped": D, "events": [...]} in sorted order.
  std::string dump_json() const;
  // One "category.name key detail" line per sorted event, for stderr.
  std::string dump_text() const;

  void clear();

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_{util::LockLevel::flight_recorder};
  // Ring storage: next_ is the overwrite position once size reached
  // capacity_ (events_ then holds the newest capacity_ events).
  std::vector<FlightEvent> events_ OPPRENTICE_GUARDED_BY(mutex_);
  std::size_t next_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
};

// Shorthand against the process-wide recorder.
inline void flight_record(std::string_view category, std::string_view name,
                          std::uint64_t key, std::string_view detail = {}) {
  FlightRecorder::instance().record_event(category, name, key, detail);
}

}  // namespace opprentice::obs
