// Run reports (DESIGN.md §5h): one schema-versioned JSON manifest per
// run, emitted by the CLI (--report <path>) and embedded in every bench
// --json envelope.
//
// A run report is the self-describing record of what a run was and what
// it cost: build/compiler info, thread configuration, the seeds that make
// it reproducible, stage wall-times, a full counter snapshot, the
// fault/repair/quarantine summaries, and the flight-recorder dump
// (flight_recorder.hpp). CI's network smoke reads the serve and agent
// reports; humans read them when a chaos run needs a postmortem.
// (`opprentice_perf` reads perfbench result lines, not run reports.)
//
// Schema "opprentice.run_report/2" — top-level keys, in order:
//   schema, tool, command, build{compiler, build_type, cxx_standard},
//   threads{configured, hardware_concurrency}, seeds{...}, stages[...],
//   counters{...}, resilience{faults, ingest, detector, net, net_sources,
//   forest_train_failures}, flight_recorder{...}, extra{...}
// Additive evolution only: consumers must tolerate new keys; removing or
// retyping one bumps the schema version (/2 dropped /1's "attribution").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace opprentice::obs {

class RunReport {
 public:
  static constexpr std::string_view kSchema = "opprentice.run_report/2";

  RunReport(std::string tool, std::string command);

  // Thread-pool degree the run was configured with (0 = hardware).
  void set_threads(std::size_t configured) { threads_ = configured; }

  // Named seeds that reproduce the run (forest seed, fault-plan seed...).
  void set_seed(std::string_view name, std::uint64_t value);

  // Appends one stage wall-time row; stages render in call order.
  void add_stage(std::string_view name, double ms);

  // Extra members under "extra", rendered in insertion order. Re-setting
  // a key overwrites in place.
  void set_field(std::string_view key, std::string_view value);
  // String literals would otherwise prefer the bool overload (pointer ->
  // bool is a standard conversion, const char* -> string_view is not).
  void set_field(std::string_view key, const char* value) {
    set_field(key, std::string_view(value));
  }
  void set_field(std::string_view key, double value);
  void set_field(std::string_view key, std::uint64_t value);
  void set_field(std::string_view key, bool value);

  // Pre-rendered JSON for one extra member (caller owns validity).
  void set_field_json(std::string_view key, std::string json);

  // Renders the manifest. Counters and the flight recorder are
  // snapshotted from the process-wide registries at call time.
  std::string to_json() const;

  // to_json() to a file; false when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  std::string tool_;
  std::string command_;
  std::size_t threads_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> seeds_;
  std::vector<std::pair<std::string, double>> stages_;
  // key -> pre-rendered JSON value, insertion-ordered.
  std::vector<std::pair<std::string, std::string>> extra_;
};

// RAII stage timer: measures construction-to-destruction wall time and
// appends it to the report as one stage row. The report must outlive the
// timer.
class StageTimer {
 public:
  StageTimer(RunReport& report, std::string_view name)
      : report_(report), name_(name) {}
  ~StageTimer() { report_.add_stage(name_, watch_.elapsed_ms()); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  RunReport& report_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace opprentice::obs
