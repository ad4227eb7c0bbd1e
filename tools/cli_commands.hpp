// Subcommands of the opprentice_cli tool.
//
//   generate   synthesize a KPI (+ operator labels) to CSV
//   profile    Table-1-style statistics and an ASCII chart of a KPI CSV
//   train      extract the 133 features, train a forest, pick a cThld
//   detect     score a KPI CSV with a saved model and write detections
//   evaluate   recall/precision of detections against labels
//
// All file formats are the CSVs used by examples/csv_pipeline.cpp:
//   kpi.csv        timestamp,value
//   labels.csv     window_begin,window_end         (point indices)
//   detections.csv timestamp,value,anomaly_probability,is_anomaly
//   model file     ml/serialize.hpp format, plus a "cthld <x>" trailer
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace opprentice::core {
struct FleetOptions;
}
namespace opprentice::obs {
class RunReport;
}
namespace opprentice::ts {
class LabelSet;
struct RawPoint;
}

namespace opprentice::cli {

// Parsed "--key value" arguments plus positional leftovers.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
};

Args parse_args(int argc, char** argv);

// The first parsed flag that args.command does not read and that is not
// one every command takes (--trace --metrics --report --threads
// --faults), or "" when there is none or the command is unknown. main
// exits 2 naming it, so a misspelled or removed flag never runs the
// command on defaults.
std::string unknown_flag(const Args& args);

// Installs the run report the commands add their stage wall-times to
// (--report <path>, run_report.hpp). Owned by the caller; nullptr
// uninstalls. Main sets this once before dispatching the command.
void set_run_report(obs::RunReport* report);
// The installed report, or nullptr (for commands in other files).
obs::RunReport* run_report();

// Reads a KPI CSV's (timestamp, value) rows as raw points, before any
// repair. Throws, naming the file and the 1-based data row, unless every
// timestamp is a finite integer that fits std::int64_t.
std::vector<ts::RawPoint> load_raw_points(const std::string& path);

// Reads a labels CSV (window_begin,window_end point indices). Throws,
// naming the file and the 1-based data row, unless every row holds two
// finite non-negative integers with window_begin <= window_end.
ts::LabelSet load_labels(const std::string& path);

int cmd_generate(const Args& args);
int cmd_profile(const Args& args);
int cmd_train(const Args& args);
int cmd_detect(const Args& args);
int cmd_evaluate(const Args& args);
// Network ingestion daemon + replayer agent (src/net, cli_net.cpp).
// serve's engine: paper_stream's configuration on an interval_seconds grid.
core::FleetOptions serve_fleet_options(std::int64_t interval_seconds);
int cmd_serve(const Args& args);
int cmd_agent(const Args& args);
int print_usage();

}  // namespace opprentice::cli
