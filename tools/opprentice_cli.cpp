// opprentice_cli — file-based front end to the Opprentice library.
//
// A minimal operational workflow without writing any C++:
//
//   opprentice_cli generate --kpi pv --out kpi.csv --labels labels.csv
//   opprentice_cli profile  --kpi kpi.csv
//   opprentice_cli train    --kpi kpi.csv --labels labels.csv --model m.rf
//   opprentice_cli detect   --kpi kpi.csv --model m.rf --out det.csv
//   opprentice_cli evaluate --detections det.csv --labels labels.csv
//
// Every subcommand honors the observability flags (see README):
//   --trace <file>    write a Chrome trace-event JSON (Perfetto loadable)
//   --metrics <file>  write a metrics snapshot (JSON; .prom for
//                     Prometheus text)
//   --report <file>   write a schema-versioned run report (run_report.hpp)
#include <cstdio>
#include <exception>
#include <memory>

#include "cli_commands.hpp"
#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace {

int run_command(const opprentice::cli::Args& args) {
  using namespace opprentice::cli;
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "profile") return cmd_profile(args);
  if (args.command == "train") return cmd_train(args);
  if (args.command == "detect") return cmd_detect(args);
  if (args.command == "evaluate") return cmd_evaluate(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "agent") return cmd_agent(args);
  return print_usage();
}

}  // namespace

int main(int argc, char** argv) {
  namespace obs = opprentice::obs;
  namespace util = opprentice::util;
  try {
    const opprentice::cli::Args args =
        opprentice::cli::parse_args(argc, argv);
    const std::string unknown = opprentice::cli::unknown_flag(args);
    if (!unknown.empty()) {
      std::fprintf(stderr, "error: %s does not take --%s\n",
                   args.command.c_str(), unknown.c_str());
      return 2;
    }
    const std::string trace_path = args.get("trace");
    const std::string metrics_path = args.get("metrics");
    const std::string report_path = args.get("report");
    if (!trace_path.empty()) obs::enable_tracing();
    // Detailed timing feeds the per-family extraction histograms, which
    // only --metrics writes (a run report holds counters, not histograms).
    if (!metrics_path.empty()) obs::set_detailed_timing(true);
    // --threads N: parallelism degree (0 = hardware concurrency,
    // 1 = serial); overrides OPPRENTICE_THREADS for this run.
    if (args.has("threads")) {
      util::set_global_threads(args.get_size("threads", 0));
    }
    // --faults SPEC: deterministic fault injection (DESIGN.md §5f);
    // overrides OPPRENTICE_FAULTS for this run.
    if (args.has("faults")) {
      util::set_fault_plan(util::parse_fault_spec(args.get("faults")));
    }

    // --report <file>: one run-report manifest per run (run_report.hpp).
    std::unique_ptr<obs::RunReport> report;
    if (!report_path.empty()) {
      report = std::make_unique<obs::RunReport>("opprentice_cli",
                                                args.command);
      report->set_threads(args.get_size("threads", 0));
      if (args.has("seed")) report->set_seed("kpi", args.get_size("seed", 0));
      if (args.has("faults")) {
        report->set_seed("fault_plan",
                         util::parse_fault_spec(args.get("faults")).seed);
      }
      report->set_field("repair_policy", args.get("repair-policy", "drop"));
      opprentice::cli::set_run_report(report.get());
    }

    int status = 0;
    {
      obs::ScopedSpan span("cli." + args.command, "cli");
      obs::log(obs::LogLevel::kInfo, "cli", "command_start",
               {{"command", args.command}});
      status = run_command(args);
      obs::log(obs::LogLevel::kInfo, "cli", "command_done",
               {{"command", args.command}, {"status", status}});
    }

    if (report) {
      report->set_field("exit_status",
                        static_cast<std::uint64_t>(status < 0 ? 0 : status));
      opprentice::cli::set_run_report(nullptr);
      if (!report->write_file(report_path)) {
        std::fprintf(stderr, "warning: cannot write --report file %s\n",
                     report_path.c_str());
      } else {
        std::printf("wrote run report to %s\n", report_path.c_str());
      }
    }
    if (!trace_path.empty() && !obs::write_trace(trace_path)) {
      std::fprintf(stderr, "warning: cannot write --trace file %s\n",
                   trace_path.c_str());
    }
    if (!metrics_path.empty() && !obs::write_metrics_file(metrics_path)) {
      std::fprintf(stderr, "warning: cannot write --metrics file %s\n",
                   metrics_path.c_str());
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Postmortem: whatever notable events led up to the failure
    // (flight_recorder.hpp). Empty on the usual bad-flag errors.
    const std::string flight = obs::FlightRecorder::instance().dump_text();
    if (!flight.empty()) {
      std::fprintf(stderr, "flight recorder (last %zu events):\n%s",
                   obs::FlightRecorder::instance().event_count(),
                   flight.c_str());
    }
    return 1;
  }
}
