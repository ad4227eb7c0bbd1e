// Umbrella header for the observability layer (see DESIGN.md
// "Observability"):
//
//   metrics.hpp           counters / gauges / exponential-bucket
//                         histograms, Prometheus-text and JSON snapshots
//   trace.hpp             ScopedSpan RAII timers -> Chrome trace-event
//                         JSON (OPPRENTICE_TRACE=<path> or --trace <path>)
//   log.hpp               leveled key=value structured logging
//                         (OPPRENTICE_LOG=debug|info|warn|error)
//   flight_recorder.hpp   fixed-size ring of structured events for
//                         postmortems, deterministic dump order
//   run_report.hpp        schema-versioned per-run JSON manifest
//                         (--report <path>, bench --json)
//
// All of these are always compiled in and cost (near) nothing when
// disabled.
#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
