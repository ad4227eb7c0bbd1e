// Perf-regression gate over bench JSON (DESIGN.md §5h).
//
// `opprentice_perf` compares a fresh result document (perfbench's
// paper_stream result line) against the committed baseline
// (BENCH_paper_stream.json) metric by metric with relative tolerances,
// optionally appends the fresh numbers to a history file
// (BENCH_history.jsonl, one JSON object per line) and renders the history
// as sparklines. The --metric keys are the whole gate; each is an
// absolute dotted path into both documents.
//
// Semantics per metric (unmeasured encoded as -1):
//   - both measured:       a lower-is-better metric (the default)
//                          regresses when fresh > baseline * (1 + tol),
//                          a higher-is-better one (a throughput) when
//                          fresh < baseline / (1 + tol)
//   - baseline unmeasured: pass ("newly measured" — becomes the baseline
//                          on the next refresh)
//   - fresh unmeasured:    regression (a metric silently disappearing is
//                          exactly what a gate must catch)
//   - neither measured:    unreadable — the key names nothing either
//                          document holds (a typo would gate nothing), so
//                          the gate fails and the CLI exits 2
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace opprentice::perf {

// One gated metric: an absolute dotted path into the document
// ("metrics.lag_p50_ms.value"), its direction and the allowed relative
// worsening (0.25 = fresh may be up to 25% slower than baseline).
struct MetricSpec {
  std::string key;
  double tolerance = 0.25;
  bool higher_is_better = false;
};

// Parses a --metric argument, "key=tolerance" with an optional
// ":higher" (or ":lower", the default) direction suffix, e.g.
// "metrics.points_per_s.value=1.0:higher". False when malformed: no key,
// or a tolerance that is not a non-negative number.
bool parse_metric_spec(std::string_view text, MetricSpec* out);

struct MetricResult {
  std::string key;
  double baseline = -1.0;
  double fresh = -1.0;
  // fresh / baseline when both were measured, else -1.
  double ratio = -1.0;
  double tolerance = 0.25;
  bool higher_is_better = false;
  bool regressed = false;
  std::string note;
};

struct GateResult {
  std::vector<MetricResult> metrics;
  // Keys measured in neither document; a non-empty list fails the gate.
  std::vector<std::string> unreadable;
  bool pass = true;
  // Human-readable verdict table (render_table based).
  std::string summary;
};

GateResult run_gate(const util::json::Value& baseline,
                    const util::json::Value& fresh,
                    const std::vector<MetricSpec>& metrics);

// One history line for `fresh`: {"label": ..., "<metric>": ..., ...}, each
// metric under its flat key, dots included. Labels come from --label (a
// commit id, a CI run number) — never a wall clock, so reruns are
// byte-identical.
std::string history_row(std::string_view label,
                        const util::json::Value& fresh,
                        const std::vector<MetricSpec>& metrics);

// Appends one line to the history file (created if missing). False when
// the file cannot be written.
bool append_history(const std::string& path, const std::string& row);

// Renders one sparkline per metric over the history file's rows (rows
// missing a metric or with -1 contribute a gap). Empty string when the
// file is missing or holds no rows.
std::string render_history(const std::string& path,
                           const std::vector<MetricSpec>& metrics);

// Built-in self test: plants passing and regressing baseline/fresh pairs
// (plus a history round-trip) and checks the gate's verdicts. Returns 0
// on success, 1 with a diagnostic on stderr otherwise.
int self_test();

}  // namespace opprentice::perf
