// Perf-regression gate over bench JSON (DESIGN.md §5h).
//
// `opprentice_perf` compares a fresh `bench_sec58_performance --json`
// output against the committed baseline (BENCH_sec58.json) metric by
// metric with relative tolerances, optionally appends the fresh numbers
// to a history file (BENCH_history.jsonl, one JSON object per line) and
// renders the history as sparklines. CI runs it after every Release
// build; a tolerance breach fails the job. The same gate reads
// perfbench's paper_stream result line (BENCH_paper_stream.json) through
// dotted keys.
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
// The baseline decides what is gated. A baseline with a "sec58" object
// (a §5.8 bench envelope) gates the four default metrics, and the fresh
// run's `ordering_ok` (§5.8: classification << extraction << data
// interval) and `weekly_budget_ok` must hold — those are correctness
// claims, not tolerances, so they stay strict even across hardware. Any
// other baseline (a perfbench result line) gates only the metrics the
// caller names.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace opprentice::perf {

// One gated metric, its direction and the allowed relative worsening
// (0.25 = fresh may be up to 25% slower than baseline). A bare key
// ("training_ms_per_round") is looked up under the "sec58" summary
// object; a dotted key ("metrics.lag_p50_ms.value") is an absolute path
// into the document, which is how perfbench's paper_stream result joins
// the same gate.
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

// The default gate set: the four §5.8 cost metrics.
std::vector<MetricSpec> default_metrics(double tolerance);

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

struct GateOptions {
  // Against a sec58 baseline these override the default tolerance of
  // their key (or add a key); otherwise they are the whole gate set.
  std::vector<MetricSpec> metrics;
  double default_tolerance = 0.25;
};

// The metrics run_gate checks against `baseline` under `options` (see
// the header comment). Empty when a baseline without sec58 is given no
// metrics; the CLI refuses that rather than gate nothing.
std::vector<MetricSpec> gated_metrics(const util::json::Value& baseline,
                                      const GateOptions& options);

struct GateResult {
  std::vector<MetricResult> metrics;
  bool ordering_checked = false;
  bool ordering_ok = true;
  bool weekly_budget_ok = true;
  bool pass = true;
  // Human-readable verdict table (render_table based).
  std::string summary;
};

GateResult run_gate(const util::json::Value& baseline,
                    const util::json::Value& fresh,
                    const GateOptions& options);

// One history line for `fresh`: {"label": ..., "<metric>": ..., ...,
// "ordering_ok": ...}, each metric under its flat key, dots included. Labels come from --label (a commit id, a CI run
// number) — never a wall clock, so reruns are byte-identical.
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
