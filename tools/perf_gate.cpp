#include "perf_gate.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json_util.hpp"
#include "util/ascii_chart.hpp"

namespace opprentice::perf {
namespace {

constexpr std::string_view kSummaryPrefix = "sec58.";

bool measured(double v) { return v > 0.0; }

bool has_sec58(const util::json::Value& doc) {
  const auto* sec58 = doc.find("sec58");
  return sec58 != nullptr && sec58->is_object();
}

// Bare keys live under the historical "sec58" summary object; a key with
// a dot ("metrics.lag_p50_ms.value") is an absolute path, so perfbench's
// result line joins the gate without schema surgery.
std::string metric_path(const MetricSpec& spec) {
  return spec.key.find('.') == std::string::npos
             ? std::string(kSummaryPrefix) + spec.key
             : spec.key;
}

MetricResult gate_metric(const MetricSpec& spec,
                         const util::json::Value& baseline,
                         const util::json::Value& fresh) {
  const std::string path = metric_path(spec);
  MetricResult r;
  r.key = spec.key;
  r.tolerance = spec.tolerance;
  r.higher_is_better = spec.higher_is_better;
  r.baseline = baseline.number_at(path, -1.0);
  r.fresh = fresh.number_at(path, -1.0);
  if (!measured(r.baseline) && !measured(r.fresh)) {
    r.note = "unmeasured on both sides";
    return r;
  }
  if (!measured(r.baseline)) {
    r.note = "newly measured (no baseline)";
    return r;
  }
  if (!measured(r.fresh)) {
    r.regressed = true;
    r.note = "metric disappeared from the fresh run";
    return r;
  }
  r.ratio = r.fresh / r.baseline;
  if (spec.higher_is_better ? r.ratio * (1.0 + spec.tolerance) < 1.0
                            : r.ratio > 1.0 + spec.tolerance) {
    r.regressed = true;
    r.note = (spec.higher_is_better ? "falls short of baseline by more than "
                                    : "exceeds baseline by more than ") +
             util::format_double(100.0 * spec.tolerance, 0) + "%";
  }
  return r;
}

// The ratio a metric may reach: at most 1 + tol lower-is-better, at
// least 1 / (1 + tol) higher-is-better.
std::string limit_text(const MetricResult& m) {
  return m.higher_is_better
             ? ">=" + util::format_double(1.0 / (1.0 + m.tolerance), 2)
             : "<=" + util::format_double(1.0 + m.tolerance, 2);
}

std::string render_summary(const GateResult& result) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& m : result.metrics) {
    rows.push_back(
        {m.key, measured(m.baseline) ? util::format_double(m.baseline, 3) : "-",
         measured(m.fresh) ? util::format_double(m.fresh, 3) : "-",
         m.ratio > 0.0 ? util::format_double(m.ratio, 3) : "-",
         limit_text(m),
         m.regressed ? "REGRESSED" : "ok"});
  }
  std::string out = util::render_table(
      {"metric", "baseline", "fresh", "ratio", "limit", "status"}, rows);
  for (const auto& m : result.metrics) {
    if (!m.note.empty()) out += "  " + m.key + ": " + m.note + "\n";
  }
  if (result.ordering_checked) {
    out += "  ordering_ok: ";
    out += result.ordering_ok ? "true" : "FALSE (sec5.8 ordering violated)";
    out += "\n  weekly_budget_ok: ";
    out += result.weekly_budget_ok ? "true" : "FALSE (over the 5-min budget)";
    out += "\n";
  }
  out += result.pass ? "PASS\n" : "FAIL\n";
  return out;
}

}  // namespace

bool parse_metric_spec(std::string_view text, MetricSpec* out) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  std::string_view tolerance = text.substr(eq + 1);
  bool higher_is_better = false;
  if (const std::size_t colon = tolerance.find(':');
      colon != std::string_view::npos) {
    const std::string_view direction = tolerance.substr(colon + 1);
    if (direction != "higher" && direction != "lower") return false;
    higher_is_better = direction == "higher";
    tolerance = tolerance.substr(0, colon);
  }
  // Strict non-negative double parse (std::strtod; no partial parses).
  const std::string number(tolerance);
  if (number.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  if (end != number.c_str() + number.size() || !(v >= 0.0)) return false;
  out->key = std::string(text.substr(0, eq));
  out->tolerance = v;
  out->higher_is_better = higher_is_better;
  return true;
}

std::vector<MetricSpec> default_metrics(double tolerance) {
  return {{"extraction_us_per_point", tolerance},
          {"classification_us_per_point", tolerance},
          {"training_ms_per_round", tolerance},
          {"five_fold_cthld_ms", tolerance}};
}

std::vector<MetricSpec> gated_metrics(const util::json::Value& baseline,
                                      const GateOptions& options) {
  if (!has_sec58(baseline)) return options.metrics;
  std::vector<MetricSpec> metrics =
      default_metrics(options.default_tolerance);
  for (const auto& o : options.metrics) {
    bool found = false;
    for (auto& m : metrics) {
      if (m.key == o.key) {
        m = o;
        found = true;
      }
    }
    if (!found) metrics.push_back(o);
  }
  return metrics;
}

GateResult run_gate(const util::json::Value& baseline,
                    const util::json::Value& fresh,
                    const GateOptions& options) {
  GateResult result;
  for (const auto& spec : gated_metrics(baseline, options)) {
    result.metrics.push_back(gate_metric(spec, baseline, fresh));
    result.pass = result.pass && !result.metrics.back().regressed;
  }
  // Decided from the baseline alone: a fresh run that lost its sec58
  // object must fail the ordering check, not skip it.
  if (has_sec58(baseline)) {
    result.ordering_checked = true;
    result.ordering_ok = fresh.bool_at("sec58.ordering_ok", false);
    // weekly_budget_ok appeared after the first baselines; require it
    // when either side records it (additive schema evolution).
    constexpr std::string_view kBudget = "sec58.weekly_budget_ok";
    result.weekly_budget_ok =
        (baseline.find_path(kBudget) == nullptr &&
         fresh.find_path(kBudget) == nullptr) ||
        fresh.bool_at(kBudget, false);
    result.pass =
        result.pass && result.ordering_ok && result.weekly_budget_ok;
  }
  result.summary = render_summary(result);
  return result;
}

std::string history_row(std::string_view label,
                        const util::json::Value& fresh,
                        const std::vector<MetricSpec>& metrics) {
  std::string out = "{\"label\": ";
  obs::append_json_string(out, label);
  for (const auto& spec : metrics) {
    out += ", ";
    obs::append_json_string(out, spec.key);
    out += ": ";
    obs::append_json_double(out, fresh.number_at(metric_path(spec), -1.0));
  }
  // Only sec5.8 envelopes carry the ordering bit; a perfbench row must
  // not record a misleading `false` for a check that never ran.
  if (fresh.find_path("sec58.ordering_ok") != nullptr) {
    out += ", \"ordering_ok\": ";
    out += fresh.bool_at("sec58.ordering_ok", false) ? "true" : "false";
  }
  out += "}";
  return out;
}

bool append_history(const std::string& path, const std::string& row) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << row << '\n';
  return static_cast<bool>(out);
}

std::string render_history(const std::string& path,
                           const std::vector<MetricSpec>& metrics) {
  std::ifstream in(path);
  if (!in) return "";
  std::vector<util::json::Value> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(util::json::parse(line));
  }
  if (rows.empty()) return "";
  std::string out = "history (" + std::to_string(rows.size()) +
                    " runs, oldest first):\n";
  for (const auto& spec : metrics) {
    // history_row writes each metric under its flat key, dots included,
    // so look it up as one member, not as a dotted path.
    auto value_in = [&spec](const util::json::Value& row) {
      const auto* v = row.find(spec.key);
      return v != nullptr && v->is_number() ? v->number : -1.0;
    };
    std::vector<double> ys;
    ys.reserve(rows.size());
    for (const auto& row : rows) {
      const double v = value_in(row);
      ys.push_back(measured(v) ? v
                               : std::numeric_limits<double>::quiet_NaN());
    }
    double last = -1.0;
    std::string last_label = "-";
    for (std::size_t i = rows.size(); i-- > 0;) {
      if (const double v = value_in(rows[i]); measured(v)) {
        last = v;
        const auto* label = rows[i].find("label");
        if (label != nullptr && label->is_string()) {
          last_label = label->string;
        }
        break;
      }
    }
    out += "  " + spec.key + ": " + util::render_sparkline(ys) + " last " +
           (measured(last) ? util::format_double(last, 3) : "-") + " (" +
           last_label + ")\n";
  }
  return out;
}

int self_test() {
  auto bench_json = [](double extraction, double classification,
                       double training, double five_fold, bool ordering) {
    std::ostringstream doc;
    doc << "{\"schema\": \"opprentice.bench.metrics/1\", \"sec58\": {"
        << "\"extraction_us_per_point\": " << extraction
        << ", \"classification_us_per_point\": " << classification
        << ", \"training_ms_per_round\": " << training
        << ", \"five_fold_cthld_ms\": " << five_fold
        << ", \"ordering_ok\": " << (ordering ? "true" : "false")
        << ", \"weekly_budget_ok\": true}}";
    return util::json::parse(doc.str());
  };
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "perf_gate self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  const auto baseline = bench_json(100.0, 1.0, 500.0, 900.0, true);
  GateOptions options;

  // Identical runs pass.
  expect(run_gate(baseline, baseline, options).pass,
         "identical baseline/fresh must pass");

  // Small drift inside the tolerance passes.
  expect(run_gate(baseline, bench_json(110.0, 1.1, 520.0, 910.0, true),
                  options)
             .pass,
         "10% drift must pass the 25% tolerance");

  // A 2x extraction regression fails, and names the metric.
  const auto regressed =
      run_gate(baseline, bench_json(200.0, 1.0, 500.0, 900.0, true), options);
  expect(!regressed.pass, "2x extraction must fail");
  expect(!regressed.metrics.empty() && regressed.metrics[0].regressed &&
             regressed.metrics[0].key == "extraction_us_per_point",
         "the regressed metric must be flagged");

  // A generous per-metric override lets the same pair pass.
  GateOptions loose;
  loose.metrics = default_metrics(0.25);
  loose.metrics[0].tolerance = 1.5;
  expect(run_gate(baseline, bench_json(200.0, 1.0, 500.0, 900.0, true), loose)
             .pass,
         "tolerance override must admit the 2x run");

  // ordering_ok=false fails even with perfect numbers.
  expect(!run_gate(baseline, bench_json(100.0, 1.0, 500.0, 900.0, false),
                   options)
              .pass,
         "ordering_ok=false must fail");

  // A metric disappearing (-1) from the fresh run fails ...
  expect(!run_gate(baseline, bench_json(100.0, 1.0, 500.0, -1.0, true),
                   options)
              .pass,
         "a disappeared metric must fail");
  // ... while a metric the baseline never had passes.
  expect(run_gate(bench_json(100.0, 1.0, 500.0, -1.0, true),
                  bench_json(100.0, 1.0, 500.0, 900.0, true), options)
             .pass,
         "a newly measured metric must pass");

  // Dotted keys resolve as absolute paths, not under "sec58": CI gates
  // perfbench's paper_stream result line this way.
  const auto paper_doc = [](double lag_p50_ms) {
    std::ostringstream doc;
    doc << "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
        << "\"metrics\": {\"lag_p50_ms\": {\"value\": " << lag_p50_ms
        << ", \"unit\": \"ms\"}}}";
    return util::json::parse(doc.str());
  };
  GateOptions paper_gate;
  paper_gate.metrics = {{"metrics.lag_p50_ms.value", 1.0}};
  expect(run_gate(paper_doc(0.3), paper_doc(0.5), paper_gate).pass,
         "dotted-key metric inside tolerance must pass");
  expect(!run_gate(paper_doc(0.3), paper_doc(0.7), paper_gate).pass,
         "dotted-key metric regression must fail");
  expect(gated_metrics(paper_doc(0.3), GateOptions{}).empty(),
         "a baseline without sec58 must gate only the named metrics");

  // A higher-is-better metric (a throughput) regresses when it falls, by
  // the same ratio a lower-is-better one may rise.
  const auto throughput_doc = [](double points_per_s) {
    std::ostringstream doc;
    doc << "{\"metrics\": {\"points_per_s\": {\"value\": " << points_per_s
        << ", \"unit\": \"points/s\"}}}";
    return util::json::parse(doc.str());
  };
  MetricSpec throughput;
  expect(parse_metric_spec("metrics.points_per_s.value=1.0:higher",
                           &throughput) &&
             throughput.key == "metrics.points_per_s.value" &&
             throughput.tolerance == 1.0 && throughput.higher_is_better,
         "key=tol:higher must parse as a higher-is-better metric");
  GateOptions throughput_gate;
  throughput_gate.metrics = {throughput};
  expect(run_gate(throughput_doc(70000.0), throughput_doc(150000.0),
                  throughput_gate)
             .pass,
         "a throughput more than doubled must pass");
  expect(run_gate(throughput_doc(70000.0), throughput_doc(40000.0),
                  throughput_gate)
             .pass,
         "a throughput inside the tolerance must pass");
  const auto slow =
      run_gate(throughput_doc(70000.0), throughput_doc(30000.0),
               throughput_gate);
  expect(!slow.pass && slow.metrics[0].regressed &&
             slow.summary.find(">=0.50") != std::string::npos,
         "a throughput below baseline / (1 + tol) must fail");
  // The default direction is unchanged: the same numbers as a
  // lower-is-better metric pass the fall and fail the doubling.
  MetricSpec lower;
  expect(parse_metric_spec("metrics.points_per_s.value=1.0", &lower) &&
             !lower.higher_is_better &&
             parse_metric_spec("metrics.points_per_s.value=1.0:lower",
                               &lower) &&
             !lower.higher_is_better,
         "key=tol and key=tol:lower must parse as lower-is-better");
  GateOptions lower_gate;
  lower_gate.metrics = {lower};
  expect(run_gate(throughput_doc(70000.0), throughput_doc(30000.0),
                  lower_gate)
                 .pass &&
             !run_gate(throughput_doc(70000.0), throughput_doc(150000.0),
                       lower_gate)
                  .pass,
         "a lower-is-better metric must fail on a rise, not a fall");
  MetricSpec rejected;
  expect(!parse_metric_spec("metrics.points_per_s.value=1.0:faster",
                            &rejected) &&
             !parse_metric_spec("=1.0", &rejected) &&
             !parse_metric_spec("key=:higher", &rejected) &&
             !parse_metric_spec("key=-1", &rejected) &&
             !parse_metric_spec("key", &rejected),
         "malformed metric specs must be rejected");

  // The baseline decides the gate set: a fresh document without sec58
  // gated against a sec58 baseline still gets the defaults and the
  // ordering check, so it fails.
  const auto lost_sec58 = run_gate(baseline, paper_doc(0.3), paper_gate);
  expect(!lost_sec58.pass && lost_sec58.ordering_checked &&
             lost_sec58.metrics.size() == 5,
         "a fresh run without sec58 must fail against a sec58 baseline");
  const std::string paper_row =
      history_row("r3", paper_doc(0.25), paper_gate.metrics);
  expect(paper_row.find("\"metrics.lag_p50_ms.value\": 0.25") !=
             std::string::npos,
         "dotted-key metric must appear in history rows");
  expect(paper_row.find("ordering_ok") == std::string::npos,
         "rows for documents without sec58 must omit ordering_ok");

  // History round-trip: two appended rows render two-run sparklines.
  const std::string path =
      (std::filesystem::temp_directory_path() / "opprentice_perf_selftest.jsonl")
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  const auto metrics = default_metrics(0.25);
  expect(append_history(path, history_row("r1", baseline, metrics)) &&
             append_history(
                 path, history_row("r2", bench_json(110.0, 1.0, 500.0, 900.0,
                                                    true),
                                   metrics)),
         "history append must succeed");
  const std::string rendered = render_history(path, metrics);
  expect(rendered.find("2 runs") != std::string::npos &&
             rendered.find("extraction_us_per_point") != std::string::npos &&
             rendered.find("(r2)") != std::string::npos,
         "history render must show both runs and the last label");
  std::filesystem::remove(path, ec);

  // The same round-trip for a dotted key: the rows store it flat, and the
  // render must still find both values and the last label.
  expect(append_history(path, history_row("p1", paper_doc(0.25),
                                          paper_gate.metrics)) &&
             append_history(path, history_row("p2", paper_doc(0.5),
                                               paper_gate.metrics)),
         "dotted-key history append must succeed");
  const std::string dotted = render_history(path, paper_gate.metrics);
  expect(dotted.find("2 runs") != std::string::npos &&
             dotted.find("metrics.lag_p50_ms.value: ▁█ last 0.500 (p2)") !=
                 std::string::npos,
         "dotted-key history render must show both values and the last "
         "label");
  std::filesystem::remove(path, ec);

  if (failures == 0) std::printf("perf_gate self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace opprentice::perf
