// Table 4: "Maximum precision when recall >= 0.66."
//
// For each KPI: the random forest, the two static combination methods, and
// the top-3 basic-detector configurations (by AUCPR), reporting the best
// precision achievable on the PR curve subject to the operators' recall
// floor. Paper: the forest exceeds 0.8 on all three KPIs; the combiners
// stay around 0.1-0.3.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "combiners/static_combiners.hpp"
#include "util/ascii_chart.hpp"

using namespace opprentice;

int main(int argc, char** argv) {
  bench::Session session(argc, argv);
  bench::print_header("Table 4", "maximum precision when recall >= 0.66");

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"Detection approach", "PV", "#SR", "SRT"};
  std::vector<std::vector<std::string>> cells(
      6, std::vector<std::string>(4, ""));
  cells[0][0] = "Random forest";
  cells[1][0] = "Normalization scheme";
  cells[2][0] = "Majority-vote";
  cells[3][0] = "1st basic detector";
  cells[4][0] = "2nd basic detector";
  cells[5][0] = "3rd basic detector";

  std::size_t col = 1;
  std::vector<std::string> top_names;
  for (const auto& preset :
       datagen::all_presets(datagen::scale_from_env())) {
    const auto data = bench::prepare_kpi(preset);
    const auto run = core::run_weekly_incremental(
        data.dataset, data.points_per_week, data.warmup,
        bench::standard_driver());
    const auto labels = bench::test_labels(data, run);

    const eval::PrCurve rf_curve(bench::test_scores(run), labels);
    cells[0][col] = bench::fmt(rf_curve.max_precision_at_recall(0.66), 2);

    const ml::Dataset train = data.dataset.slice(data.warmup, run.test_start);
    const ml::Dataset test =
        data.dataset.slice(run.test_start, data.dataset.num_rows());
    combiners::NormalizationScheme norm;
    norm.fit(train);
    combiners::MajorityVote vote;
    vote.fit(train);
    cells[1][col] = bench::fmt(
        eval::PrCurve(norm.score_all(test), labels).max_precision_at_recall(
            0.66),
        2);
    cells[2][col] = bench::fmt(
        eval::PrCurve(vote.score_all(test), labels).max_precision_at_recall(
            0.66),
        2);

    // Top-3 basic configurations by AUCPR.
    struct Cfg {
      std::string name;
      double aucpr;
      double precision;
    };
    std::vector<Cfg> cfgs;
    for (std::size_t f = 0; f < data.dataset.num_features(); ++f) {
      const auto c = data.dataset.column(f);
      const std::vector<double> sev(
          c.begin() + static_cast<std::ptrdiff_t>(run.test_start), c.end());
      const eval::PrCurve curve(sev, labels);
      cfgs.push_back({data.dataset.feature_names()[f], curve.aucpr(),
                      curve.max_precision_at_recall(0.66)});
    }
    std::sort(cfgs.begin(), cfgs.end(),
              [](const Cfg& a, const Cfg& b) { return a.aucpr > b.aucpr; });
    for (std::size_t k = 0; k < 3; ++k) {
      cells[3 + k][col] = bench::fmt(cfgs[k].precision, 2);
      top_names.push_back(preset.model.name + " #" + std::to_string(k + 1) +
                          ": " + cfgs[k].name);
    }
    ++col;
  }

  std::printf("%s", util::render_table(header, cells).c_str());
  std::printf("\ntop-3 basic configurations per KPI (by AUCPR):\n");
  for (const auto& n : top_names) std::printf("  %s\n", n.c_str());
  std::printf(
      "\nPaper (Table 4): random forest 0.83 / 0.87 / 0.89; normalization\n"
      "scheme 0.11 / 0.30 / 0.21; majority-vote 0.12 / 0.19 / 0.32; the\n"
      "best basic detector reaches 0.67 / 0.71 / 0.92 and differs per KPI.\n");
  return 0;
}
