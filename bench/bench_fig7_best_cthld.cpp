// Fig 7: "Best cThld of each week from the 9th week."
//
// The figure motivates EWMA-based cThld prediction: the best cThld varies
// a lot across weeks but neighbouring weeks are more alike.
#include <cstdio>

#include "bench_common.hpp"
#include "util/ascii_chart.hpp"
#include "util/stats.hpp"

using namespace opprentice;

int main(int argc, char** argv) {
  bench::Session session(argc, argv);
  bench::print_header("Fig 7", "best cThld of each 1-week moving test set");

  const auto presets = datagen::all_presets(datagen::scale_from_env());
  for (const auto& preset : presets) {
    const auto data = bench::prepare_kpi(preset);
    const auto run = core::run_weekly_incremental(
        data.dataset, data.points_per_week, data.warmup,
        bench::standard_driver());

    std::vector<double> bests;
    for (const auto& w : run.weeks) bests.push_back(w.best.cthld);

    std::printf("\n%-4s best cThld per test week: %s\n",
                preset.model.name.c_str(),
                util::render_sparkline(bests).c_str());
    std::printf("     values:");
    for (double b : bests) std::printf(" %.2f", b);
    std::printf("\n");

    // Quantify "neighbouring weeks are more similar": mean |diff| between
    // adjacent weeks vs between random (all) pairs.
    double adjacent = 0.0;
    for (std::size_t i = 0; i + 1 < bests.size(); ++i) {
      adjacent += std::abs(bests[i + 1] - bests[i]);
    }
    adjacent /= static_cast<double>(bests.size() - 1);
    double all_pairs = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < bests.size(); ++i) {
      for (std::size_t j = i + 1; j < bests.size(); ++j) {
        all_pairs += std::abs(bests[i] - bests[j]);
        ++pairs;
      }
    }
    all_pairs /= static_cast<double>(pairs);
    std::printf(
        "     mean |Δ| adjacent weeks = %s, all week pairs = %s "
        "(adjacent <= all => EWMA prediction is sensible)\n",
        bench::fmt(adjacent).c_str(), bench::fmt(all_pairs).c_str());
  }
  std::printf(
      "\nPaper (Fig 7): best cThlds differ greatly over weeks, but are more\n"
      "similar to those of neighbouring weeks — motivating EWMA prediction.\n");
  return 0;
}
