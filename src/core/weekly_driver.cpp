#include "core/weekly_driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "eval/pr_curve.hpp"
#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace opprentice::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Fault-contained forest training for the strategy drivers (DESIGN.md
// §5f): trains on rows [max(train_begin, warmup), train_end) of data in
// place, returns nullopt when the window has no positive labels or
// training fails (injected or genuine) — the caller degrades instead of
// aborting. The injection key is the training window, so the fired-event
// set is a pure function of schedule + plan.
std::optional<ml::RandomForest> train_forest_guarded(
    const ml::Dataset& data, std::size_t warmup, std::size_t train_begin,
    std::size_t train_end, const ml::ForestOptions& options,
    const ml::ColumnOrder* order) {
  const std::size_t begin = std::max(train_begin, warmup);
  if (begin >= train_end) return std::nullopt;
  const auto labels =
      std::span(data.labels()).subspan(begin, train_end - begin);
  if (std::none_of(labels.begin(), labels.end(),
                   [](std::uint8_t y) { return y != 0; })) {
    return std::nullopt;
  }
  const std::uint64_t key = util::fault_key(begin, train_end);
  try {
    if (util::inject_fault(util::faults::kForestTrain, key)) {
      throw util::InjectedFault("injected forest.train");
    }
    ml::RandomForest forest(options);
    forest.train(data, begin, train_end, order);
    return forest;
  } catch (const std::exception& e) {
    obs::counter("opprentice.forest.train_failures").add();
    obs::log(obs::LogLevel::kWarn, "weekly", "train_failed",
             {{"train_begin", begin},
              {"train_end", train_end},
              {"error", e.what()}});
    // Keyed by the training window, so the event stream is a pure
    // function of the schedule + fault plan regardless of which worker
    // hit the failure (flight_recorder.hpp).
    obs::flight_record("weekly", "train_failed", key,
                       "train_begin=" + std::to_string(begin) +
                           " train_end=" + std::to_string(train_end));
    return std::nullopt;
  }
}

// The I1 windows of a dataset of num_rows rows, oldest first.
std::vector<StrategyWindows> i1_schedule(std::size_t num_rows,
                                         std::size_t points_per_week,
                                         std::size_t initial_weeks) {
  std::vector<StrategyWindows> schedule;
  for (std::size_t window = 0;; ++window) {
    const auto windows = strategy_windows(TrainingStrategy::kI1, window,
                                          num_rows, points_per_week,
                                          initial_weeks);
    if (!windows) break;
    schedule.push_back(*windows);
  }
  return schedule;
}

// The window the i-th parallel_for index runs. The pool hands indices out
// in ascending order, so the newest window, the largest forest, starts
// first and the lanes finish together instead of idling behind it.
std::size_t newest_first(std::size_t windows, std::size_t i) {
  return windows - 1 - i;
}

}  // namespace

const char* to_string(TrainingStrategy strategy) {
  switch (strategy) {
    case TrainingStrategy::kI1: return "I1";
    case TrainingStrategy::kI4: return "I4";
    case TrainingStrategy::kR4: return "R4";
    case TrainingStrategy::kF4: return "F4";
  }
  return "?";
}

std::optional<StrategyWindows> strategy_windows(TrainingStrategy strategy,
                                                std::size_t window_index,
                                                std::size_t num_rows,
                                                std::size_t points_per_week,
                                                std::size_t initial_weeks) {
  const std::size_t test_weeks =
      strategy == TrainingStrategy::kI1 ? 1 : 4;
  StrategyWindows w;
  w.test_begin = (initial_weeks + window_index) * points_per_week;
  w.test_end = w.test_begin + test_weeks * points_per_week;
  if (w.test_end > num_rows) return std::nullopt;

  switch (strategy) {
    case TrainingStrategy::kI1:
    case TrainingStrategy::kI4:
      w.train_begin = 0;  // all historical data
      w.train_end = w.test_begin;
      break;
    case TrainingStrategy::kR4:
      w.train_end = w.test_begin;
      w.train_begin = w.test_begin >= 8 * points_per_week
                          ? w.test_begin - 8 * points_per_week
                          : 0;
      break;
    case TrainingStrategy::kF4:
      w.train_begin = 0;
      w.train_end = initial_weeks * points_per_week;
      break;
  }
  return w;
}

std::vector<double> run_strategy_window(
    const ml::Dataset& data, std::size_t warmup,
    const StrategyWindows& windows, const ml::ForestOptions& options,
    const ml::ColumnOrder* order) {
  std::vector<double> scores(windows.test_end - windows.test_begin, kNaN);
  // A failed training window degrades instead of aborting the run: its
  // scores stay NaN, so its decisions are all 0 and other windows —
  // which train independently — are unaffected (DESIGN.md §5f).
  auto forest = train_forest_guarded(data, warmup, windows.train_begin,
                                     windows.train_end, options, order);
  if (!forest) return scores;

  obs::ScopedSpan span("weekly.score", "core");
  span.arg("rows", windows.test_end - windows.test_begin);
  return forest->score_all(data, windows.test_begin, windows.test_end);
}

IncrementalRunResult run_weekly_incremental(const ml::Dataset& data,
                                            std::size_t points_per_week,
                                            std::size_t warmup,
                                            const DriverOptions& options) {
  obs::ScopedSpan run_span("weekly.run", "core");
  run_span.arg("rows", data.num_rows());
  const obs::Stopwatch run_watch;

  IncrementalRunResult result;
  result.test_start = options.initial_weeks * points_per_week;
  result.scores.assign(data.num_rows(), kNaN);

  // Enumerate the window schedule up front, then fan the weeks out across
  // the pool. Each week trains on its own rows of history, read in place,
  // with pre-fixed forest seeds and writes a disjoint [test_begin,
  // test_end) score range plus its own WeekResult slot, so the run is
  // bit-identical at any thread count and in any order.
  const std::vector<StrategyWindows> schedule =
      i1_schedule(data.num_rows(), points_per_week, options.initial_weeks);
  result.weeks.assign(schedule.size(), WeekResult{});
  // Every week trains on a prefix of the same rows, so each column is
  // sorted once, over the rows the newest week trains on, and every week
  // bins from that order instead of sorting its window again.
  std::optional<ml::ColumnOrder> order;
  if (!schedule.empty() && warmup < schedule.back().train_end) {
    order.emplace(data, warmup, schedule.back().train_end);
  }
  util::parallel_for(schedule.size(), [&](std::size_t i) {
    const std::size_t window = newest_first(schedule.size(), i);
    const StrategyWindows& windows = schedule[window];
    obs::ScopedSpan week_span("weekly.window", "core");
    week_span.arg("week", window);
    week_span.arg("train_rows", windows.train_end - windows.train_begin);

    const std::vector<double> week_scores =
        run_strategy_window(data, warmup, windows, options.forest,
                            order ? &*order : nullptr);
    std::copy(week_scores.begin(), week_scores.end(),
              result.scores.begin() +
                  static_cast<std::ptrdiff_t>(windows.test_begin));

    WeekResult wr;
    wr.test_begin = windows.test_begin;
    wr.test_end = windows.test_end;
    {
      obs::ScopedSpan pick_span("weekly.cthld_pick", "core");
      const eval::PrCurve curve(
          week_scores, std::span(data.labels())
                           .subspan(windows.test_begin, week_scores.size()));
      wr.best = eval::pick_threshold(curve, eval::ThresholdMethod::kPcScore,
                                     options.preference);
    }
    result.weeks[window] = wr;
    obs::counter("opprentice.weekly.windows").add();
    if (obs::log_enabled(obs::LogLevel::kInfo)) {
      obs::log(obs::LogLevel::kInfo, "weekly", "window_done",
               {{"week", window},
                {"best_cthld", wr.best.cthld},
                {"recall", wr.best.recall},
                {"precision", wr.best.precision}});
    }
  });
  obs::histogram("opprentice.weekly.run.ms").record(run_watch.elapsed_ms());
  return result;
}

std::vector<double> five_fold_weekly_cthlds(const ml::Dataset& data,
                                            std::size_t points_per_week,
                                            std::size_t warmup,
                                            const DriverOptions& options) {
  const std::vector<StrategyWindows> schedule =
      i1_schedule(data.num_rows(), points_per_week, options.initial_weeks);
  // Weeks fan out across the pool, newest first; each week's five-fold
  // selection (and the forest trainings inside it) then runs inline on its
  // worker. five_fold_cthld draws its folds as row lists, so this window
  // is still a copy.
  std::vector<double> cthlds(schedule.size(), 0.0);
  util::parallel_for(schedule.size(), [&](std::size_t i) {
    const std::size_t window = newest_first(schedule.size(), i);
    const std::size_t begin = std::max(schedule[window].train_begin, warmup);
    const ml::Dataset train = data.slice(begin, schedule[window].train_end);
    cthlds[window] =
        five_fold_cthld(train, options.preference, options.forest);
  });
  return cthlds;
}

std::vector<std::uint8_t> decisions_from_weekly_cthlds(
    const IncrementalRunResult& run,
    const std::vector<double>& weekly_cthlds) {
  std::vector<std::uint8_t> decisions(run.scores.size(), 0);
  for (std::size_t w = 0; w < run.weeks.size() && w < weekly_cthlds.size();
       ++w) {
    const auto& week = run.weeks[w];
    for (std::size_t i = week.test_begin; i < week.test_end; ++i) {
      const double s = run.scores[i];
      decisions[i] = (!std::isnan(s) && s >= weekly_cthlds[w]) ? 1 : 0;
    }
  }
  return decisions;
}

std::vector<WindowedMetrics> windowed_metrics(
    std::span<const std::uint8_t> decisions,
    std::span<const std::uint8_t> truth, std::size_t first_row,
    std::size_t window_points, std::size_t step_points) {
  std::vector<WindowedMetrics> out;
  const std::size_t n = std::min(decisions.size(), truth.size());
  for (std::size_t begin = first_row; begin + window_points <= n;
       begin += step_points) {
    const std::size_t end = begin + window_points;
    const auto counts =
        eval::confusion(decisions.subspan(begin, window_points),
                        truth.subspan(begin, window_points));
    WindowedMetrics wm;
    wm.begin = begin;
    wm.end = end;
    wm.recall = eval::recall(counts);
    wm.precision = eval::precision(counts);
    out.push_back(wm);
  }
  return out;
}

}  // namespace opprentice::core
