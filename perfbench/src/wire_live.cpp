// wire_live: the daemon's live ingest path, wire frame to engine.
//
// 32 in-memory agents (net::AgentCore) of 4 series each — 128 series —
// feed one net::IngestServer, which feeds a core::FleetEngine. Every
// 10-minute interval each agent sends one 1-point DATA frame per series,
// lockstep (one frame in flight), then the server runs one tick(); once
// a day each agent also sends one LABEL frame per series. A seeded 0.5%
// of values are NaN, so repair and the detector fault boundary do work.
//
// The bank is this file's own short-window set (simple_threshold, diff,
// ewma; nothing warming up longer than a day), so per-frame costs,
// repair and per-point engine overhead dominate. Retrains are scheduled
// past the end of any run: this workload isolates the ingest path, and
// paper_stream carries the retrain cost. IngestServer applies batches
// serially, so the pool sits idle.
//
// Closed loop: the next interval is sent only after the previous one's
// ACKs returned and its tick() applied it. Lag is the time from the
// interval's first frame to the end of that tick.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "net/agent.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timeseries/repair.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = opprentice::core;
namespace detectors = opprentice::detectors;
namespace net = opprentice::net;
namespace ts = opprentice::ts;

constexpr std::size_t kAgents = 32;
constexpr std::size_t kSeriesPerAgent = 4;
constexpr std::size_t kSeries = kAgents * kSeriesPerAgent;
// A day warms every detector of the bank; set-up replays a week so that
// each set-up lasts long enough (~0.4 s) to average over the host's
// speed swings, which a 0.1 s set-up could sit wholly inside.
constexpr std::size_t kWarmDays = 7;
constexpr std::size_t kSetupRepeats = 9;
constexpr double kNanShare = 0.005;
constexpr std::int64_t kEpoch = 1700000400;  // a multiple of 600 s
constexpr const char* kFamilies[] = {"simple_threshold", "diff", "ewma"};

// One family's configurations that warm up within a day.
std::vector<detectors::DetectorPtr> short_window_family(
    const char* family, const detectors::SeriesContext& ctx) {
  std::vector<detectors::DetectorPtr> out;
  for (auto& config : detectors::DetectorRegistry::with_standard_families()
                          .instantiate_family(family, ctx)) {
    if (config->warmup_points() <= ctx.points_per_day) {
      out.push_back(std::move(config));
    }
  }
  return out;
}

std::vector<detectors::DetectorPtr> short_window_bank(
    const detectors::SeriesContext& ctx) {
  std::vector<detectors::DetectorPtr> out;
  for (const char* family : kFamilies) {
    for (auto& config : short_window_family(family, ctx)) {
      out.push_back(std::move(config));
    }
  }
  return out;
}

core::FleetOptions engine_options() {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{kPointsPerDay, kPointsPerWeek};
  options.detector_factory = short_window_bank;
  // Far past any run's end: the window replays the inputs for as long as
  // it measures, and no series may retrain.
  options.retrain_interval = 1000 * kPointsPerWeek;
  options.history_capacity = kPointsPerDay;
  return options;
}

std::string series_id(std::size_t agent, std::size_t j) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "a%02zu/s%02zu", agent, j);
  return buf;
}

// Values are kept as float. The deployment replays the inputs from the
// start when it reaches their end (whole weeks, so the daily and weekly
// shapes continue); interval t uses input column t % length.
struct Inputs {
  std::vector<std::vector<float>> values;  // [agent * 4 + j][column]
  std::vector<std::vector<std::uint8_t>> labels;
  std::vector<std::uint32_t> nan_points;   // NaN values per interval
  std::size_t length = 0;
};

Inputs generate_inputs(std::uint64_t seed, std::size_t weeks) {
  Inputs in;
  in.values.resize(kSeries);
  in.labels.resize(kSeries);
  for (std::size_t s = 0; s < kSeries; ++s) {
    GeneratedSeries g = generate_series(seed, s, weeks);
    std::vector<float>& values = in.values[s];
    values.resize(g.values.size());
    for (std::size_t t = 0; t < g.values.size(); ++t) {
      const std::uint64_t h = derive_seed(derive_seed(seed, s), t);
      values[t] = static_cast<double>(h >> 11) * 0x1.0p-53 < kNanShare
                      ? std::numeric_limits<float>::quiet_NaN()
                      : static_cast<float>(g.values[t]);
    }
    in.labels[s] = std::move(g.labels);
  }
  in.length = in.values.front().size();
  in.nan_points.assign(in.length, 0);
  for (const auto& values : in.values) {
    for (std::size_t t = 0; t < in.length; ++t) {
      in.nan_points[t] += std::isnan(values[t]) ? 1 : 0;
    }
  }
  return in;
}

struct Agent {
  explicit Agent(const std::string& source) : core(source) {}
  net::AgentCore core;
  net::FrameParser replies;
  std::uint64_t conn = 0;
};

// Counts the load generator takes at the layer boundaries.
struct Counters {
  std::uint64_t frames = 0;       // frames sent
  std::uint64_t data_points = 0;  // points in DATA frames
  std::uint64_t nan_points = 0;
  std::uint64_t bytes = 0;        // client bytes sent
  std::uint64_t retries = 0;      // RETRY replies
  std::uint64_t errors = 0;       // ERROR replies
  std::uint64_t closed = 0;       // on_bytes asked to close
  double queue_wait_ms = 0.0;     // summed over queued frames
  std::uint64_t queued = 0;
};

struct Names {
  explicit Names(Tracer& tracer)
      : tick(tracer.name("net.tick_interval")),
        exchange(tracer.name("net.exchange")),
        payload(tracer.name("net.payload_encode")),
        frame(tracer.name("net.frame_encode")),
        on_bytes(tracer.name("net.on_bytes")),
        server_tick(tracer.name("net.tick")),
        repair(tracer.name("timeseries.repair")),
        extract(tracer.name("detectors.extract")) {
    for (const char* family : kFamilies) {
      families.push_back(tracer.name(std::string("detectors.") + family));
    }
  }
  Tracer::NameId tick, exchange, payload, frame, on_bytes, server_tick,
      repair, extract;
  std::vector<Tracer::NameId> families;
};

// The live deployment: engine, server, agents, and (traced runs only)
// shadow detectors for the first series of every agent.
struct Deployment {
  explicit Deployment(Tracer& tracer)
      : engine(engine_options()),
        server(engine, net::ServerOptions{}),
        names(tracer) {}

  core::FleetEngine engine;
  net::IngestServer server;
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<core::SeriesHandle> handles;
  std::vector<std::string> ids;
  std::size_t fed = 0;
  Names names;
  Counters counters;
  // Shadows re-run repair and extraction through the layers' public
  // functions on the same chunks (one series per agent).
  std::vector<detectors::StreamingExtractor> shadow_extractors;
  std::vector<std::vector<std::vector<detectors::DetectorPtr>>> shadow_families;
};

// Sends every queued frame of one agent, lockstep. A RETRY leaves the
// rest queued for after the next tick.
void exchange(Deployment& d, Agent& agent, Tracer& tracer, std::uint64_t tick,
              const Clock::time_point* accepted_sum_base) {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint8_t> responses;
  while (agent.core.phase() == net::AgentCore::Phase::kHello ||
         agent.core.pending_frames() > 0) {
    Tracer::Span span(tracer, d.names.exchange, tick);
    std::optional<net::Frame> frame = agent.core.next_frame();
    if (!frame.has_value()) break;
    const bool queued_type = frame->type == net::FrameType::kData ||
                             frame->type == net::FrameType::kLabel;
    bytes.clear();
    {
      Tracer::Span encode(tracer, d.names.frame, tick, span.id());
      net::append_frame(bytes, *frame);
    }
    responses.clear();
    bool keep = false;
    {
      Tracer::Span on_bytes(tracer, d.names.on_bytes, tick, span.id());
      keep = d.server.on_bytes(agent.conn, bytes, responses);
    }
    ++d.counters.frames;
    d.counters.bytes += bytes.size();
    if (!keep) ++d.counters.closed;
    agent.replies.push_bytes(responses);
    net::Frame reply;
    bool retry = false;
    while (agent.replies.next(&reply)) {
      if (reply.type == net::FrameType::kError) ++d.counters.errors;
      if (reply.type == net::FrameType::kRetry) {
        ++d.counters.retries;
        retry = true;
      } else if (reply.type == net::FrameType::kAck && queued_type &&
                 accepted_sum_base != nullptr) {
        d.counters.queue_wait_ms -=
            micros(Clock::now() - *accepted_sum_base) / 1000.0;
        ++d.counters.queued;
      }
      agent.core.on_frame(reply);
    }
    if (retry || !keep) break;
  }
}

void connect(Deployment& d) {
  for (std::size_t a = 0; a < kAgents; ++a) {
    char source[16];
    std::snprintf(source, sizeof(source), "agent-%02zu", a);
    auto agent = std::make_unique<Agent>(source);
    agent->conn = a + 1;
    if (!d.server.on_connect(agent->conn)) {
      throw std::runtime_error("server refused a connection");
    }
    d.agents.push_back(std::move(agent));
  }
  Tracer idle(false);
  for (auto& agent : d.agents) exchange(d, *agent, idle, 0, nullptr);
  for (std::size_t a = 0; a < kAgents; ++a) {
    for (std::size_t j = 0; j < kSeriesPerAgent; ++j) {
      d.ids.push_back(series_id(a, j));
      d.handles.push_back(d.engine.add_series(d.ids.back()));
    }
  }
}

void add_shadows(Deployment& d) {
  const detectors::SeriesContext ctx = engine_options().ctx;
  for (std::size_t a = 0; a < kAgents; ++a) {
    d.shadow_extractors.emplace_back(short_window_bank(ctx));
    std::vector<std::vector<detectors::DetectorPtr>> families;
    for (const char* family : kFamilies) {
      families.push_back(short_window_family(family, ctx));
    }
    d.shadow_families.push_back(std::move(families));
  }
}

std::int64_t timestamp(std::size_t t) {
  return kEpoch + static_cast<std::int64_t>(t) * kIntervalSeconds;
}

// Shadow re-run of the server's per-chunk work for the tick's points:
// repair of every chunk, extraction for the shadow series.
void run_shadows(Deployment& d, const Inputs& in, std::size_t t, Tracer& tracer,
                 Tracer::SpanId parent) {
  for (std::size_t s = 0; s < kSeries; ++s) {
    std::vector<ts::RawPoint> chunk{
        {timestamp(t), in.values[s][t % in.length]}};
    double repaired = 0.0;
    {
      Tracer::Span span(tracer, d.names.repair, t, parent);
      const ts::RepairResult r = ts::repair_series(
          d.ids[s], std::move(chunk), kIntervalSeconds,
          ts::RepairPolicy::kFillInterpolate);
      repaired = r.series.values().front();
    }
    if (s % kSeriesPerAgent != 0) continue;
    const std::size_t a = s / kSeriesPerAgent;
    {
      Tracer::Span span(tracer, d.names.extract, t, parent);
      d.shadow_extractors[a].feed(repaired);
    }
    for (std::size_t f = 0; f < d.shadow_families[a].size(); ++f) {
      Tracer::Span span(tracer, d.names.families[f], t, parent);
      for (auto& config : d.shadow_families[a][f]) config->feed(repaired);
    }
  }
}

// One interval: every agent sends its frames, then the server ticks.
// Returns the interval's lag in ms.
double interval(Deployment& d, const Inputs& in, Tracer& tracer, bool shadows) {
  const std::size_t t = d.fed;
  const std::size_t col = t % in.length;
  const bool label_day = (t + 1) % kPointsPerDay == 0 && t + 1 >= 2 * kPointsPerDay;
  const Clock::time_point start = Clock::now();
  Tracer::Span tick_span(tracer, d.names.tick, t);
  for (std::size_t a = 0; a < kAgents; ++a) {
    Agent& agent = *d.agents[a];
    for (std::size_t j = 0; j < kSeriesPerAgent; ++j) {
      const std::size_t s = a * kSeriesPerAgent + j;
      const ts::RawPoint point{timestamp(t), in.values[s][col]};
      Tracer::Span span(tracer, d.names.payload, t, tick_span.id());
      agent.core.queue_data(d.ids[s], kIntervalSeconds, {&point, 1}, 1);
    }
    if (label_day) {
      const std::size_t begin = t + 1 - 2 * kPointsPerDay;
      const std::size_t from = begin % in.length;  // a whole day, no wrap
      for (std::size_t j = 0; j < kSeriesPerAgent; ++j) {
        const std::size_t s = a * kSeriesPerAgent + j;
        Tracer::Span span(tracer, d.names.payload, t, tick_span.id());
        agent.core.queue_labels(
            d.ids[s], begin,
            std::vector<std::uint8_t>(
                in.labels[s].begin() + static_cast<std::ptrdiff_t>(from),
                in.labels[s].begin() +
                    static_cast<std::ptrdiff_t>(from + kPointsPerDay)));
      }
    }
  }
  d.counters.nan_points += in.nan_points[col];
  d.counters.data_points += kSeries;
  // Queue wait: each queued frame adds (apply time - accept time); the
  // accept side is subtracted in exchange(), the apply side added below.
  bool pending = true;
  while (pending) {
    const std::uint64_t queued_before = d.counters.queued;
    for (auto& agent : d.agents) exchange(d, *agent, tracer, t, &start);
    {
      Tracer::Span span(tracer, d.names.server_tick, t, tick_span.id());
      d.server.tick();
    }
    d.counters.queue_wait_ms +=
        static_cast<double>(d.counters.queued - queued_before) *
        micros(Clock::now() - start) / 1000.0;
    pending = false;
    for (auto& agent : d.agents) {
      pending = pending || agent->core.pending_frames() > 0;
    }
  }
  const double lag_ms = micros(Clock::now() - start) / 1000.0;
  if (shadows) run_shadows(d, in, t, tracer, tick_span.id());
  ++d.fed;
  return lag_ms;
}

std::uint64_t engine_points(const Deployment& d) {
  std::uint64_t n = 0;
  for (const auto& h : d.handles) n += d.engine.stats(h).points_seen;
  return n;
}

ts::RepairReport engine_repairs(const Deployment& d) {
  ts::RepairReport total;
  for (const auto& h : d.handles) {
    const ts::RepairReport r = d.engine.stats(h).repairs;
    total.out_of_order += r.out_of_order;
    total.duplicates += r.duplicates;
    total.gaps += r.gaps;
    total.bad_values += r.bad_values;
    total.misaligned += r.misaligned;
  }
  return total;
}

struct Window {
  std::size_t days = 0;
  std::size_t ticks = 0;
  double seconds = 0.0;
  std::vector<double> lag_ms;
  Counters counters;  // deltas over the window
  std::uint64_t applied = 0;
  std::size_t bad_values = 0;
  std::size_t other_repairs = 0;
};

// The timed closed loop over whole days until `seconds` have elapsed.
Window run_window(Deployment& d, const Inputs& in, double seconds,
                  Tracer& tracer, bool shadows) {
  Window w;
  const Counters before = d.counters;
  const std::uint64_t points_before = engine_points(d);
  const ts::RepairReport repairs_before = engine_repairs(d);
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    for (std::size_t k = 0; k < kPointsPerDay; ++k) {
      w.lag_ms.push_back(interval(d, in, tracer, shadows));
    }
    ++w.days;
  }
  w.seconds = seconds_between(start, Clock::now());
  w.ticks = w.lag_ms.size();
  w.applied = engine_points(d) - points_before;
  const ts::RepairReport repairs = engine_repairs(d);
  w.bad_values = repairs.bad_values - repairs_before.bad_values;
  w.other_repairs = repairs.total() - repairs.bad_values -
                    (repairs_before.total() - repairs_before.bad_values);
  const Counters& c = d.counters;
  w.counters.frames = c.frames - before.frames;
  w.counters.data_points = c.data_points - before.data_points;
  w.counters.nan_points = c.nan_points - before.nan_points;
  w.counters.bytes = c.bytes - before.bytes;
  w.counters.retries = c.retries - before.retries;
  w.counters.errors = c.errors - before.errors;
  w.counters.closed = c.closed - before.closed;
  w.counters.queue_wait_ms = c.queue_wait_ms - before.queue_wait_ms;
  w.counters.queued = c.queued - before.queued;
  return w;
}

// Throughput and lag of the best-of-laps composite day (stats.hpp): laps
// are days, slots are intervals, so the label and history-trim intervals
// keep their place in the day.
CompositeLap composite_day(const Window& w) {
  return composite_lap(w.lag_ms, w.lag_ms, kPointsPerDay);
}

double composite_points_per_s(const Window& w) {
  return static_cast<double>(kPointsPerDay * kSeries) /
         (composite_day(w).total / 1000.0);
}

void check_window(RunResult& result, const Window& w, const char* label) {
  const std::string name(label);
  result.attempted += w.counters.data_points;
  const std::uint64_t lost =
      w.counters.data_points > w.applied ? w.counters.data_points - w.applied : 0;
  result.failed += lost + w.counters.errors;
  result.check(w.applied == w.counters.data_points,
               name + ": " + std::to_string(w.applied) + " points applied of " +
                   std::to_string(w.counters.data_points) + " sent");
  result.check(w.counters.errors == 0 && w.counters.closed == 0,
               name + ": the server sent ERROR or closed a connection");
  result.check(w.bad_values == w.counters.nan_points,
               name + ": repair counted " + std::to_string(w.bad_values) +
                   " bad values for " + std::to_string(w.counters.nan_points) +
                   " NaN points sent");
}

// BYE from every agent; each must reach kDone.
void finish(RunResult& result, Deployment& d) {
  Tracer idle(false);
  for (auto& agent : d.agents) agent->core.finish();
  for (auto& agent : d.agents) exchange(d, *agent, idle, d.fed, nullptr);
  d.server.tick();
  std::size_t done = 0;
  for (const auto& agent : d.agents) done += agent->core.done() ? 1 : 0;
  result.check(done == kAgents, std::to_string(done) + " of " +
                                    std::to_string(kAgents) +
                                    " agents reached kDone after BYE");
}

}  // namespace

RunResult run_wire_live(const RunOptions& options) {
  RunResult result;
  Tracer untraced(false);

  if (!options.trace) {
    std::vector<double> setup_s;
    Inputs in;
    std::unique_ptr<Deployment> d;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      d.reset();
      in = Inputs{};
      require_untimed("wire_live setup");
      const Clock::time_point t0 = Clock::now();
      in = generate_inputs(options.seed, 3);
      d = std::make_unique<Deployment>(untraced);
      connect(*d);
      while (d->fed < kWarmDays * kPointsPerDay) interval(*d, in, untraced, false);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    require_untimed("wire_live window");
    const Window w = run_window(*d, in, options.seconds, untraced, false);
    check_window(result, w, "wire_live");
    finish(result, *d);

    const std::vector<double> lag_ms = composite_day(w).lags;
    const TailStat p99 = tail_percentile(lag_ms, 99.0);
    result.set("setup_s", median(setup_s), "s");
    result.set("points_per_s", composite_points_per_s(w), "points/s");
    result.set("lag_p50_ms", median(lag_ms), "ms");
    result.set("lag_p99_ms", p99.value, "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.note("window: " + std::to_string(w.days) + " days, " +
                std::to_string(w.ticks) + " intervals x " +
                std::to_string(kSeries) + " series in " +
                std::to_string(w.seconds) + " s; " +
                std::to_string(w.counters.frames) + " frames");
    result.note("lag tail: " + describe_tail(p99, "intervals"));
    return result;
  }

  // ---- traced run: one deployment, an untraced window, then a traced one
  Tracer tracer(true);
  tracer.set_enabled(false);
  const Inputs in = generate_inputs(options.seed, 3);
  Deployment d(tracer);
  add_shadows(d);
  const double rss0 = static_cast<double>(current_rss_bytes());
  connect(d);
  const double rss_empty = static_cast<double>(current_rss_bytes());
  while (d.fed < kWarmDays * kPointsPerDay) interval(d, in, tracer, true);
  const double rss_warm = static_cast<double>(current_rss_bytes());
  const double n = static_cast<double>(kSeries);
  result.set("core.bytes_per_series.empty", (rss_empty - rss0) / n, "B");
  result.set("core.bytes_per_series.warm", (rss_warm - rss0) / n, "B");

  require_untimed("wire_live window");
  const Window plain = run_window(d, in, options.seconds, tracer, false);
  check_window(result, plain, "wire_live");
  tracer.set_enabled(true);
  const Window traced = run_window(d, in, options.seconds, tracer, true);
  tracer.set_enabled(false);
  check_window(result, traced, "wire_live traced");
  finish(result, d);

  const double frames = static_cast<double>(traced.counters.frames);
  const double points = static_cast<double>(traced.counters.data_points);
  result.set("net.exchange_us", tracer.total_us("net.exchange") / frames,
             "us/frame");
  result.set("net.encode_us",
             (tracer.total_us("net.payload_encode") +
              tracer.total_us("net.frame_encode")) /
                 frames,
             "us/frame");
  result.set("net.on_bytes_us", tracer.total_us("net.on_bytes") / frames,
             "us/frame");
  result.set("net.tick_us", tracer.mean_us("net.tick"), "us/tick");
  result.set("net.queue_wait_ms",
             traced.counters.queued > 0
                 ? traced.counters.queue_wait_ms /
                       static_cast<double>(traced.counters.queued)
                 : 0.0,
             "ms");
  result.set("net.bytes_per_point",
             static_cast<double>(traced.counters.bytes) / points, "B/pt");
  result.set("net.retry_frac",
             static_cast<double>(traced.counters.retries) / frames, "ratio");
  const double repair_us = tracer.total_us("timeseries.repair") / points;
  const double extract_us = tracer.mean_us("detectors.extract");
  result.set("timeseries.repair_us_per_point", repair_us, "us/pt");
  result.set("timeseries.repairs_bad_values",
             static_cast<double>(traced.bad_values), "count");
  result.set("timeseries.repairs_other",
             static_cast<double>(traced.other_repairs), "count");
  result.set("core.apply_other_us_per_point",
             tracer.total_us("net.tick") / points - repair_us - extract_us,
             "us/pt");
  result.set("detectors.extract_us", extract_us, "us/pt");
  for (const char* family : kFamilies) {
    result.set(std::string("detectors.") + family + "_us",
               tracer.mean_us(std::string("detectors.") + family), "us/pt");
  }
  std::size_t retrains = 0;
  std::size_t failures = 0;
  std::size_t quarantined = 0;
  for (const auto& h : d.handles) {
    const core::FleetSeriesStats stats = d.engine.stats(h);
    retrains += stats.retrains;
    failures += stats.train_failures;
    quarantined += stats.quarantined ? 1 : 0;
  }
  result.set("core.retrains", static_cast<double>(retrains), "count");
  result.set("core.train_failures", static_cast<double>(failures), "count");
  result.set("core.quarantined", static_cast<double>(quarantined), "count");
  result.set("trace.overhead",
             composite_points_per_s(traced) / composite_points_per_s(plain),
             "ratio");
  result.note("untraced window " + std::to_string(plain.ticks) +
              " intervals in " + std::to_string(plain.seconds) +
              " s; traced window " + std::to_string(traced.ticks) +
              " intervals in " + std::to_string(traced.seconds) + " s");
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/wire_live.trace.json";
    if (tracer.write_chrome_trace(path)) result.note("spans written to " + path);
  }
  return result;
}

}  // namespace perfbench
