// `opprentice_cli serve` and `opprentice_cli agent` — the socket front
// end of the network ingestion daemon (src/net, DESIGN.md §5k).
//
//   serve  binds a TCP or Unix endpoint, drives core::FleetEngine from
//          framed agent traffic, drains gracefully on SIGTERM/SIGINT
//          (or after --exit-after-byes sessions for CI smoke runs), and
//          prints a per-source liveness/sequencing summary.
//   agent  replays a KPI CSV (and, batch by batch, its label windows)
//          as one lockstep source with seeded exponential backoff +
//          jitter on timeouts, backpressure RETRYs, and reconnects.
#include "cli_commands.hpp"

#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/agent.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/sockets.hpp"
#include "obs/obs.hpp"
#include "timeseries/labels.hpp"
#include "timeseries/time_series.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::cli {
namespace {

void stage_time(const char* name, const obs::Stopwatch& watch) {
  if (run_report() != nullptr) {
    run_report()->add_stage(name, watch.elapsed_ms());
  }
}

}  // namespace

core::FleetOptions serve_fleet_options(std::int64_t interval_seconds) {
  const auto per_day =
      static_cast<std::size_t>(ts::kSecondsPerDay / interval_seconds);
  core::FleetOptions fleet;
  fleet.ctx = detectors::SeriesContext{per_day, 7 * per_day};
  fleet.history_capacity = fleet.ctx.points_per_week;
  return fleet;
}

int cmd_serve(const Args& args) {
  const obs::Stopwatch watch;
  const auto interval =
      static_cast<std::int64_t>(args.get_size("interval", 600));
  if (!ts::valid_interval(interval)) {
    std::fprintf(stderr,
                 "serve: --interval %lld must be positive and divide one "
                 "day (86400 s) evenly\n",
                 static_cast<long long>(interval));
    return 2;
  }
  core::FleetEngine engine(serve_fleet_options(interval));

  net::ServerOptions options;
  options.liveness.suspect_after_ticks = args.get_size("suspect-after", 5);
  options.liveness.lost_after_ticks = args.get_size("lost-after", 10);
  options.queue_capacity = args.get_size("queue-capacity", 64);
  options.retry_after_ticks =
      static_cast<std::uint32_t>(args.get_size("retry-after", 1));
  options.default_interval_seconds = interval;
  options.repair_policy = ts::parse_repair_policy(
      args.get("repair-policy", "fill-interpolate"));
  net::IngestServer core(engine, options);

  const net::Endpoint endpoint =
      net::parse_endpoint(args.get("listen", "tcp:127.0.0.1:7737"));
  const std::uint64_t tick_ms = args.get_size("tick-ms", 100);
  net::SocketServer server(core, endpoint, tick_ms);
  net::install_stop_handlers();
  net::clear_stop();

  const std::uint64_t exit_after_byes = args.get_size("exit-after-byes", 0);
  std::printf("serving %s (port %u), tick=%llums — Ctrl-C drains and exits\n",
              args.get("listen", "tcp:127.0.0.1:7737").c_str(),
              static_cast<unsigned>(server.bound_port()),
              static_cast<unsigned long long>(tick_ms));

  const int wait_ms = static_cast<int>(tick_ms > 0 ? tick_ms : 50);
  while (server.run_once(wait_ms)) {
    if (exit_after_byes > 0 && core.byes_received() >= exit_after_byes &&
        server.open_connections() == 0) {
      break;
    }
  }
  core.drain();
  stage_time("serve", watch);

  std::printf("%-24s %-8s %9s %6s %6s %6s %6s\n", "source", "state",
              "accepted", "gaps", "dups", "reord", "queued");
  for (const auto& snap : core.snapshot()) {
    std::printf("%-24s %-8s %9llu %6llu %6llu %6llu %6zu\n",
                snap.id.c_str(), net::to_string(snap.state),
                static_cast<unsigned long long>(
                    snap.counters.frames_accepted),
                static_cast<unsigned long long>(snap.counters.gap_frames),
                static_cast<unsigned long long>(snap.counters.duplicates),
                static_cast<unsigned long long>(snap.counters.reordered),
                snap.queued_batches);
  }
  if (run_report() != nullptr) {
    run_report()->set_field("net_sources",
                            static_cast<std::uint64_t>(
                                core.snapshot().size()));
    run_report()->set_field("net_byes", core.byes_received());
    run_report()->set_field("net_ticks", core.now_tick());
  }
  return 0;
}

int cmd_agent(const Args& args) {
  const obs::Stopwatch watch;
  const std::string kpi_path = args.get("kpi", "kpi.csv");
  const std::string series_id = args.get("series", "kpi");
  const std::string source_id = args.get("source", "agent-1");
  const std::size_t batch = args.get_size("batch", 16);
  const std::size_t heartbeat_every = args.get_size("heartbeat-every", 4);
  const std::int64_t interval =
      static_cast<std::int64_t>(args.get_size("interval", 0));

  const std::vector<ts::RawPoint> points = load_raw_points(kpi_path);
  if (points.empty()) {
    throw std::runtime_error("KPI CSV has no rows: " + kpi_path);
  }

  // Labels travel with the data: each DATA batch is followed by its own
  // label slice, so the daemon's retrains see labels as they come due.
  std::vector<std::uint8_t> labels;
  if (args.has("labels")) {
    labels = load_labels(args.get("labels")).to_point_labels(points.size());
  }

  net::AgentCore agent(source_id);
  // Interleave a heartbeat every N DATA batches so the server's liveness
  // deadline keeps refreshing on slow links.
  const std::size_t per_batch = batch == 0 ? points.size() : batch;
  std::size_t since_heartbeat = 0;
  for (std::size_t at = 0; at < points.size(); at += per_batch) {
    const std::size_t n = std::min(per_batch, points.size() - at);
    agent.queue_data(series_id, interval,
                     std::span<const ts::RawPoint>(points).subspan(at, n),
                     per_batch);
    if (!labels.empty()) {
      const auto slice = std::span<const std::uint8_t>(labels).subspan(at, n);
      agent.queue_labels(series_id, at, {slice.begin(), slice.end()});
    }
    if (heartbeat_every > 0 && ++since_heartbeat >= heartbeat_every) {
      agent.queue_heartbeat();
      since_heartbeat = 0;
    }
  }
  agent.finish();

  net::BackoffPolicy backoff;
  backoff.base_ms = args.get_size("backoff-base", 50);
  backoff.max_ms = args.get_size("backoff-max", 2000);
  backoff.seed = args.get_size("seed", 1);
  const int reply_timeout_ms =
      static_cast<int>(args.get_size("timeout-ms", 1000));
  const std::size_t max_attempts = args.get_size("max-attempts", 25);

  const net::Endpoint endpoint =
      net::parse_endpoint(args.get("connect", "tcp:127.0.0.1:7737"));
  net::SocketClient client;
  net::FrameParser replies;
  // Outbound frames pass the wire-fault shaper so --faults plans exercise
  // the server's CRC/sequencing path from a real socket too.
  net::FrameFaultInjector shaper(util::stable_id_hash(source_id));
  std::uint64_t attempts = 0;
  std::uint64_t frames_sent = 0;
  bool connected_before = false;

  while (!agent.done() && !agent.failed()) {
    if (attempts > max_attempts) {
      throw std::runtime_error("agent gave up after " +
                               std::to_string(attempts - 1) + " attempts");
    }
    if (!client.connected()) {
      if (connected_before) {
        agent.on_disconnect();  // retained frames re-sent after re-HELLO
        connected_before = false;
      }
      if (attempts > 0) net::sleep_ms(backoff.delay_ms(attempts - 1));
      ++attempts;
      if (!client.connect_to(endpoint)) continue;
      connected_before = true;
      replies = net::FrameParser();
    }
    const std::uint32_t hold = agent.retry_after_ticks();
    if (hold > 0) net::sleep_ms(backoff.delay_ms(agent.retry_attempt()));
    const auto frame = agent.next_frame();
    if (frame.has_value()) {
      std::vector<std::uint8_t> wire;
      shaper.apply(net::encode_frame(*frame), wire);
      ++frames_sent;
      if (!wire.empty() && !client.send_bytes(wire)) continue;
    }
    if (!agent.awaiting_reply()) continue;
    std::vector<std::uint8_t> rx;
    if (!client.receive(rx, reply_timeout_ms)) continue;
    if (rx.empty()) {
      agent.on_timeout();  // quiet link: retransmit
      ++attempts;
      continue;
    }
    attempts = 0;
    replies.push_bytes(rx);
    net::Frame reply;
    while (replies.next(&reply)) agent.on_frame(reply);
    if (replies.dead()) client.close_conn();
  }
  client.close_conn();
  stage_time("agent", watch);

  if (agent.failed()) {
    std::fprintf(stderr, "agent failed: server sent ERROR\n");
    return 1;
  }
  std::printf(
      "agent done: %zu points in %llu frames, last_acked=%u "
      "retransmits=%llu backpressure=%llu reconnects=%llu\n",
      points.size(), static_cast<unsigned long long>(frames_sent),
      agent.last_acked(),
      static_cast<unsigned long long>(agent.retransmits()),
      static_cast<unsigned long long>(agent.backpressure_retries()),
      static_cast<unsigned long long>(agent.reconnects()));
  if (run_report() != nullptr) {
    run_report()->set_field("agent_frames_sent", frames_sent);
    run_report()->set_field("agent_retransmits", agent.retransmits());
    run_report()->set_field("agent_reconnects", agent.reconnects());
  }
  return 0;
}

}  // namespace opprentice::cli
