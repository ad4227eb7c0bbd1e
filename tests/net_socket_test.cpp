// Real-socket loopback tests for the ingestion daemon front door
// (src/net/sockets.*, DESIGN.md §5k): an AgentCore streaming over actual
// TCP and Unix-domain sockets into a SocketServer-hosted IngestServer,
// single-threaded by interleaving the client with server.run_once() —
// no background threads, no sleeps longer than a poll timeout.
//
// The kill/reconnect test is the acceptance scenario: abort_conn()
// (SO_LINGER 0 -> RST) mid-stream, liveness ticks the source
// kLive -> kSuspect -> kLost, a fresh client revives it via the
// HELLO/resume handshake, and the engine's per-series attribution comes
// out exact — nothing lost, nothing double-counted.
//
// ctest label: net.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "net/agent.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/sockets.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace opprentice;

core::FleetOptions small_fleet() {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{24, 7 * 24};
  options.retrain_interval = 1 << 20;
  options.history_capacity = 256;
  options.forest.num_trees = 2;
  options.forest.seed = 7;
  return options;
}

std::vector<ts::RawPoint> clean_points(std::size_t n, std::int64_t interval,
                                       std::int64_t start = 1700000000) {
  std::vector<ts::RawPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({start + static_cast<std::int64_t>(i) * interval,
                      10.0 + 0.5 * static_cast<double>(i)});
  }
  return points;
}

// One client/server exchange step: pump the server, then let the client
// read whatever arrived. Returns the frames the client received.
void pump(net::SocketServer& server, net::SocketClient& client,
          net::FrameParser& replies, net::AgentCore& agent,
          int rounds = 4) {
  for (int i = 0; i < rounds; ++i) server.run_once(10);
  std::vector<std::uint8_t> rx;
  client.receive(rx, 50);
  replies.push_bytes(rx);
  net::Frame reply;
  while (replies.next(&reply)) agent.on_frame(reply);
}

// Streams the agent to completion over an established client socket.
// Returns false if the transport died mid-stream (caller reconnects).
bool stream(net::SocketServer& server, net::SocketClient& client,
            net::FrameParser& replies, net::AgentCore& agent,
            std::size_t max_steps = 10000) {
  for (std::size_t step = 0; step < max_steps; ++step) {
    if (agent.done() || agent.failed()) return true;
    const auto frame = agent.next_frame();
    if (frame.has_value()) {
      if (!client.send_bytes(net::encode_frame(*frame))) return false;
    }
    pump(server, client, replies, agent);
    if (agent.awaiting_reply()) {
      // One more generous read; a loopback reply never takes this long.
      pump(server, client, replies, agent, 8);
      if (agent.awaiting_reply()) agent.on_timeout();
    }
  }
  return agent.done();
}

struct EndpointCase {
  const char* name;
  std::string spec;
};

class SocketLoopback : public ::testing::TestWithParam<EndpointCase> {};

TEST_P(SocketLoopback, AgentReplayArrivesIntactOverTheWire) {
  net::clear_stop();
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  net::IngestServer core(engine, options);
  const net::Endpoint endpoint = net::parse_endpoint(GetParam().spec);
  net::SocketServer server(core, endpoint, /*tick_interval_ms=*/5);

  net::Endpoint target = endpoint;
  if (!target.is_unix) target.port = server.bound_port();
  net::SocketClient client;
  ASSERT_TRUE(client.connect_to(target));

  const auto points = clean_points(64, 3600);
  net::AgentCore agent("loopback-agent");
  agent.queue_data("pv", 3600, points, 16);
  agent.queue_labels("pv", 0, std::vector<std::uint8_t>(16, 1));
  agent.finish();
  net::FrameParser replies;
  ASSERT_TRUE(stream(server, client, replies, agent));
  EXPECT_TRUE(agent.done());
  client.close_conn();
  for (int i = 0; i < 4; ++i) server.run_once(10);
  core.drain();

  EXPECT_EQ(core.byes_received(), 1u);
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_EQ(stats.points_seen, points.size());
  EXPECT_TRUE(stats.repairs.clean()) << stats.repairs.summary();
  EXPECT_GT(stats.labeled_until, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SocketLoopback,
    ::testing::Values(
        EndpointCase{"Tcp", "tcp:127.0.0.1:0"},
        EndpointCase{"Uds", "uds:/tmp/opprentice-net-test.sock"}),
    [](const ::testing::TestParamInfo<EndpointCase>& param_info) {
      return param_info.param.name;
    });

TEST(SocketServer, EphemeralPortIsResolvedAndEndpointParserRejectsJunk) {
  core::FleetEngine engine(small_fleet());
  net::IngestServer core(engine, net::ServerOptions{});
  net::SocketServer server(core, net::parse_endpoint("tcp:127.0.0.1:0"), 50);
  EXPECT_NE(server.bound_port(), 0);
  EXPECT_THROW((void)net::parse_endpoint("carrier-pigeon:coop"),
               std::invalid_argument);
  EXPECT_THROW((void)net::parse_endpoint("tcp:localhost"),
               std::invalid_argument);
}

// The acceptance scenario: kill the agent mid-stream with an RST, let
// liveness declare the source kLost, reconnect, and verify exact
// attribution across the outage.
TEST(SocketReconnect, RstMidStreamThenResumeKeepsAttributionExact) {
  net::clear_stop();
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  // Wide enough that streaming exchanges never decay the source, small
  // enough that the post-kill wait loop reaches kLost in well under a
  // second of 1 ms ticks.
  options.liveness = net::LivenessOptions{40, 80};
  net::IngestServer core(engine, options);
  net::SocketServer server(core, net::parse_endpoint("tcp:127.0.0.1:0"),
                           /*tick_interval_ms=*/1);

  net::Endpoint target = net::parse_endpoint("tcp:127.0.0.1:0");
  target.port = server.bound_port();

  const auto points = clean_points(80, 3600);
  net::AgentCore agent("field-agent");
  agent.queue_data("pv", 3600, points, 8);
  agent.finish();
  net::FrameParser replies;

  // First life: stream a few batches, then die hard (RST).
  net::SocketClient first;
  ASSERT_TRUE(first.connect_to(target));
  for (int exchanges = 0; exchanges < 4; ++exchanges) {
    const auto frame = agent.next_frame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(first.send_bytes(net::encode_frame(*frame)));
    pump(server, first, replies, agent);
  }
  const std::uint32_t acked_before_kill = agent.last_acked();
  EXPECT_GT(acked_before_kill, 0u);
  first.abort_conn();  // SO_LINGER 0: the kernel sends RST

  // The server notices the dead peer and liveness decays the source.
  for (int i = 0; i < 2000; ++i) {
    server.run_once(5);
    if (core.source_state("field-agent") == net::SourceState::kLost) break;
  }
  ASSERT_EQ(core.source_state("field-agent"), net::SourceState::kLost);
  EXPECT_EQ(server.open_connections(), 0u);

  // Second life: reconnect, HELLO revives, WELCOME resume skips what the
  // server already committed, the rest streams through.
  agent.on_disconnect();
  replies = net::FrameParser();
  net::SocketClient second;
  ASSERT_TRUE(second.connect_to(target));
  ASSERT_TRUE(stream(server, second, replies, agent));
  EXPECT_TRUE(agent.done());
  second.close_conn();
  for (int i = 0; i < 4; ++i) server.run_once(5);
  core.drain();

  // Exactly-once attribution across the kill: every point fed once.
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_EQ(stats.points_seen, points.size());
  EXPECT_EQ(stats.repairs.duplicates, 0u);
  EXPECT_EQ(stats.repairs.gaps, 0u);
  const auto snapshots = core.snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].id, "field-agent");
  EXPECT_EQ(snapshots[0].counters.revives, 1u);
  EXPECT_GE(snapshots[0].counters.lost_transitions, 1u);
  EXPECT_TRUE(snapshots[0].saw_bye);
}

TEST(SocketServer, StopRequestEndsRunOnce) {
  net::clear_stop();
  core::FleetEngine engine(small_fleet());
  net::IngestServer core(engine, net::ServerOptions{});
  net::SocketServer server(core, net::parse_endpoint("tcp:127.0.0.1:0"), 50);
  EXPECT_TRUE(server.run_once(1));
  net::request_stop();
  EXPECT_FALSE(server.run_once(1));
  net::clear_stop();
}

}  // namespace
