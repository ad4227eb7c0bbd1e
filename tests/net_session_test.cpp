// Chaos and session-core suite for the network ingestion daemon
// (src/net, DESIGN.md §5k). Everything here runs over an in-memory
// transport — AgentCore frames, optionally shaped by FrameFaultInjector,
// fed straight into IngestServer::on_bytes — so every scenario is a pure
// function of (byte trace, tick schedule, fault plan) and replays
// byte-identically: the fault runs assert rerun equality, the zero-fault
// run asserts equality with a no-plan run, and the flight-recorder dump
// is identical at any thread count.
//
// ctest labels: net, chaos (ASan job), parallel (TSan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "net/agent.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opprentice;

struct PlanGuard {
  explicit PlanGuard(const util::FaultPlan& plan) {
    util::set_fault_plan(plan);
  }
  ~PlanGuard() { util::clear_fault_plan(); }
};

std::uint64_t counter_value(const std::string& name) {
  return obs::counter(name).value();
}

// A small engine: enough context for repair + feed, retrains pushed far
// out so the suite stays fast.
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
                      10.0 + std::sin(static_cast<double>(i) * 0.31)});
  }
  return points;
}

// Sends one pre-built client frame on an established connection and
// returns the server's raw response bytes.
std::vector<std::uint8_t> send_frame(net::IngestServer& server,
                                     std::uint64_t conn_id,
                                     const net::Frame& frame,
                                     bool* keep = nullptr) {
  std::vector<std::uint8_t> responses;
  const bool ok =
      server.on_bytes(conn_id, net::encode_frame(frame), responses);
  if (keep != nullptr) *keep = ok;
  return responses;
}

net::FrameType first_response_type(std::span<const std::uint8_t> bytes) {
  net::FrameParser parser;
  parser.push_bytes(bytes);
  net::Frame frame;
  if (!parser.next(&frame)) return net::FrameType::kError;
  return frame.type;
}

// Drives one AgentCore to completion against an IngestServer over the
// in-memory transport. Frames pass a FrameFaultInjector keyed by the
// source id (identical to the socket replayer), lost replies become
// on_timeout retransmissions, transport resets become reconnects, and
// the server ticks every `tick_every` exchanges — one deterministic
// interleaving, replayable byte-for-byte.
struct DriveResult {
  bool done = false;
  std::uint64_t reconnects = 0;
  std::vector<std::uint8_t> response_trace;  // every server response byte
};

DriveResult drive(net::IngestServer& server, net::AgentCore& agent,
                  const std::string& source_id, std::size_t tick_every = 8,
                  std::size_t max_steps = 200000) {
  DriveResult result;
  net::FrameFaultInjector shaper(util::stable_id_hash(source_id));
  net::FrameParser replies;
  std::uint64_t conn_id = util::stable_id_hash(source_id) | 1;
  bool connected = false;
  bool ever_connected = false;
  std::size_t exchanges = 0;
  for (std::size_t step = 0; step < max_steps; ++step) {
    if (agent.done() || agent.failed()) break;
    if (!connected) {
      if (ever_connected) agent.on_disconnect();
      replies = net::FrameParser();
      ++conn_id;
      if (!server.on_connect(conn_id)) {
        server.tick();  // accept refused (net.accept_fail): back off
        continue;
      }
      connected = true;
      ever_connected = true;
    }
    // Backpressure hint: in logical time, waiting = ticking the server.
    for (std::uint32_t hold = agent.retry_after_ticks(); hold > 0; --hold) {
      server.tick();
    }
    const auto frame = agent.next_frame();
    std::vector<std::uint8_t> wire;
    if (frame.has_value()) shaper.apply(net::encode_frame(*frame), wire);
    std::vector<std::uint8_t> responses;
    bool keep = true;
    if (!wire.empty()) keep = server.on_bytes(conn_id, wire, responses);
    result.response_trace.insert(result.response_trace.end(),
                                 responses.begin(), responses.end());
    replies.push_bytes(responses);
    net::Frame reply;
    bool advanced = false;
    while (replies.next(&reply)) {
      agent.on_frame(reply);
      advanced = true;
    }
    if (!keep) {
      server.on_disconnect(conn_id);
      connected = false;
      ++result.reconnects;
      continue;
    }
    if (agent.awaiting_reply() && !advanced) {
      agent.on_timeout();  // frame or reply lost in the shaper
    }
    if (++exchanges % tick_every == 0) server.tick();
  }
  // End-of-stream: a reorder-held frame must still be delivered.
  std::vector<std::uint8_t> tail;
  shaper.flush(tail);
  if (connected && !tail.empty()) {
    std::vector<std::uint8_t> responses;
    server.on_bytes(conn_id, tail, responses);
    result.response_trace.insert(result.response_trace.end(),
                                 responses.begin(), responses.end());
  }
  server.drain();
  result.done = agent.done();
  return result;
}

// ---- SourceTracker -------------------------------------------------------

TEST(SourceTracker, SequenceVerdictsClassifyTheWindow) {
  net::SourceTracker tracker;
  EXPECT_EQ(tracker.state(), net::SourceState::kAwaiting);
  EXPECT_EQ(tracker.observe(1, 0), net::SeqVerdict::kInOrder);
  EXPECT_EQ(tracker.state(), net::SourceState::kLive);
  EXPECT_EQ(tracker.observe(2, 0), net::SeqVerdict::kInOrder);
  EXPECT_EQ(tracker.observe(5, 0), net::SeqVerdict::kGap);  // 3, 4 missing
  EXPECT_EQ(tracker.counters().gap_frames, 2u);
  EXPECT_EQ(tracker.observe(4, 0), net::SeqVerdict::kReordered);
  EXPECT_EQ(tracker.counters().gap_frames, 1u);  // 4 filled its hole
  EXPECT_EQ(tracker.observe(4, 0), net::SeqVerdict::kDuplicate);
  EXPECT_EQ(tracker.observe(2, 0), net::SeqVerdict::kDuplicate);
  EXPECT_EQ(tracker.last_seq(), 5u);
  EXPECT_EQ(tracker.counters().frames_accepted, 4u);
}

TEST(SourceTracker, FarBehindTheWindowIsStale) {
  net::SourceTracker tracker;
  EXPECT_EQ(tracker.observe(1, 0), net::SeqVerdict::kInOrder);
  EXPECT_EQ(tracker.observe(100, 0), net::SeqVerdict::kGap);
  EXPECT_EQ(tracker.observe(2, 0), net::SeqVerdict::kStale);  // 98 behind
  EXPECT_EQ(tracker.counters().stale, 1u);
}

TEST(SourceTracker, LivenessDecaysAndOnlyReviveReturnsFromLost) {
  net::SourceTracker tracker(net::LivenessOptions{3, 6});
  tracker.observe(1, 10);
  EXPECT_EQ(tracker.state(), net::SourceState::kLive);
  EXPECT_EQ(tracker.tick(12), net::SourceState::kLive);
  EXPECT_EQ(tracker.tick(13), net::SourceState::kSuspect);
  EXPECT_EQ(tracker.counters().suspect_transitions, 1u);
  // A frame while suspect goes straight back to live.
  tracker.observe(2, 14);
  EXPECT_EQ(tracker.state(), net::SourceState::kLive);
  EXPECT_EQ(tracker.tick(20), net::SourceState::kLost);
  EXPECT_EQ(tracker.counters().lost_transitions, 1u);
  // kLost is sticky: frames do not resurrect the source...
  tracker.observe(3, 21);
  EXPECT_EQ(tracker.state(), net::SourceState::kLost);
  // ...only the explicit HELLO-driven revive does.
  tracker.revive(22);
  EXPECT_EQ(tracker.state(), net::SourceState::kLive);
  EXPECT_EQ(tracker.counters().revives, 1u);
  // The sequence window survived the outage: 3 was committed above.
  EXPECT_EQ(tracker.observe(3, 23), net::SeqVerdict::kDuplicate);
}

// ---- FrameFaultInjector --------------------------------------------------

TEST(FrameFaultInjector, PassthroughWithoutAPlan) {
  net::FrameFaultInjector injector(1234);
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::make_heartbeat(1));
  std::vector<std::uint8_t> out;
  injector.apply(wire, out);
  EXPECT_EQ(out, wire);
  std::vector<std::uint8_t> tail;
  injector.flush(tail);
  EXPECT_TRUE(tail.empty());
}

TEST(FrameFaultInjector, DropAndDuplicateAreDeterministicPerIndex) {
  util::FaultPlan plan;
  plan.seed = 11;
  plan.rates["net.frame_drop"] = 0.5;
  const PlanGuard guard(plan);

  const auto run = [] {
    net::FrameFaultInjector injector(42);
    std::vector<std::size_t> sizes;
    for (std::uint32_t i = 1; i <= 32; ++i) {
      std::vector<std::uint8_t> out;
      injector.apply(net::encode_frame(net::make_heartbeat(i)), out);
      sizes.push_back(out.size());
    }
    return sizes;
  };
  const auto first = run();
  EXPECT_EQ(first, run());  // same plan, same salt -> same drops
  std::size_t dropped = 0;
  for (const std::size_t size : first) {
    if (size == 0) ++dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 32u);
}

TEST(FrameFaultInjector, ReorderHoldsOneFrameAndFlushReleasesIt) {
  util::FaultPlan plan;
  plan.seed = 3;
  plan.rates["net.frame_reorder"] = 1.0;
  const PlanGuard guard(plan);

  net::FrameFaultInjector injector(7);
  const auto a = net::encode_frame(net::make_heartbeat(1));
  std::vector<std::uint8_t> out;
  injector.apply(a, out);
  EXPECT_TRUE(out.empty());  // held back, waiting for a successor
  injector.flush(out);
  EXPECT_EQ(out, a);  // end-of-stream flush never silently drops
}

TEST(FrameFaultInjector, CorruptedFrameFailsCrcNotSync) {
  util::FaultPlan plan;
  plan.seed = 9;
  plan.rates["net.frame_corrupt"] = 1.0;
  const PlanGuard guard(plan);

  net::FrameFaultInjector injector(5);
  std::vector<std::uint8_t> out;
  injector.apply(net::encode_frame(net::make_heartbeat(1)), out);
  injector.apply(net::encode_frame(net::make_heartbeat(2)), out);
  net::FrameParser parser;
  parser.push_bytes(out);
  net::Frame frame;
  EXPECT_FALSE(parser.next(&frame));  // both corrupted, both skipped
  EXPECT_EQ(parser.corrupt_frames() + parser.bad_version_frames(), 2u);
  EXPECT_FALSE(parser.dead());  // resynchronized, not poisoned
}

// ---- IngestServer protocol edges -----------------------------------------

TEST(IngestServer, FrameBeforeHelloIsAProtocolError) {
  core::FleetEngine engine(small_fleet());
  net::IngestServer server(engine, net::ServerOptions{});
  ASSERT_TRUE(server.on_connect(1));
  bool keep = true;
  const auto responses =
      send_frame(server, 1, net::make_heartbeat(1), &keep);
  EXPECT_FALSE(keep);
  EXPECT_EQ(first_response_type(responses), net::FrameType::kError);
}

TEST(IngestServer, HelloWelcomeCarriesTheResumeSequence) {
  core::FleetEngine engine(small_fleet());
  net::IngestServer server(engine, net::ServerOptions{});
  ASSERT_TRUE(server.on_connect(1));
  auto responses = send_frame(
      server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}));
  net::FrameParser parser;
  parser.push_bytes(responses);
  net::Frame frame;
  ASSERT_TRUE(parser.next(&frame));
  net::WelcomePayload welcome;
  ASSERT_TRUE(net::decode_welcome(frame, &welcome));
  EXPECT_EQ(welcome.resume_seq, 0u);  // nothing committed yet

  send_frame(server, 1, net::make_heartbeat(1));
  send_frame(server, 1, net::make_heartbeat(2));
  // A second HELLO (same connection is fine) reports the new high water.
  responses = send_frame(
      server, 1, net::make_hello(0, net::HelloPayload{"src-a", 2}));
  parser = net::FrameParser();
  parser.push_bytes(responses);
  ASSERT_TRUE(parser.next(&frame));
  ASSERT_TRUE(net::decode_welcome(frame, &welcome));
  EXPECT_EQ(welcome.resume_seq, 2u);
}

// The engine's SeriesContext is fleet-wide: a DATA frame may declare the
// fleet's grid or none, and one that declares another grid is refused
// like a malformed frame.
TEST(IngestServer, DataOnAnotherGridThanTheFleetsIsAnError) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);
  ASSERT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}));

  const auto points = clean_points(12, 3600);
  const auto batch = [&](std::uint32_t seq, std::int64_t interval,
                         bool* keep) {
    net::DataPayload data;
    data.series_id = "pv";
    data.interval_seconds = interval;
    data.points.assign(points.begin() + (seq - 1) * 4,
                       points.begin() + seq * 4);
    return first_response_type(
        send_frame(server, 1, net::make_data(seq, data), keep));
  };
  bool keep = false;
  EXPECT_EQ(batch(1, 0, &keep), net::FrameType::kAck);
  EXPECT_TRUE(keep);
  EXPECT_EQ(batch(2, 3600, &keep), net::FrameType::kAck);
  EXPECT_TRUE(keep);
  EXPECT_EQ(batch(3, 600, &keep), net::FrameType::kError);
  EXPECT_FALSE(keep);
  server.drain();
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(engine.stats(handle).points_seen, 8u);
}

TEST(IngestServer, BackpressureRetryThenDrainAcceptsTheRetransmit) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.queue_capacity = 2;
  options.retry_after_ticks = 3;
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);
  ASSERT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}));

  const auto points = clean_points(40, 3600);
  const std::uint64_t rejects_before =
      counter_value("opprentice.net.backpressure_rejects");
  std::vector<std::vector<std::uint8_t>> responses;
  for (std::uint32_t seq = 1; seq <= 4; ++seq) {
    net::DataPayload data;
    data.series_id = "pv";
    data.interval_seconds = 3600;
    data.points.assign(points.begin() + (seq - 1) * 10,
                       points.begin() + seq * 10);
    responses.push_back(
        send_frame(server, 1, net::make_data(seq, data)));
  }
  EXPECT_EQ(first_response_type(responses[0]), net::FrameType::kAck);
  EXPECT_EQ(first_response_type(responses[1]), net::FrameType::kAck);
  EXPECT_EQ(first_response_type(responses[2]), net::FrameType::kRetry);
  EXPECT_EQ(first_response_type(responses[3]), net::FrameType::kRetry);
  EXPECT_EQ(counter_value("opprentice.net.backpressure_rejects"),
            rejects_before + 2);
  net::FrameParser parser;
  parser.push_bytes(responses[2]);
  net::Frame frame;
  ASSERT_TRUE(parser.next(&frame));
  net::RetryPayload retry;
  ASSERT_TRUE(net::decode_retry(frame, &retry));
  EXPECT_EQ(retry.seq, 3u);
  EXPECT_EQ(retry.retry_after_ticks, 3u);

  server.tick();  // drains the queue
  // The rejected sequence number was NOT committed: the retransmit is
  // fresh traffic, not a duplicate.
  net::DataPayload data;
  data.series_id = "pv";
  data.interval_seconds = 3600;
  data.points.assign(points.begin() + 20, points.begin() + 30);
  const auto retry_resp = send_frame(server, 1, net::make_data(3, data));
  EXPECT_EQ(first_response_type(retry_resp), net::FrameType::kAck);
  server.drain();
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(engine.stats(handle).repairs.duplicates, 0u);
  EXPECT_EQ(engine.stats(handle).points_seen, 30u);  // batches 1, 2, 3
}

TEST(IngestServer, AcceptFailSiteRefusesTheConnection) {
  util::FaultPlan plan;
  plan.seed = 21;
  plan.rates["net.accept_fail"] = 1.0;
  const PlanGuard guard(plan);
  core::FleetEngine engine(small_fleet());
  net::IngestServer server(engine, net::ServerOptions{});
  const std::uint64_t failures_before =
      counter_value("opprentice.net.accept_failures");
  EXPECT_FALSE(server.on_connect(99));
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_EQ(counter_value("opprentice.net.accept_failures"),
            failures_before + 1);
}

TEST(IngestServer, ConnResetSiteClosesAfterAProcessedFrame) {
  util::FaultPlan plan;
  plan.seed = 22;
  plan.rates["net.conn_reset"] = 1.0;
  const PlanGuard guard(plan);
  core::FleetEngine engine(small_fleet());
  net::IngestServer server(engine, net::ServerOptions{});
  ASSERT_TRUE(server.on_connect(1));
  bool keep = true;
  const auto responses = send_frame(
      server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}), &keep);
  EXPECT_FALSE(keep);  // frame processed, then the stream was torn down
  // The WELCOME was already appended — bytes in flight on a real reset.
  EXPECT_EQ(first_response_type(responses), net::FrameType::kWelcome);
}

// ---- wire defects -> repair_series (satellite) ---------------------------

TEST(IngestServer, SequenceGapBecomesTimestampGapRepair) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.repair_policy = ts::RepairPolicy::kFillInterpolate;
  net::IngestServer server(engine, options);
  ASSERT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}));

  const auto points = clean_points(30, 3600);
  const auto batch = [&](std::uint32_t seq, std::size_t from, std::size_t n) {
    net::DataPayload data;
    data.series_id = "pv";
    data.interval_seconds = 3600;
    data.points.assign(points.begin() + static_cast<std::ptrdiff_t>(from),
                       points.begin() + static_cast<std::ptrdiff_t>(from + n));
    return send_frame(server, 1, net::make_data(seq, data));
  };
  batch(1, 0, 10);
  // Frame seq=2 (points 10..19) lost on the wire: the agent's window has
  // moved on, so the server sees a sequence gap...
  const std::uint64_t gaps_before = counter_value("opprentice.net.seq_gaps");
  batch(3, 20, 10);
  EXPECT_EQ(counter_value("opprentice.net.seq_gaps"), gaps_before + 1);
  server.drain();
  // ...and the coalesced apply hands repair_series a 10-slot timestamp
  // hole, which fill-interpolate repairs and reports as gaps.
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_EQ(stats.repairs.gaps, 10u);
  EXPECT_EQ(stats.points_seen, 30u);  // 20 real + 10 interpolated
}

TEST(IngestServer, InterleavedDuplicateAndDisorderWithinOneBatch) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.repair_policy = ts::RepairPolicy::kFillInterpolate;
  net::IngestServer server(engine, options);
  ASSERT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src-a", 0}));

  // One DATA frame whose points are themselves disordered AND contain a
  // duplicated grid slot — both defect classes inside a single batch.
  net::DataPayload data;
  data.series_id = "pv";
  data.interval_seconds = 3600;
  data.points = clean_points(12, 3600);
  std::swap(data.points[3], data.points[7]);      // disorder
  data.points.push_back(data.points[5]);          // duplicate slot (and
                                                  // also out of order)
  send_frame(server, 1, net::make_data(1, data));
  server.drain();
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_GT(stats.repairs.out_of_order, 0u);
  EXPECT_EQ(stats.repairs.duplicates, 1u);
  EXPECT_EQ(stats.points_seen, 12u);  // exactly-once per grid slot
}

TEST(IngestServer, HeartbeatOnlySourceStaysLiveWithoutEngineWork) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.liveness = net::LivenessOptions{2, 4};
  net::IngestServer server(engine, options);
  ASSERT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"watchdog", 0}));
  const std::uint64_t applied_before =
      counter_value("opprentice.net.batches_applied");
  std::uint32_t seq = 0;
  for (int round = 0; round < 10; ++round) {
    send_frame(server, 1, net::make_heartbeat(++seq));
    server.tick();
    ASSERT_EQ(server.source_state("watchdog"), net::SourceState::kLive)
        << "round " << round;
  }
  EXPECT_EQ(engine.series_count(), 0u);
  EXPECT_EQ(counter_value("opprentice.net.batches_applied"), applied_before);
  // Silence now lets the deadline lapse: kSuspect, then kLost.
  server.tick();
  server.tick();
  EXPECT_EQ(server.source_state("watchdog"), net::SourceState::kSuspect);
  server.tick();
  server.tick();
  EXPECT_EQ(server.source_state("watchdog"), net::SourceState::kLost);
}

TEST(IngestServer, ResumeAfterLostKeepsAttributionExact) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.liveness = net::LivenessOptions{2, 4};
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);

  const auto points = clean_points(64, 3600);
  net::AgentCore agent("field-agent");
  agent.queue_data("pv", 3600, points, 16);
  agent.finish();

  // First connection: HELLO + first two DATA frames, then the agent dies.
  ASSERT_TRUE(server.on_connect(1));
  net::FrameParser replies;
  net::Frame reply;
  for (int exchanges = 0; exchanges < 3; ++exchanges) {
    const auto frame = agent.next_frame();
    ASSERT_TRUE(frame.has_value());
    std::vector<std::uint8_t> responses;
    ASSERT_TRUE(server.on_bytes(1, net::encode_frame(*frame), responses));
    replies.push_bytes(responses);
    while (replies.next(&reply)) agent.on_frame(reply);
  }
  EXPECT_EQ(agent.last_acked(), 2u);  // two DATA batches committed
  server.on_disconnect(1);
  for (int i = 0; i < 6; ++i) server.tick();
  ASSERT_EQ(server.source_state("field-agent"), net::SourceState::kLost);

  // Reconnect: the HELLO revives the source and the WELCOME resume lets
  // the agent skip what the server already committed.
  const std::uint64_t revives_before =
      obs::FlightRecorder::instance().event_count();
  agent.on_disconnect();
  ASSERT_TRUE(server.on_connect(2));
  replies = net::FrameParser();
  while (!agent.done()) {
    const auto frame = agent.next_frame();
    ASSERT_TRUE(frame.has_value());
    std::vector<std::uint8_t> responses;
    ASSERT_TRUE(server.on_bytes(2, net::encode_frame(*frame), responses));
    replies.push_bytes(responses);
    while (replies.next(&reply)) agent.on_frame(reply);
  }
  EXPECT_GE(obs::FlightRecorder::instance().event_count(), revives_before);
  EXPECT_EQ(server.source_state("field-agent"), net::SourceState::kLive);
  server.drain();

  // Exactly-once attribution across the outage: every point fed once,
  // nothing duplicated, nothing lost.
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_EQ(stats.points_seen, points.size());
  EXPECT_EQ(stats.repairs.duplicates, 0u);
  EXPECT_EQ(stats.repairs.gaps, 0u);
  const auto snapshots = server.snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].counters.revives, 1u);
  EXPECT_TRUE(snapshots[0].saw_bye);
}

// One DATA frame the engine cannot ingest stays one lost batch, and the
// daemon keeps serving. A zero-point frame is refused at the frame with
// ERROR "malformed DATA". A frame whose two points lie 3e9 s apart is
// well-formed and ACKed, but repair refuses its grid in the tick: the
// batch is counted in opprentice.net.batches_rejected and
// flight-recorded, the good batch of the same series it was coalesced
// with is applied, and so are a third source's batches, after it in the
// same tick's work list.
TEST(NetSession, UningestableDataDoesNotStopTheTick) {
  const auto run = [](std::size_t threads) {
    util::set_global_threads(threads);
    obs::FlightRecorder::instance().clear();
    const std::uint64_t rejected_before =
        counter_value("opprentice.net.batches_rejected");
    const std::uint64_t applied_before =
        counter_value("opprentice.net.batches_applied");
    const std::uint64_t points_before =
        counter_value("opprentice.net.points_applied");
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    net::IngestServer server(engine, options);
    // Sources sort "src-empty" < "src-far" < "src-good", so the good
    // batches follow the refused one in the tick.
    const char* const sources[] = {"src-empty", "src-far", "src-good"};
    for (std::uint64_t conn = 1; conn <= 3; ++conn) {
      EXPECT_TRUE(server.on_connect(conn));
      send_frame(server, conn,
                 net::make_hello(0, net::HelloPayload{sources[conn - 1], 0}));
    }

    net::DataPayload empty;
    empty.series_id = "empty";
    bool keep = true;
    net::FrameParser parser;
    parser.push_bytes(send_frame(server, 1, net::make_data(1, empty), &keep));
    EXPECT_FALSE(keep);
    net::Frame reply;
    net::ErrorPayload error;
    EXPECT_TRUE(parser.next(&reply) && net::decode_error(reply, &error));
    EXPECT_EQ(error.message, "malformed DATA");
    server.on_disconnect(1);

    net::DataPayload far;
    far.series_id = "far";
    far.interval_seconds = 3600;
    far.points = {{1700000000, 1.0}, {1700003600, 2.0}};
    EXPECT_EQ(first_response_type(send_frame(server, 2, net::make_data(1, far))),
              net::FrameType::kAck);
    far.points = {{1700007200, 3.0}, {1700007200 + 3'000'000'000, 4.0}};
    EXPECT_EQ(first_response_type(send_frame(server, 2, net::make_data(2, far))),
              net::FrameType::kAck);

    const auto points = clean_points(16, 3600);
    const auto good = [&](std::uint32_t seq) {
      net::DataPayload data;
      data.series_id = "pv";
      data.points.assign(points.begin() + (seq - 1) * 4,
                         points.begin() + seq * 4);
      return first_response_type(
          send_frame(server, 3, net::make_data(seq, data)));
    };
    for (std::uint32_t seq = 1; seq <= 3; ++seq) {
      EXPECT_EQ(good(seq), net::FrameType::kAck);
    }
    server.tick();
    // The server keeps serving: the next tick applies the next batch.
    EXPECT_EQ(good(4), net::FrameType::kAck);
    server.tick();

    const auto pv = engine.find_series("pv");
    EXPECT_TRUE(pv != nullptr && engine.stats(pv).points_seen == 16u);
    EXPECT_EQ(engine.find_series("empty"), nullptr);
    const auto far_series = engine.find_series("far");
    EXPECT_TRUE(far_series != nullptr &&
                engine.stats(far_series).points_seen == 2u);
    EXPECT_EQ(counter_value("opprentice.net.batches_rejected") -
                  rejected_before,
              1u);
    // The three good "pv" batches of the first tick coalesce into one
    // ingest_raw call, but count as three batches.
    EXPECT_EQ(counter_value("opprentice.net.batches_applied") -
                  applied_before,
              5u);
    EXPECT_EQ(counter_value("opprentice.net.points_applied") - points_before,
              18u);
    std::string dump = obs::FlightRecorder::instance().dump_json();
    obs::FlightRecorder::instance().clear();
    return dump;
  };
  const std::string serial = run(1);
  const std::string two = run(2);
  const std::string eight = run(8);
  util::set_global_threads(1);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  EXPECT_NE(serial.find("\"batch_rejected\""), std::string::npos) << serial;
  EXPECT_NE(serial.find("series=far seq=2"), std::string::npos) << serial;
}

// A DATA frame repair refuses creates no series: its points span 3e9 s
// under an id the engine has not seen, so the tick rejects it and the
// engine stays empty. A good batch of the same id, a tick later, creates
// the series and feeds it.
TEST(NetSession, RefusedDataCreatesNoSeries) {
  const auto run = [](std::size_t threads) {
    util::set_global_threads(threads);
    obs::FlightRecorder::instance().clear();
    const std::uint64_t rejected_before =
        counter_value("opprentice.net.batches_rejected");
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    net::IngestServer server(engine, options);
    EXPECT_TRUE(server.on_connect(1));
    send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src", 0}));

    net::DataPayload far;
    far.series_id = "fresh";
    far.interval_seconds = 3600;
    far.points = {{1700000000, 1.0}, {1700000000 + 3'000'000'000, 2.0}};
    EXPECT_EQ(
        first_response_type(send_frame(server, 1, net::make_data(1, far))),
        net::FrameType::kAck);
    server.tick();
    EXPECT_EQ(engine.series_count(), 0u);
    EXPECT_EQ(engine.find_series("fresh"), nullptr);
    EXPECT_EQ(counter_value("opprentice.net.batches_rejected") -
                  rejected_before,
              1u);

    net::DataPayload good;
    good.series_id = "fresh";
    good.interval_seconds = 3600;
    good.points = clean_points(6, 3600);
    EXPECT_EQ(
        first_response_type(send_frame(server, 1, net::make_data(2, good))),
        net::FrameType::kAck);
    server.tick();
    EXPECT_EQ(engine.series_count(), 1u);
    const auto fresh = engine.find_series("fresh");
    EXPECT_TRUE(fresh != nullptr && engine.stats(fresh).points_seen == 6u);
    EXPECT_EQ(counter_value("opprentice.net.batches_rejected") -
                  rejected_before,
              1u);
    std::string dump = obs::FlightRecorder::instance().dump_json();
    obs::FlightRecorder::instance().clear();
    return dump;
  };
  const std::string serial = run(1);
  const std::string two = run(2);
  const std::string eight = run(8);
  util::set_global_threads(1);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  EXPECT_NE(serial.find("series=fresh seq=1"), std::string::npos) << serial;
}

TEST(NetSession, LabelForUnseenSeriesCreatesNoSeries) {
  const std::uint64_t applied_before =
      counter_value("opprentice.net.batches_applied");
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);
  EXPECT_TRUE(server.on_connect(1));
  send_frame(server, 1, net::make_hello(0, net::HelloPayload{"src", 0}));
  std::uint32_t seq = 0;
  const auto send = [&](const net::Frame& frame) {
    EXPECT_EQ(first_response_type(send_frame(server, 1, frame)),
              net::FrameType::kAck);
  };
  for (int i = 0; i < 50; ++i) {
    send(net::make_label(
        ++seq, net::LabelPayload{"fresh" + std::to_string(i), 0, {1}}));
  }
  server.tick();
  EXPECT_EQ(engine.series_count(), 0u);
  EXPECT_EQ(counter_value("opprentice.net.batches_applied") - applied_before,
            50u);

  // A DATA batch creates one of those series; a LABEL for rows it has
  // been fed then moves its watermark.
  net::DataPayload data;
  data.series_id = "fresh7";
  data.interval_seconds = 3600;
  data.points = clean_points(6, 3600);
  send(net::make_data(++seq, data));
  server.tick();
  EXPECT_EQ(engine.series_count(), 1u);
  const auto fresh = engine.find_series("fresh7");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(engine.stats(fresh).points_seen, 6u);
  EXPECT_EQ(engine.stats(fresh).labeled_until, 0u);
  send(net::make_label(++seq, net::LabelPayload{"fresh7", 0, {0, 0, 1, 0}}));
  server.tick();
  EXPECT_EQ(engine.series_count(), 1u);
  EXPECT_EQ(engine.stats(fresh).labeled_until, 4u);
  EXPECT_EQ(counter_value("opprentice.net.batches_applied") - applied_before,
            52u);
}

// ---- end-to-end chaos ----------------------------------------------------

// Engine fingerprint for rerun-equality assertions.
std::string engine_fingerprint(core::FleetEngine& engine) {
  std::string out;
  for (const auto& id : engine.series_ids()) {
    const auto stats = engine.stats(engine.find_series(id));
    out += id + ":" + std::to_string(stats.points_seen) + ":" +
           stats.repairs.summary() + ";";
  }
  return out;
}

TEST(NetChaos, CleanLockstepSessionAppliesEverythingExactlyOnce) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);
  const auto points = clean_points(96, 3600);
  net::AgentCore agent("clean-agent");
  agent.queue_data("pv", 3600, points, 16);
  agent.queue_heartbeat();
  agent.queue_labels("pv", 0, std::vector<std::uint8_t>(32, 1));
  agent.finish();
  const DriveResult result = drive(server, agent, "clean-agent");
  ASSERT_TRUE(result.done);
  EXPECT_EQ(agent.retransmits(), 0u);
  const auto handle = engine.find_series("pv");
  ASSERT_NE(handle, nullptr);
  const auto stats = engine.stats(handle);
  EXPECT_EQ(stats.points_seen, points.size());
  EXPECT_TRUE(stats.repairs.clean()) << stats.repairs.summary();
  EXPECT_GT(stats.labeled_until, 0u);
}

TEST(NetChaos, ZeroRatePlanIsByteIdenticalToNoPlan) {
  const auto run = [](bool with_plan) {
    std::unique_ptr<PlanGuard> guard;
    if (with_plan) {
      util::FaultPlan plan;
      plan.seed = 77;
      plan.rates["net.frame_drop"] = 0.0;
      plan.rates["net.frame_corrupt"] = 0.0;
      plan.rates["net.conn_reset"] = 0.0;
      guard = std::make_unique<PlanGuard>(plan);
    }
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    net::IngestServer server(engine, options);
    net::AgentCore agent("zero-agent");
    agent.queue_data("pv", 3600, clean_points(48, 3600), 12);
    agent.finish();
    DriveResult result = drive(server, agent, "zero-agent");
    EXPECT_TRUE(result.done);
    result.response_trace.push_back(0);  // separator
    const std::string fp = engine_fingerprint(engine);
    result.response_trace.insert(result.response_trace.end(), fp.begin(),
                                 fp.end());
    return result.response_trace;
  };
  EXPECT_EQ(run(false), run(true));
}

// All six net.* sites at once: the session survives, completes, and the
// engine sees every point exactly once — and the whole run (response
// bytes, engine state, injected-fault counters) is identical on rerun.
TEST(NetChaos, AllSixFaultSitesDriveToExactlyOnceCompletion) {
  util::FaultPlan plan;
  plan.seed = 4242;
  plan.rates["net.frame_corrupt"] = 0.05;
  plan.rates["net.frame_drop"] = 0.05;
  plan.rates["net.frame_duplicate"] = 0.08;
  plan.rates["net.frame_reorder"] = 0.08;
  plan.rates["net.conn_reset"] = 0.02;
  plan.rates["net.accept_fail"] = 0.10;

  const auto run = [&] {
    const PlanGuard guard(plan);
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    options.liveness = net::LivenessOptions{50, 100};
    net::IngestServer server(engine, options);
    net::AgentCore agent("chaos-agent");
    agent.queue_data("pv", 3600, clean_points(96, 3600), 8);
    agent.finish();
    DriveResult result = drive(server, agent, "chaos-agent");
    EXPECT_TRUE(result.done);
    const auto handle = engine.find_series("pv");
    EXPECT_NE(handle, nullptr);
    if (handle != nullptr) {
      const auto stats = engine.stats(handle);
      // Exactly-once under chaos: retransmits and duplicated frames are
      // deduplicated at the sequence layer, so the engine never sees a
      // duplicated grid slot, and the lockstep retransmit protocol means
      // nothing is lost either.
      EXPECT_EQ(stats.points_seen, 96u);
      EXPECT_EQ(stats.repairs.duplicates, 0u);
      EXPECT_EQ(stats.repairs.gaps, 0u);
    }
    std::vector<std::uint8_t> trace = std::move(result.response_trace);
    const std::string fp = engine_fingerprint(engine);
    trace.insert(trace.end(), fp.begin(), fp.end());
    return trace;
  };

  const std::uint64_t injected_before =
      counter_value("opprentice.faults.injected");
  const auto first = run();
  const std::uint64_t injected_mid =
      counter_value("opprentice.faults.injected");
  EXPECT_GT(injected_mid, injected_before);  // the plan actually fired
  const auto second = run();
  EXPECT_EQ(first, second);  // byte-identical rerun
  // Identical rerun implies identical fault decisions.
  EXPECT_EQ(counter_value("opprentice.faults.injected") - injected_mid,
            injected_mid - injected_before);
}

TEST(NetChaos, EverySiteFiresUnderItsOwnPlan) {
  const char* const sites[] = {
      "net.frame_corrupt", "net.frame_drop", "net.frame_duplicate",
      "net.frame_reorder", "net.conn_reset", "net.accept_fail"};
  for (const char* site : sites) {
    util::FaultPlan plan;
    plan.seed = 100;
    // High enough that a short session certainly hits the site, below
    // 1.0 so the session still completes. accept_fail gets one draw per
    // connection attempt (the others one per frame), so it needs a rate
    // near 1 to certainly fire — the refused connects then retry with
    // fresh ids until one passes.
    plan.rates[site] = std::string_view(site) == "net.accept_fail" ? 0.97
                                                                   : 0.6;
    const PlanGuard guard(plan);
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    options.liveness = net::LivenessOptions{50, 100};
    net::IngestServer server(engine, options);
    net::AgentCore agent("site-agent");
    agent.queue_data("pv", 3600, clean_points(48, 3600), 8);
    agent.finish();
    const std::uint64_t before =
        counter_value(std::string("opprentice.faults.") + site);
    const DriveResult result = drive(server, agent, "site-agent");
    EXPECT_TRUE(result.done) << site;
    EXPECT_GT(counter_value(std::string("opprentice.faults.") + site), before)
        << site << " never fired";
    const auto handle = engine.find_series("pv");
    ASSERT_NE(handle, nullptr) << site;
    EXPECT_EQ(engine.stats(handle).points_seen, 48u) << site;
  }
}

// ---- determinism at any thread count -------------------------------------

TEST(NetChaos, FlightDumpIsByteIdenticalAtAnyThreadCount) {
  util::FaultPlan plan;
  plan.seed = 555;
  plan.rates["net.frame_drop"] = 0.1;
  plan.rates["net.frame_duplicate"] = 0.1;

  const auto run = [&](std::size_t threads) {
    util::set_global_threads(threads);
    const PlanGuard guard(plan);
    obs::FlightRecorder::instance().clear();
    core::FleetEngine engine(small_fleet());
    net::ServerOptions options;
    options.default_interval_seconds = 3600;
    options.liveness = net::LivenessOptions{2, 4};
    net::IngestServer server(engine, options);
    net::AgentCore agent("flight-agent");
    agent.queue_data("pv", 3600, clean_points(48, 3600), 8);
    agent.finish();
    const DriveResult result = drive(server, agent, "flight-agent");
    EXPECT_TRUE(result.done);
    // Let the source decay to kLost for suspect/lost flight events too.
    for (int i = 0; i < 6; ++i) server.tick();
    std::string dump = obs::FlightRecorder::instance().dump_json();
    obs::FlightRecorder::instance().clear();
    return dump;
  };
  const std::string serial = run(1);
  const std::string two = run(2);
  const std::string eight = run(8);
  util::set_global_threads(1);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  EXPECT_NE(serial.find("\"fault\""), std::string::npos);
  EXPECT_NE(serial.find("\"lost\""), std::string::npos);
}

// Entry points for DISTINCT connections may run concurrently (TSan
// coverage: the ctest "parallel" label): two sources stream on their own
// connections from two pool workers, then the main thread drains.
TEST(NetChaos, ConcurrentDistinctConnectionsAreSafeAndComplete) {
  core::FleetEngine engine(small_fleet());
  net::ServerOptions options;
  options.default_interval_seconds = 3600;
  net::IngestServer server(engine, options);
  constexpr std::size_t kAgents = 4;
  ASSERT_TRUE(server.on_connect(1));
  ASSERT_TRUE(server.on_connect(2));
  ASSERT_TRUE(server.on_connect(3));
  ASSERT_TRUE(server.on_connect(4));
  util::set_global_threads(kAgents);
  util::parallel_for(kAgents, [&](std::size_t i) {
    const std::uint64_t conn_id = i + 1;
    const std::string source = "agent-" + std::to_string(i);
    const std::string series = "pv-" + std::to_string(i);
    net::AgentCore agent(source);
    agent.queue_data(series, 3600, clean_points(32, 3600), 8);
    agent.finish();
    net::FrameParser replies;
    net::Frame reply;
    while (!agent.done() && !agent.failed()) {
      const auto frame = agent.next_frame();
      if (!frame.has_value()) break;
      std::vector<std::uint8_t> responses;
      if (!server.on_bytes(conn_id, net::encode_frame(*frame), responses)) {
        break;
      }
      replies.push_bytes(responses);
      while (replies.next(&reply)) agent.on_frame(reply);
    }
    EXPECT_TRUE(agent.done()) << source;
  });
  util::set_global_threads(1);
  server.drain();
  EXPECT_EQ(engine.series_count(), kAgents);
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto handle = engine.find_series("pv-" + std::to_string(i));
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(engine.stats(handle).points_seen, 32u);
  }
}

// ---- wire = engine -------------------------------------------------------

// The daemon's ingestion path changes nothing the pipeline decides. A
// 3-week, 10-minute PV series goes once through AgentCore -> IngestServer
// -> engine, each day's labels in a LABEL frame after that day's data,
// and once straight into ingest_raw/ingest_labels day by day; both
// engines run serve's configuration (the full bank, one week of history,
// weekly retrains). A third engine fed point by point finds the first
// classified verdict.
TEST(WireEqualsEngine, ThreeWeekPvReplayTrainsTheSameForest) {
  datagen::KpiPreset preset = datagen::pv_preset(datagen::Scale::kSmall);
  preset.model.weeks = 3;
  const datagen::GeneratedKpi kpi =
      datagen::generate_kpi(preset.model, preset.injection);
  const std::int64_t interval = kpi.series.interval_seconds();
  const std::size_t per_day = kpi.series.points_per_day();
  ASSERT_EQ(interval, 600);
  std::vector<ts::RawPoint> points;
  for (std::size_t i = 0; i < kpi.series.size(); ++i) {
    points.push_back({kpi.series.timestamp(i), kpi.series[i]});
  }
  const std::vector<std::uint8_t> labels =
      kpi.ground_truth.to_point_labels(points.size());

  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{per_day, 7 * per_day};
  options.history_capacity = options.ctx.points_per_week;

  core::FleetEngine wired(options);
  net::ServerOptions server_options;
  server_options.default_interval_seconds = interval;
  net::IngestServer server(wired, server_options);
  net::AgentCore agent("pv-agent");
  core::FleetEngine direct(options);
  const auto direct_pv = direct.add_series("pv");
  for (std::size_t at = 0; at < points.size(); at += per_day) {
    const std::size_t n = std::min(per_day, points.size() - at);
    const auto day = std::span<const ts::RawPoint>(points).subspan(at, n);
    const auto day_labels =
        std::span<const std::uint8_t>(labels).subspan(at, n);
    agent.queue_data("pv", interval, day, 36);
    agent.queue_labels("pv", at, {day_labels.begin(), day_labels.end()});
    direct.ingest_raw("pv", {day.begin(), day.end()}, interval,
                      server_options.repair_policy);
    direct.ingest_labels(direct_pv, day_labels, at);
  }
  agent.finish();
  ASSERT_TRUE(drive(server, agent, "pv-agent").done);

  const auto wired_pv = wired.find_series("pv");
  ASSERT_NE(wired_pv, nullptr);
  const auto a = wired.stats(wired_pv);
  const auto b = direct.stats(direct_pv);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.points_seen, points.size());
  EXPECT_EQ(a.points_seen, b.points_seen);
  EXPECT_EQ(a.labeled_until, b.labeled_until);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.train_failures, b.train_failures);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_TRUE(a.repairs.clean()) << a.repairs.summary();
  EXPECT_TRUE(b.repairs.clean()) << b.repairs.summary();
  EXPECT_GE(a.retrains, 1u);
  EXPECT_EQ(wired.forest_fingerprint(wired_pv),
            direct.forest_fingerprint(direct_pv));

  core::FleetEngine fed(options);
  const auto fed_pv = fed.add_series("pv");
  std::size_t first_verdict = points.size();
  for (std::size_t i = 0; i < points.size() && first_verdict == points.size();
       ++i) {
    if (fed.feed(fed_pv, points[i].value).classified) first_verdict = i;
    if ((i + 1) % per_day == 0) {
      const std::size_t at = i + 1 - per_day;
      fed.ingest_labels(
          fed_pv, std::span<const std::uint8_t>(labels).subspan(at, per_day),
          at);
    }
  }
  ASSERT_LT(first_verdict, points.size());
  std::printf("first classified verdict: point %zu, %.2f days in\n",
              first_verdict,
              static_cast<double>(first_verdict) /
                  static_cast<double>(per_day));
}

}  // namespace
