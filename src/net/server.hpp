// Transport-agnostic ingestion server core (DESIGN.md §5k).
//
// IngestServer is the whole daemon minus the sockets: it owns the
// per-connection frame parsers, the per-source liveness/sequencing
// trackers (source_state.hpp), bounded per-source ingest queues with
// RETRY-AFTER backpressure, and the translation of accepted DATA/LABEL
// batches into core::FleetEngine calls. The socket front end
// (sockets.hpp) and the in-memory transport used by the chaos suite both
// drive it through the same three entry points — on_connect / on_bytes /
// on_disconnect — plus a logical tick() that advances liveness deadlines
// and applies queued work.
//
// Determinism contract: given the same byte traces, connect order, and
// tick schedule, every observable output — response bytes, engine state,
// metric counters, flight events — is identical on every rerun at any
// thread count. Time is the caller's tick counter, never a clock;
// iteration is over std::map (sorted ids); fault decisions are pure
// hashes. The two connection-level fault sites live here: net.conn_reset
// fires after a processed frame (on_bytes returns false, the transport
// must close), net.accept_fail fires in on_connect.
//
// Thread safety: entry points may be called concurrently for *distinct*
// connections (the state mutex serializes them); tick()/drain() apply
// engine work outside the lock. Bytes of one connection must arrive in
// order, as any stream transport guarantees.
//
// Steady-state cost: each connection parses into one reused Frame, ACK
// and RETRY are written from stack payloads, and tick() reuses its work
// list, so an accepted one-point DATA frame allocates only its queued
// points (tests/hotpath_runtime_test.cpp counts the whole exchange).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet_engine.hpp"
#include "net/framing.hpp"
#include "net/source_state.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::net {

struct ServerOptions {
  LivenessOptions liveness;
  // Frames queued per source before DATA/LABEL is rejected with RETRY.
  std::size_t queue_capacity = 64;
  // The RETRY frame's back-off hint.
  std::uint32_t retry_after_ticks = 1;
  // The fleet's grid interval: DATA frames that declare 0 use it, and a
  // frame that declares another is an ERROR. 0 infers each batch's grid
  // and accepts any.
  std::int64_t default_interval_seconds = 0;
  ts::RepairPolicy repair_policy = ts::RepairPolicy::kFillInterpolate;
};

// One source's externally visible state (snapshot(), sorted by id).
struct SourceSnapshot {
  std::string id;
  SourceState state = SourceState::kAwaiting;
  SourceCounters counters;
  std::uint32_t last_seq = 0;
  std::size_t queued_batches = 0;
  bool saw_bye = false;
};

class IngestServer {
 public:
  IngestServer(core::FleetEngine& engine, ServerOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // A transport announces a new connection. False = refuse (the
  // net.accept_fail site fired for this conn_id); the transport closes
  // the peer without reading.
  bool on_connect(std::uint64_t conn_id);

  // Feeds received bytes; response frames are appended to `responses`.
  // False = close this connection now (dead parser, protocol violation,
  // or the net.conn_reset site fired). Responses appended before the
  // failure are best-effort, like bytes in flight when a real peer
  // resets.
  bool on_bytes(std::uint64_t conn_id, std::span<const std::uint8_t> bytes,
                std::vector<std::uint8_t>& responses);

  void on_disconnect(std::uint64_t conn_id);

  // One logical tick: advance every source's liveness (flight events on
  // kSuspect/kLost transitions; a source going kLost has its queue
  // flushed to the engine first — deterministic teardown, no data loss),
  // then apply every queued batch in sorted source order, refreshing the
  // liveness gauges. A batch the engine refuses (ingest_raw throws, e.g.
  // a timestamp span no grid may cover) is counted in
  // opprentice.net.batches_rejected and flight-recorded; every other
  // batch of the tick, those coalesced with it included, is applied.
  void tick();

  // Applies everything still queued (SIGTERM drain path).
  void drain();

  std::uint64_t now_tick() const;
  std::size_t connection_count() const;
  // BYE frames accepted so far (serve --exit-after-byes).
  std::uint64_t byes_received() const;

  std::optional<SourceState> source_state(std::string_view source_id) const;
  std::vector<SourceSnapshot> snapshot() const;  // sorted by source id

 private:
  struct Source;

  struct QueuedBatch {
    // Sources are never erased, and id and salt never change after
    // HELLO, so the apply phase reads them without the lock.
    const Source* source = nullptr;
    std::uint32_t seq = 0;              // the frame's sequence number
    FrameType type = FrameType::kData;  // kData or kLabel
    std::string series_id;
    std::int64_t interval_seconds = 0;
    std::vector<ts::RawPoint> points;  // kData
    std::uint64_t label_begin = 0;     // kLabel
    std::vector<std::uint8_t> labels;  // kLabel
  };

  struct Source {
    std::string id;
    std::uint64_t salt = 0;
    SourceTracker tracker;
    std::vector<QueuedBatch> queue;  // every tick takes all of it
    bool saw_bye = false;
    SourceState last_reported = SourceState::kAwaiting;
  };

  struct Connection {
    FrameParser parser;
    Frame frame;  // parser.next refills it for every frame
    Source* source = nullptr;  // bound by HELLO; sources outlive conns
    std::uint64_t frames_processed = 0;
  };

  // True = keep the connection; appends any response frames.
  bool handle_frame(Connection& conn, const Frame& frame,
                    std::vector<std::uint8_t>& responses)
      OPPRENTICE_REQUIRES(mutex_);

  // Applies `work` outside the lock, then returns its storage for the
  // next tick.
  void apply_batches(std::vector<QueuedBatch> work);
  // One ingest_raw call over consecutive DATA batches of one series.
  // False = a run of several batches was refused (the caller applies them
  // one by one); a lone refused batch is counted and recorded.
  bool ingest_run(std::span<QueuedBatch> run);
  void refresh_gauges() OPPRENTICE_REQUIRES(mutex_);

  core::FleetEngine& engine_;
  const ServerOptions options_;

  mutable util::Mutex mutex_{util::LockLevel::net_server};
  std::uint64_t now_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::uint64_t byes_ OPPRENTICE_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, Connection> connections_
      OPPRENTICE_GUARDED_BY(mutex_);
  // Sources persist across reconnects (resume handshake); sorted map so
  // every sweep is in deterministic id order.
  std::map<std::string, std::unique_ptr<Source>, std::less<>> sources_
      OPPRENTICE_GUARDED_BY(mutex_);
  // The work list's storage between ticks (empty, with capacity).
  std::vector<QueuedBatch> work_ OPPRENTICE_GUARDED_BY(mutex_);
};

}  // namespace opprentice::net
