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
#pragma once

#include <cstdint>
#include <deque>
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
  // Queued batches applied per source per tick(); 0 = unbounded.
  std::size_t apply_budget = 0;
  // The RETRY frame's back-off hint.
  std::uint32_t retry_after_ticks = 1;
  // Fallback grid interval for DATA frames that declare 0 (infer).
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
  // then apply up to apply_budget queued batches per source in sorted
  // source order, refreshing the liveness gauges.
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
  struct QueuedBatch {
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
    std::deque<QueuedBatch> queue;
    bool saw_bye = false;
    SourceState last_reported = SourceState::kAwaiting;
  };

  struct Connection {
    FrameParser parser;
    Source* source = nullptr;  // bound by HELLO; sources outlive conns
    std::uint64_t frames_processed = 0;
  };

  // True = keep the connection; appends any response frames.
  bool handle_frame(Connection& conn, const Frame& frame,
                    std::vector<std::uint8_t>& responses)
      OPPRENTICE_REQUIRES(mutex_);

  void apply_batches(std::vector<std::pair<std::string, QueuedBatch>> work);
  void refresh_gauges() OPPRENTICE_REQUIRES(mutex_);
  core::SeriesHandle series_handle(const std::string& series_id);

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

  // Engine handles resolved once per series. Guarded by its own mutex so
  // apply_batches (which runs unlocked w.r.t. mutex_) can use it.
  util::Mutex series_cache_mutex_{util::LockLevel::net_series_cache};
  std::map<std::string, core::SeriesHandle, std::less<>> series_cache_
      OPPRENTICE_GUARDED_BY(series_cache_mutex_);
};

}  // namespace opprentice::net
