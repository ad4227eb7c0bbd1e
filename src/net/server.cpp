#include "net/server.hpp"

#include <exception>
#include <iterator>
#include <string>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/fault_injection.hpp"

namespace opprentice::net {
namespace {

// Instruments looked up once; addresses are stable for process lifetime.
struct NetCounters {
  obs::Counter* frames_rx = &obs::counter("opprentice.net.frames_rx");
  obs::Counter* frames_tx = &obs::counter("opprentice.net.frames_tx");
  obs::Counter* bytes_rx = &obs::counter("opprentice.net.bytes_rx");
  obs::Counter* bytes_tx = &obs::counter("opprentice.net.bytes_tx");
  obs::Counter* frames_corrupt =
      &obs::counter("opprentice.net.frames_corrupt");
  obs::Counter* seq_gaps = &obs::counter("opprentice.net.seq_gaps");
  obs::Counter* seq_duplicates =
      &obs::counter("opprentice.net.seq_duplicates");
  obs::Counter* seq_reordered =
      &obs::counter("opprentice.net.seq_reordered");
  obs::Counter* seq_stale = &obs::counter("opprentice.net.seq_stale");
  obs::Counter* backpressure_rejects =
      &obs::counter("opprentice.net.backpressure_rejects");
  obs::Counter* accepts = &obs::counter("opprentice.net.accepts");
  obs::Counter* accept_failures =
      &obs::counter("opprentice.net.accept_failures");
  obs::Counter* resets = &obs::counter("opprentice.net.resets");
  obs::Counter* batches_applied =
      &obs::counter("opprentice.net.batches_applied");
  obs::Counter* batches_rejected =
      &obs::counter("opprentice.net.batches_rejected");
  obs::Counter* points_applied =
      &obs::counter("opprentice.net.points_applied");
  obs::Gauge* sources_live = &obs::gauge("opprentice.net.sources_live");
  obs::Gauge* sources_suspect =
      &obs::gauge("opprentice.net.sources_suspect");
  obs::Gauge* sources_lost = &obs::gauge("opprentice.net.sources_lost");
};

NetCounters& net_counters() {
  // opprentice-check: allow(unguarded-static) Meyers singleton of registry-owned instrument pointers; the instruments themselves are atomic
  static NetCounters counters;
  return counters;
}

// Server frames carry sequence number 0.
void append_response(std::vector<std::uint8_t>& responses, FrameType type,
                     std::span<const std::uint8_t> payload) {
  const std::size_t before = responses.size();
  append_frame(responses, type, 0, payload);
  net_counters().frames_tx->add();
  net_counters().bytes_tx->add(responses.size() - before);
}

void append_response(std::vector<std::uint8_t>& responses,
                     const Frame& frame) {
  append_response(responses, frame.type, frame.payload);
}

void append_ack(std::vector<std::uint8_t>& responses, std::uint32_t seq) {
  append_response(responses, FrameType::kAck, ack_payload(AckPayload{seq}));
}

// Moves the whole of `queue` onto the end of `work`.
template <typename Batch>
void take_all(std::vector<Batch>& queue, std::vector<Batch>& work) {
  work.insert(work.end(), std::make_move_iterator(queue.begin()),
              std::make_move_iterator(queue.end()));
  queue.clear();
}

}  // namespace

IngestServer::IngestServer(core::FleetEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

IngestServer::~IngestServer() = default;

bool IngestServer::on_connect(std::uint64_t conn_id) {
  if (util::inject_fault(util::faults::kNetAcceptFail, conn_id)) {
    net_counters().accept_failures->add();
    return false;
  }
  net_counters().accepts->add();
  util::MutexLock lock(mutex_);
  connections_.try_emplace(conn_id);
  return true;
}

void IngestServer::on_disconnect(std::uint64_t conn_id) {
  util::MutexLock lock(mutex_);
  connections_.erase(conn_id);
}

bool IngestServer::on_bytes(std::uint64_t conn_id,
                            std::span<const std::uint8_t> bytes,
                            std::vector<std::uint8_t>& responses) {
  net_counters().bytes_rx->add(bytes.size());
  util::MutexLock lock(mutex_);
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return false;
  Connection& conn = it->second;
  conn.parser.push_bytes(bytes);
  Frame& frame = conn.frame;
  while (conn.parser.next(&frame)) {
    net_counters().frames_rx->add();
    if (!handle_frame(conn, frame, responses)) return false;
    ++conn.frames_processed;
    // The reset site models the kernel tearing the stream down under us:
    // it fires after a frame was fully processed, keyed by (source,
    // connection, frame) so a plan resets the same exchanges on every
    // rerun — connect order is part of the determinism contract — while
    // a frame retried on a fresh connection gets a fresh decision
    // (keying by sequence number alone would reset every retry of an
    // unlucky frame forever and livelock the session at high rates).
    const std::uint64_t reset_key = util::fault_key(
        util::fault_key(conn.source != nullptr ? conn.source->salt : conn_id,
                        conn_id),
        frame.seq);
    if (util::inject_fault(util::faults::kNetConnReset, reset_key)) {
      net_counters().resets->add();
      return false;
    }
  }
  if (conn.parser.dead()) {
    append_response(responses, make_error("unrecoverable frame stream"));
    return false;
  }
  return true;
}

bool IngestServer::handle_frame(Connection& conn, const Frame& frame,
                                std::vector<std::uint8_t>& responses) {
  NetCounters& counters = net_counters();
  if (!is_client_frame(frame.type)) {
    append_response(responses, make_error("unexpected server-side frame"));
    return false;
  }
  if (frame.type == FrameType::kHello) {
    HelloPayload hello;
    if (!decode_hello(frame, &hello) || hello.source_id.empty()) {
      append_response(responses, make_error("malformed HELLO"));
      return false;
    }
    auto [slot, inserted] = sources_.try_emplace(hello.source_id);
    if (inserted) {
      slot->second = std::make_unique<Source>();
      slot->second->id = hello.source_id;
      slot->second->salt = util::stable_id_hash(hello.source_id);
      slot->second->tracker = SourceTracker(options_.liveness);
    }
    Source& source = *slot->second;
    if (source.tracker.state() == SourceState::kLost) {
      source.tracker.revive(now_);
      obs::flight_record("net", "revive", source.salt,
                         "source=" + source.id);
    } else {
      source.tracker.touch(now_);
    }
    conn.source = &source;
    append_response(responses, make_welcome(WelcomePayload{
                                   source.tracker.last_seq()}));
    return true;
  }
  if (conn.source == nullptr) {
    append_response(responses, make_error("frame before HELLO"));
    return false;
  }
  Source& source = *conn.source;
  const bool wants_queue =
      frame.type == FrameType::kData || frame.type == FrameType::kLabel;
  if (wants_queue && source.queue.size() >= options_.queue_capacity) {
    // Backpressure: never buffer unboundedly. The deadline still
    // refreshes (the agent is alive, just too fast) but the sequence
    // number is NOT committed, so the retransmission is not a duplicate.
    source.tracker.touch(now_);
    counters.backpressure_rejects->add();
    obs::flight_record("net", "backpressure",
                       util::fault_key(source.salt, frame.seq),
                       "source=" + source.id);
    append_response(responses, FrameType::kRetry,
                    retry_payload(RetryPayload{frame.seq,
                                               options_.retry_after_ticks}));
    return true;
  }
  const SeqVerdict verdict = source.tracker.observe(frame.seq, now_);
  switch (verdict) {
    case SeqVerdict::kDuplicate:
      // Already applied (or queued): drop at the frame layer for
      // exactly-once apply, but re-ACK so a lockstep sender whose ACK
      // was lost can make progress.
      counters.seq_duplicates->add();
      append_ack(responses, frame.seq);
      return true;
    case SeqVerdict::kStale:
      counters.seq_stale->add();
      append_ack(responses, frame.seq);
      return true;
    case SeqVerdict::kGap:
      counters.seq_gaps->add();
      break;
    case SeqVerdict::kReordered:
      counters.seq_reordered->add();
      break;
    case SeqVerdict::kInOrder:
      break;
  }
  switch (frame.type) {
    case FrameType::kData: {
      DataPayload data;
      if (!decode_data(frame, &data) || data.series_id.empty() ||
          data.points.empty()) {
        append_response(responses, make_error("malformed DATA"));
        return false;
      }
      // The engine's SeriesContext is fleet-wide: a series on another
      // grid would be read with the wrong day and week.
      if (data.interval_seconds != 0 &&
          options_.default_interval_seconds != 0 &&
          data.interval_seconds != options_.default_interval_seconds) {
        append_response(responses,
                        make_error("DATA interval differs from the fleet's"));
        return false;
      }
      QueuedBatch batch;
      batch.source = &source;
      batch.seq = frame.seq;
      batch.type = FrameType::kData;
      batch.series_id = std::move(data.series_id);
      batch.interval_seconds = data.interval_seconds != 0
                                   ? data.interval_seconds
                                   : options_.default_interval_seconds;
      batch.points = std::move(data.points);
      source.queue.push_back(std::move(batch));
      break;
    }
    case FrameType::kLabel: {
      LabelPayload label;
      if (!decode_label(frame, &label) || label.series_id.empty()) {
        append_response(responses, make_error("malformed LABEL"));
        return false;
      }
      QueuedBatch batch;
      batch.source = &source;
      batch.seq = frame.seq;
      batch.type = FrameType::kLabel;
      batch.series_id = std::move(label.series_id);
      batch.label_begin = label.begin;
      batch.labels = std::move(label.labels);
      source.queue.push_back(std::move(batch));
      break;
    }
    case FrameType::kHeartbeat:
      break;  // liveness already refreshed by observe()
    case FrameType::kBye:
      source.saw_bye = true;
      ++byes_;
      break;
    default:
      break;
  }
  append_ack(responses, frame.seq);
  return true;
}

void IngestServer::apply_batches(std::vector<QueuedBatch> work) {
  // Engine calls happen outside the server lock: ingest_raw feeds the
  // per-point pipeline and must never serialize against the frame path.
  // Coalesce runs of DATA batches for the same series into one
  // ingest_raw call: a wire gap inside the run becomes missing grid
  // slots, a reorder becomes out-of-order points — exactly the defect
  // classes repair_series already repairs and reports. A run's series is
  // created when repair first accepts a run of it, so a refused batch
  // under a new id leaves no series behind; a LABEL batch, which labels
  // only rows already fed, applies to an existing series alone.
  std::size_t i = 0;
  while (i < work.size()) {
    QueuedBatch& batch = work[i];
    if (batch.type == FrameType::kLabel) {
      if (const auto series = engine_.find_series(batch.series_id)) {
        engine_.ingest_labels(series, batch.labels,
                              static_cast<std::size_t>(batch.label_begin));
      }
      net_counters().batches_applied->add();
      ++i;
      continue;
    }
    std::size_t coalesced = 1;
    while (i + coalesced < work.size()) {
      const QueuedBatch& next = work[i + coalesced];
      if (next.source != batch.source || next.type != FrameType::kData ||
          next.series_id != batch.series_id ||
          next.interval_seconds != batch.interval_seconds) {
        break;
      }
      ++coalesced;
    }
    const std::span<QueuedBatch> run(work.data() + i, coalesced);
    if (!ingest_run(run)) {
      // One batch the engine refuses must not take the rest of its run
      // with it: apply them one by one. Repair refuses a chunk before
      // any of its points is fed, so none is fed twice.
      for (QueuedBatch& one : run) ingest_run({&one, 1});
    }
    i += coalesced;
  }
  // The storage goes back for the next tick.
  work.clear();
  util::MutexLock lock(mutex_);
  work_.swap(work);
}

bool IngestServer::ingest_run(std::span<QueuedBatch> run) {
  NetCounters& counters = net_counters();
  const QueuedBatch& batch = run.front();
  // A lone batch hands its points over; a longer run copies them, so each
  // batch keeps its own points for a retry.
  std::vector<ts::RawPoint> points;
  if (run.size() == 1) {
    points = std::move(run.front().points);
  } else {
    for (const QueuedBatch& next : run) {
      points.insert(points.end(), next.points.begin(), next.points.end());
    }
  }
  const std::size_t submitted = points.size();
  try {
    const core::IngestOutcome outcome =
        engine_.ingest_raw(batch.series_id, std::move(points),
                           batch.interval_seconds, options_.repair_policy);
    counters.batches_applied->add(run.size());
    counters.points_applied->add(outcome.points_fed);
    if (!outcome.repairs.clean()) {
      obs::log(obs::LogLevel::kWarn, "net", "apply_dirty",
               {{"series", batch.series_id},
                {"submitted", submitted},
                {"fed", outcome.points_fed},
                {"repairs", outcome.repairs.summary()}});
    }
  } catch (const std::exception& e) {
    if (run.size() > 1) return false;
    // The batch was ACKed, so the sender will not resend it: count and
    // record the refusal, and go on with the rest of the tick.
    counters.batches_rejected->add();
    obs::flight_record(
        "net", "batch_rejected", util::fault_key(batch.source->salt, batch.seq),
        "source=" + batch.source->id + " series=" + batch.series_id +
            " seq=" + std::to_string(batch.seq) + " " + e.what());
    obs::log(obs::LogLevel::kWarn, "net", "batch_rejected",
             {{"source", batch.source->id},
              {"series", batch.series_id},
              {"seq", batch.seq},
              {"submitted", submitted},
              {"error", e.what()}});
  }
  return true;
}

void IngestServer::refresh_gauges() {
  std::size_t live = 0;
  std::size_t suspect = 0;
  std::size_t lost = 0;
  for (const auto& [id, source] : sources_) {
    switch (source->tracker.state()) {
      case SourceState::kLive:
        ++live;
        break;
      case SourceState::kSuspect:
        ++suspect;
        break;
      case SourceState::kLost:
        ++lost;
        break;
      case SourceState::kAwaiting:
        break;
    }
  }
  NetCounters& counters = net_counters();
  counters.sources_live->set(static_cast<double>(live));
  counters.sources_suspect->set(static_cast<double>(suspect));
  counters.sources_lost->set(static_cast<double>(lost));
}

void IngestServer::tick() {
  std::vector<QueuedBatch> work;
  std::vector<std::string> lost;  // logged after the lock: log sinks do I/O
  {
    util::MutexLock lock(mutex_);
    work.swap(work_);
    ++now_;
    for (auto& [id, source] : sources_) {
      const SourceState state = source->tracker.tick(now_);
      if (state != source->last_reported) {
        if (state == SourceState::kSuspect) {
          obs::flight_record("net", "suspect", source->salt,
                             "source=" + id);
        } else if (state == SourceState::kLost) {
          obs::flight_record("net", "lost", source->salt, "source=" + id);
          lost.push_back(id);
          // Deterministic teardown: everything the source queued before
          // going dark is flushed this tick — no buffered data is lost.
          take_all(source->queue, work);
        }
        source->last_reported = state;
      }
    }
    for (auto& [id, source] : sources_) take_all(source->queue, work);
    refresh_gauges();
  }
  for (const std::string& id : lost) {
    obs::log(obs::LogLevel::kWarn, "net", "source_lost", {{"source", id}});
  }
  apply_batches(std::move(work));
}

void IngestServer::drain() {
  std::vector<QueuedBatch> work;
  {
    util::MutexLock lock(mutex_);
    work.swap(work_);
    for (auto& [id, source] : sources_) take_all(source->queue, work);
    refresh_gauges();
  }
  apply_batches(std::move(work));
}

std::uint64_t IngestServer::now_tick() const {
  util::MutexLock lock(mutex_);
  return now_;
}

std::size_t IngestServer::connection_count() const {
  util::MutexLock lock(mutex_);
  return connections_.size();
}

std::uint64_t IngestServer::byes_received() const {
  util::MutexLock lock(mutex_);
  return byes_;
}

std::optional<SourceState> IngestServer::source_state(
    std::string_view source_id) const {
  util::MutexLock lock(mutex_);
  const auto it = sources_.find(source_id);
  if (it == sources_.end()) return std::nullopt;
  return it->second->tracker.state();
}

std::vector<SourceSnapshot> IngestServer::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<SourceSnapshot> out;
  out.reserve(sources_.size());
  for (const auto& [id, source] : sources_) {
    SourceSnapshot snap;
    snap.id = id;
    snap.state = source->tracker.state();
    snap.counters = source->tracker.counters();
    snap.last_seq = source->tracker.last_seq();
    snap.queued_batches = source->queue.size();
    snap.saw_bye = source->saw_bye;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace opprentice::net
