// Per-source liveness + sequencing state machine (DESIGN.md §5k).
//
// Every connected agent ("source") gets one SourceTracker, modeled on the
// sACN receiver's per-source detector: sources are born kAwaiting, go
// kLive on their first accepted frame, decay to kSuspect and then kLost
// as heartbeat deadlines lapse, and return to kLive only through an
// explicit revive (a reconnecting agent's HELLO/resume handshake).
//
//            frame                    idle >= suspect_after
//   kAwaiting ----> kLive <--------+ ----> kSuspect
//       |             ^   frame    |           |  idle >= lost_after
//       |             |            +-----------+
//       |          revive()                    v
//       +------------ + <-------------------- kLost   (teardown)
//
// The tracker also sequences frames: a 64-entry sliding bitmap over the
// most recent sequence numbers classifies each arrival as in-order, a
// gap (wire loss -> repair_series sees missing timestamps), a duplicate
// (dropped at the frame layer, exactly-once apply), a reorder (applied;
// repair_series re-sorts), or stale (behind the window; dropped). Time
// is a caller-supplied logical tick, never a clock — the same frame
// trace replays to the same transitions in the chaos suite, and
// `observe` is on the per-frame hot path: no allocation, no lock
// (tests/hotpath_runtime_test.cpp).
#pragma once

#include <cstdint>

namespace opprentice::net {

enum class SourceState : std::uint8_t {
  kAwaiting,  // registered, no frame accepted yet
  kLive,      // frames flowing within the heartbeat deadline
  kSuspect,   // missed at least suspect_after_ticks; still tracked
  kLost,      // missed lost_after_ticks; torn down until revive()
};

const char* to_string(SourceState state);

// How a sequence number relates to what the source already sent.
enum class SeqVerdict : std::uint8_t {
  kInOrder,    // exactly last + 1 (or the first frame): apply
  kGap,        // jumped ahead: apply, count the skipped frames as lost
  kReordered,  // behind but unseen: apply (repair_series re-sorts)
  kDuplicate,  // behind and already seen: drop, but re-ACK
  kStale,      // behind the 64-frame window: drop
};

const char* to_string(SeqVerdict verdict);

struct LivenessOptions {
  // Ticks of silence before kLive decays to kSuspect / kSuspect to kLost.
  std::uint64_t suspect_after_ticks = 5;
  std::uint64_t lost_after_ticks = 10;
};

struct SourceCounters {
  std::uint64_t frames_accepted = 0;  // in-order + gap + reordered
  std::uint64_t gap_frames = 0;       // frames the wire lost
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t stale = 0;
  std::uint64_t suspect_transitions = 0;
  std::uint64_t lost_transitions = 0;
  std::uint64_t revives = 0;
};

class SourceTracker {
 public:
  explicit SourceTracker(LivenessOptions options = {});

  // Classifies `seq` against the sliding window and commits it when the
  // verdict says apply. Also refreshes the liveness deadline and promotes
  // kAwaiting/kSuspect to kLive (kLost stays kLost: only revive() returns
  // from the dead). Hot: one branch tree over two u64s, no allocation.
  SeqVerdict observe(std::uint32_t seq, std::uint64_t now_tick);

  // Refreshes the liveness deadline without committing a sequence number
  // — for frames the server rejected under backpressure, so the agent's
  // retransmission is not misclassified as a duplicate.
  void touch(std::uint64_t now_tick);

  // Advances liveness to `now_tick`, decaying kLive -> kSuspect -> kLost
  // as deadlines lapse. Returns the (possibly new) state; the caller
  // emits flight events on change.
  SourceState tick(std::uint64_t now_tick);

  // Re-registration after kLost (reconnect + HELLO). Keeps the sequence
  // window and counters so retransmitted frames still deduplicate and
  // per-series attribution stays exact across the outage.
  void revive(std::uint64_t now_tick);

  SourceState state() const { return state_; }
  const SourceCounters& counters() const { return counters_; }
  // Highest committed sequence number (the WELCOME resume_seq).
  std::uint32_t last_seq() const { return last_seq_; }
  bool has_seen() const { return has_seen_; }
  std::uint64_t last_seen_tick() const { return last_seen_tick_; }

 private:
  void mark_alive(std::uint64_t now_tick);

  LivenessOptions options_;
  SourceState state_ = SourceState::kAwaiting;
  std::uint64_t last_seen_tick_ = 0;
  bool has_seen_ = false;
  std::uint32_t last_seq_ = 0;
  // Bit i set = sequence number (last_seq_ - i) was committed.
  std::uint64_t window_ = 0;
  SourceCounters counters_;
};

}  // namespace opprentice::net
