// Wire protocol of the ingestion daemon (DESIGN.md §5k).
//
// A compact length-prefixed binary framing carries KPI points, operator
// labels, and liveness heartbeats from many monitoring agents to
// opprentice_server. Every frame is CRC-checked and versioned so a
// corrupted or truncated byte stream degrades into counted, skipped
// frames instead of a desynchronized parser:
//
//   offset size  field
//   0      4     payload length N (LE; excludes header and CRC)
//   4      1     protocol version (kProtocolVersion)
//   5      1     frame type (FrameType)
//   6      4     per-source sequence number (LE)
//   10     N     payload (typed encodings below)
//   10+N   4     CRC-32 (IEEE) over bytes [4, 10+N)
//
// Client frames: HELLO (source registration + resume handshake), DATA
// (one batch of (timestamp, value) points for one series), LABEL
// (operator labels for a row range), HEARTBEAT, BYE. Server frames:
// WELCOME (accepts HELLO, names the resume sequence), ACK, RETRY
// (backpressure: the frame was rejected, come back later), ERROR.
//
// Everything here is a pure function of its input bytes — no clocks, no
// sockets, no global state — so the session core built on it replays
// byte-identically in the chaos suite (tests/net_session_test.cpp). Each
// encoder sizes its payload and frame once; the header decode, crc32,
// append_frame into a buffer with room, and FrameParser::next into a
// Frame that held a payload as large are the per-frame hot path: no
// allocation, no lock (tests/hotpath_runtime_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "timeseries/repair.hpp"

namespace opprentice::net {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 10;  // length+version+type+seq
inline constexpr std::size_t kCrcBytes = 4;
// Frames declaring a larger payload poison the connection (a broken or
// hostile peer; the stream can no longer be trusted to re-synchronize).
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 0x01,
  kData = 0x02,
  kLabel = 0x03,
  kHeartbeat = 0x04,
  kBye = 0x05,
  kWelcome = 0x81,
  kAck = 0x82,
  kRetry = 0x83,
  kError = 0x84,
};

const char* to_string(FrameType type);
bool is_client_frame(FrameType type);
bool is_server_frame(FrameType type);

// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial), eight bytes per
// step (slicing-by-8).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

struct Frame {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

// Fixed-size header view, decoded without touching the payload.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t seq = 0;
};

// Decodes the 10-byte header at `data` (caller guarantees kHeaderBytes
// readable). Pure and allocation-free: the per-frame fast path.
FrameHeader decode_frame_header(const std::uint8_t* data);

// Serializes header + payload + CRC onto `out`, growing it once: the one
// frame encoder. The Frame overload and encode_frame call it, and the
// server writes ACK and RETRY through it from a payload on the stack.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t seq, std::span<const std::uint8_t> payload,
                  std::uint8_t version = kProtocolVersion);
void append_frame(std::vector<std::uint8_t>& out, const Frame& frame);
std::vector<std::uint8_t> encode_frame(const Frame& frame);

// ---- typed payloads ------------------------------------------------------

struct HelloPayload {
  std::string source_id;
  // Highest sequence number the agent saw acknowledged; 0 on first
  // contact. The server answers with its own view in WELCOME.
  std::uint32_t resume_seq = 0;
};

struct DataPayload {
  std::string series_id;
  std::int64_t interval_seconds = 0;  // 0 = let repair_series infer
  std::vector<ts::RawPoint> points;
};

struct LabelPayload {
  std::string series_id;
  std::uint64_t begin = 0;  // global row index of labels[0]
  std::vector<std::uint8_t> labels;
};

struct WelcomePayload {
  // Highest sequence number the server accepted for this source; the
  // agent retransmits everything after it.
  std::uint32_t resume_seq = 0;
};

struct AckPayload {
  std::uint32_t seq = 0;  // the acknowledged frame
};

struct RetryPayload {
  std::uint32_t seq = 0;              // the rejected frame
  std::uint32_t retry_after_ticks = 0;  // backpressure hint
};

struct ErrorPayload {
  std::string message;
};

// The fixed-size server payloads as bytes on the stack; make_ack and
// make_retry wrap the same bytes in a Frame.
std::array<std::uint8_t, 4> ack_payload(const AckPayload& payload);
std::array<std::uint8_t, 8> retry_payload(const RetryPayload& payload);

Frame make_hello(std::uint32_t seq, const HelloPayload& payload);
Frame make_data(std::uint32_t seq, const DataPayload& payload);
// The same DATA frame from borrowed fields (AgentCore encodes each batch
// straight from its caller's points).
Frame make_data(std::uint32_t seq, std::string_view series_id,
                std::int64_t interval_seconds,
                std::span<const ts::RawPoint> points);
Frame make_label(std::uint32_t seq, const LabelPayload& payload);
Frame make_heartbeat(std::uint32_t seq);
Frame make_bye(std::uint32_t seq);
Frame make_welcome(const WelcomePayload& payload);
Frame make_ack(const AckPayload& payload);
Frame make_retry(const RetryPayload& payload);
Frame make_error(std::string_view message);

// Payload decoders: false on malformed payloads (short, bad string
// length, truncated point array) — callers count and skip, never throw.
bool decode_hello(const Frame& frame, HelloPayload* out);
bool decode_data(const Frame& frame, DataPayload* out);
bool decode_label(const Frame& frame, LabelPayload* out);
bool decode_welcome(const Frame& frame, WelcomePayload* out);
bool decode_ack(const Frame& frame, AckPayload* out);
bool decode_retry(const Frame& frame, RetryPayload* out);
bool decode_error(const Frame& frame, ErrorPayload* out);

// ---- incremental parser --------------------------------------------------

// Feed bytes as they arrive; pop well-formed frames. Malformed frames
// (CRC mismatch, unknown version) are skipped and counted — the length
// prefix keeps the stream synchronized. A frame declaring more than
// `max_payload` bytes kills the parser (dead() == true): the connection
// owner must close the peer.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kMaxPayloadBytes);

  void push_bytes(std::span<const std::uint8_t> bytes);
  // True when a complete valid frame was extracted into *out. The payload
  // is copied into out->payload's storage, so a Frame reused across calls
  // stops allocating once it has held the largest payload.
  bool next(Frame* out);

  bool dead() const { return dead_; }
  std::uint64_t corrupt_frames() const { return corrupt_frames_; }
  std::uint64_t bad_version_frames() const { return bad_version_frames_; }
  std::uint64_t frames_parsed() const { return frames_parsed_; }
  std::size_t buffered_bytes() const { return buffer_.size() - head_; }

 private:
  std::size_t max_payload_;  // non-const: parsers are reset by assignment
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  // consumed prefix of buffer_
  bool dead_ = false;
  std::uint64_t corrupt_frames_ = 0;
  std::uint64_t bad_version_frames_ = 0;
  std::uint64_t frames_parsed_ = 0;
};

}  // namespace opprentice::net
