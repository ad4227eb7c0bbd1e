#include "net/framing.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace opprentice::net {
namespace {

// Slicing-by-8 CRC-32 tables. kCrcTables[0] is the byte-at-a-time table
// of the reflected 0xEDB88320 polynomial; kCrcTables[k][b] is
// kCrcTables[k - 1][b] advanced over one more zero byte, so eight lookups
// fold eight input bytes into the CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Writes little-endian fields into storage the encoder sized beforehand.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  void u8(std::uint8_t v) { *at_++ = v; }

  void u32(std::uint32_t v) {
    at_[0] = static_cast<std::uint8_t>(v & 0xFFu);
    at_[1] = static_cast<std::uint8_t>((v >> 8) & 0xFFu);
    at_[2] = static_cast<std::uint8_t>((v >> 16) & 0xFFu);
    at_[3] = static_cast<std::uint8_t>((v >> 24) & 0xFFu);
    at_ += 4;
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  void bytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(at_, data, n);
    at_ += n;
  }

  // Length-prefixed string (u32 length + bytes).
  void string(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

 private:
  std::uint8_t* at_;
};

constexpr std::size_t string_bytes(std::string_view s) { return 4 + s.size(); }

// A frame whose payload is sized for `payload_bytes`, for one Writer pass.
Frame sized_frame(FrameType type, std::uint32_t seq,
                  std::size_t payload_bytes) {
  Frame frame;
  frame.type = type;
  frame.seq = seq;
  frame.payload.resize(payload_bytes);
  return frame;
}

// Cursor over a payload; every read checks bounds and flips `ok` on
// overrun so decoders report malformed payloads instead of reading past
// the frame.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (data.size() - pos < 4) {
      ok = false;
      pos = data.size();
      return 0;
    }
    const std::uint32_t v = load_u32(data.data() + pos);
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | hi << 32;
  }

  bool bytes(std::size_t n, std::span<const std::uint8_t>* out) {
    if (data.size() - pos < n) {
      ok = false;
      pos = data.size();
      return false;
    }
    *out = data.subspan(pos, n);
    pos += n;
    return true;
  }

  // Length-prefixed string (u32 length + bytes).
  bool string(std::string* out) {
    const std::uint32_t n = u32();
    std::span<const std::uint8_t> raw;
    if (!ok || !bytes(n, &raw)) return false;
    out->assign(reinterpret_cast<const char*>(raw.data()), raw.size());
    return true;
  }

  bool done() const { return ok && pos == data.size(); }
};

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kData:
      return "DATA";
    case FrameType::kLabel:
      return "LABEL";
    case FrameType::kHeartbeat:
      return "HEARTBEAT";
    case FrameType::kBye:
      return "BYE";
    case FrameType::kWelcome:
      return "WELCOME";
    case FrameType::kAck:
      return "ACK";
    case FrameType::kRetry:
      return "RETRY";
    case FrameType::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

bool is_client_frame(FrameType type) {
  switch (type) {
    case FrameType::kHello:
    case FrameType::kData:
    case FrameType::kLabel:
    case FrameType::kHeartbeat:
    case FrameType::kBye:
      return true;
    default:
      return false;
  }
}

bool is_server_frame(FrameType type) {
  switch (type) {
    case FrameType::kWelcome:
    case FrameType::kAck:
    case FrameType::kRetry:
    case FrameType::kError:
      return true;
    default:
      return false;
  }
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_u32(p) ^ crc;
    const std::uint32_t hi = load_u32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

FrameHeader decode_frame_header(const std::uint8_t* data) {
  FrameHeader h;
  h.payload_len = load_u32(data);
  h.version = data[4];
  h.type = data[5];
  h.seq = load_u32(data + 6);
  return h;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t seq, std::span<const std::uint8_t> payload,
                  std::uint8_t version) {
  const std::size_t start = out.size();
  out.resize(start + kHeaderBytes + payload.size() + kCrcBytes);
  std::uint8_t* frame = out.data() + start;
  Writer w(frame);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(seq);
  w.bytes(payload.data(), payload.size());
  w.u32(crc32(std::span<const std::uint8_t>(
      frame + 4, kHeaderBytes - 4 + payload.size())));
}

void append_frame(std::vector<std::uint8_t>& out, const Frame& frame) {
  append_frame(out, frame.type, frame.seq, frame.payload, frame.version);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  append_frame(out, frame);
  return out;
}

std::array<std::uint8_t, 4> ack_payload(const AckPayload& payload) {
  std::array<std::uint8_t, 4> body;
  Writer(body.data()).u32(payload.seq);
  return body;
}

std::array<std::uint8_t, 8> retry_payload(const RetryPayload& payload) {
  std::array<std::uint8_t, 8> body;
  Writer w(body.data());
  w.u32(payload.seq);
  w.u32(payload.retry_after_ticks);
  return body;
}

Frame make_hello(std::uint32_t seq, const HelloPayload& payload) {
  Frame frame =
      sized_frame(FrameType::kHello, seq, string_bytes(payload.source_id) + 4);
  Writer w(frame.payload.data());
  w.string(payload.source_id);
  w.u32(payload.resume_seq);
  return frame;
}

Frame make_data(std::uint32_t seq, std::string_view series_id,
                std::int64_t interval_seconds,
                std::span<const ts::RawPoint> points) {
  Frame frame = sized_frame(FrameType::kData, seq,
                            string_bytes(series_id) + 8 + 4 + 16 * points.size());
  Writer w(frame.payload.data());
  w.string(series_id);
  w.u64(static_cast<std::uint64_t>(interval_seconds));
  w.u32(static_cast<std::uint32_t>(points.size()));
  for (const ts::RawPoint& p : points) {
    w.u64(static_cast<std::uint64_t>(p.timestamp));
    w.u64(std::bit_cast<std::uint64_t>(p.value));
  }
  return frame;
}

Frame make_data(std::uint32_t seq, const DataPayload& payload) {
  return make_data(seq, payload.series_id, payload.interval_seconds,
                   payload.points);
}

Frame make_label(std::uint32_t seq, const LabelPayload& payload) {
  Frame frame = sized_frame(
      FrameType::kLabel, seq,
      string_bytes(payload.series_id) + 8 + 4 + payload.labels.size());
  Writer w(frame.payload.data());
  w.string(payload.series_id);
  w.u64(payload.begin);
  w.u32(static_cast<std::uint32_t>(payload.labels.size()));
  w.bytes(payload.labels.data(), payload.labels.size());
  return frame;
}

Frame make_heartbeat(std::uint32_t seq) {
  return sized_frame(FrameType::kHeartbeat, seq, 0);
}

Frame make_bye(std::uint32_t seq) {
  return sized_frame(FrameType::kBye, seq, 0);
}

Frame make_welcome(const WelcomePayload& payload) {
  Frame frame = sized_frame(FrameType::kWelcome, 0, 4);
  Writer(frame.payload.data()).u32(payload.resume_seq);
  return frame;
}

Frame make_ack(const AckPayload& payload) {
  const auto body = ack_payload(payload);
  Frame frame = sized_frame(FrameType::kAck, 0, 0);
  frame.payload.assign(body.begin(), body.end());
  return frame;
}

Frame make_retry(const RetryPayload& payload) {
  const auto body = retry_payload(payload);
  Frame frame = sized_frame(FrameType::kRetry, 0, 0);
  frame.payload.assign(body.begin(), body.end());
  return frame;
}

Frame make_error(std::string_view message) {
  Frame frame = sized_frame(FrameType::kError, 0, string_bytes(message));
  Writer(frame.payload.data()).string(message);
  return frame;
}

bool decode_hello(const Frame& frame, HelloPayload* out) {
  if (frame.type != FrameType::kHello) return false;
  Reader r{frame.payload};
  HelloPayload p;
  if (!r.string(&p.source_id)) return false;
  p.resume_seq = r.u32();
  if (!r.done()) return false;
  *out = std::move(p);
  return true;
}

bool decode_data(const Frame& frame, DataPayload* out) {
  if (frame.type != FrameType::kData) return false;
  Reader r{frame.payload};
  DataPayload p;
  if (!r.string(&p.series_id)) return false;
  p.interval_seconds = static_cast<std::int64_t>(r.u64());
  const std::uint32_t count = r.u32();
  if (!r.ok) return false;
  // Each point is 16 bytes; reject counts the remaining payload cannot
  // hold before reserving.
  if (r.data.size() - r.pos < static_cast<std::size_t>(count) * 16) {
    return false;
  }
  p.points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ts::RawPoint point;
    point.timestamp = static_cast<std::int64_t>(r.u64());
    point.value = std::bit_cast<double>(r.u64());
    p.points.push_back(point);
  }
  if (!r.done()) return false;
  *out = std::move(p);
  return true;
}

bool decode_label(const Frame& frame, LabelPayload* out) {
  if (frame.type != FrameType::kLabel) return false;
  Reader r{frame.payload};
  LabelPayload p;
  if (!r.string(&p.series_id)) return false;
  p.begin = r.u64();
  const std::uint32_t count = r.u32();
  std::span<const std::uint8_t> raw;
  if (!r.ok || !r.bytes(count, &raw)) return false;
  p.labels.assign(raw.begin(), raw.end());
  if (!r.done()) return false;
  *out = std::move(p);
  return true;
}

bool decode_welcome(const Frame& frame, WelcomePayload* out) {
  if (frame.type != FrameType::kWelcome) return false;
  Reader r{frame.payload};
  WelcomePayload p;
  p.resume_seq = r.u32();
  if (!r.done()) return false;
  *out = p;
  return true;
}

bool decode_ack(const Frame& frame, AckPayload* out) {
  if (frame.type != FrameType::kAck) return false;
  Reader r{frame.payload};
  AckPayload p;
  p.seq = r.u32();
  if (!r.done()) return false;
  *out = p;
  return true;
}

bool decode_retry(const Frame& frame, RetryPayload* out) {
  if (frame.type != FrameType::kRetry) return false;
  Reader r{frame.payload};
  RetryPayload p;
  p.seq = r.u32();
  p.retry_after_ticks = r.u32();
  if (!r.done()) return false;
  *out = p;
  return true;
}

bool decode_error(const Frame& frame, ErrorPayload* out) {
  if (frame.type != FrameType::kError) return false;
  Reader r{frame.payload};
  ErrorPayload p;
  if (!r.string(&p.message)) return false;
  if (!r.done()) return false;
  *out = std::move(p);
  return true;
}

FrameParser::FrameParser(std::size_t max_payload)
    : max_payload_(max_payload) {}

void FrameParser::push_bytes(std::span<const std::uint8_t> bytes) {
  if (dead_) return;
  // Everything parsed: start over at the front, so a connection whose
  // reads end on frame boundaries reuses the same few bytes.
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
  // Compact once the consumed prefix dominates the buffer so a long-lived
  // connection does not grow its buffer without bound.
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

bool FrameParser::next(Frame* out) {
  while (!dead_) {
    const std::size_t avail = buffer_.size() - head_;
    if (avail < kHeaderBytes) return false;
    const FrameHeader h = decode_frame_header(buffer_.data() + head_);
    if (h.payload_len > max_payload_) {
      // The declared length cannot be trusted, so neither can any later
      // length prefix: the stream is unrecoverable.
      dead_ = true;
      return false;
    }
    const std::size_t total = kHeaderBytes + h.payload_len + kCrcBytes;
    if (avail < total) return false;
    const std::uint8_t* base = buffer_.data() + head_;
    const std::uint32_t want = load_u32(base + total - kCrcBytes);
    const std::uint32_t got = crc32(std::span<const std::uint8_t>(
        base + 4, total - 4 - kCrcBytes));
    head_ += total;
    if (got != want) {
      ++corrupt_frames_;
      continue;  // skip; the length prefix already re-synchronized us
    }
    if (h.version != kProtocolVersion) {
      ++bad_version_frames_;
      continue;
    }
    out->version = h.version;
    out->type = static_cast<FrameType>(h.type);
    out->seq = h.seq;
    out->payload.assign(base + kHeaderBytes,
                        base + kHeaderBytes + h.payload_len);
    ++frames_parsed_;
    return true;
  }
  return false;
}

}  // namespace opprentice::net
