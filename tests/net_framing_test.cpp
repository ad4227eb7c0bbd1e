// Wire protocol unit tests (src/net/framing.*, DESIGN.md §5k): header
// and payload encode/decode round trips, incremental parsing across
// arbitrary byte boundaries, CRC/version rejection with length-prefix
// resynchronization, and the oversize-payload poison path.
//
// ctest label: net.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "net/framing.hpp"
#include "net/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;

std::vector<std::uint8_t> concat(
    const std::vector<std::vector<std::uint8_t>>& parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

TEST(Framing, HeaderRoundTrip) {
  const net::Frame frame = net::make_heartbeat(42);
  const std::vector<std::uint8_t> wire = net::encode_frame(frame);
  ASSERT_GE(wire.size(), net::kHeaderBytes + net::kCrcBytes);
  const net::FrameHeader header = net::decode_frame_header(wire.data());
  EXPECT_EQ(header.payload_len, 0u);
  EXPECT_EQ(header.version, net::kProtocolVersion);
  EXPECT_EQ(header.type, static_cast<std::uint8_t>(net::FrameType::kHeartbeat));
  EXPECT_EQ(header.seq, 42u);
}

TEST(Framing, HelloRoundTrip) {
  const net::Frame frame =
      net::make_hello(0, net::HelloPayload{"edge-agent-7", 31});
  net::HelloPayload out;
  ASSERT_TRUE(net::decode_hello(frame, &out));
  EXPECT_EQ(out.source_id, "edge-agent-7");
  EXPECT_EQ(out.resume_seq, 31u);
}

TEST(Framing, DataRoundTripPreservesPointsExactly) {
  net::DataPayload in;
  in.series_id = "pv-3";
  in.interval_seconds = 600;
  in.points = {{1700000000, 1.5},
               {1700000600, -0.25},
               {1700001200, 1e308},
               {-600, 0.0}};
  const net::Frame frame = net::make_data(9, in);
  EXPECT_EQ(frame.seq, 9u);
  net::DataPayload out;
  ASSERT_TRUE(net::decode_data(frame, &out));
  EXPECT_EQ(out.series_id, in.series_id);
  EXPECT_EQ(out.interval_seconds, in.interval_seconds);
  ASSERT_EQ(out.points.size(), in.points.size());
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    EXPECT_EQ(out.points[i].timestamp, in.points[i].timestamp);
    EXPECT_EQ(out.points[i].value, in.points[i].value);  // bit-exact
  }
}

TEST(Framing, LabelAndControlRoundTrips) {
  net::LabelPayload label_in;
  label_in.series_id = "pv-3";
  label_in.begin = 1024;
  label_in.labels = {0, 1, 1, 0, 1};
  net::LabelPayload label_out;
  ASSERT_TRUE(net::decode_label(net::make_label(4, label_in), &label_out));
  EXPECT_EQ(label_out.series_id, "pv-3");
  EXPECT_EQ(label_out.begin, 1024u);
  EXPECT_EQ(label_out.labels, label_in.labels);

  net::WelcomePayload welcome;
  ASSERT_TRUE(net::decode_welcome(
      net::make_welcome(net::WelcomePayload{17}), &welcome));
  EXPECT_EQ(welcome.resume_seq, 17u);

  net::AckPayload ack;
  ASSERT_TRUE(net::decode_ack(net::make_ack(net::AckPayload{8}), &ack));
  EXPECT_EQ(ack.seq, 8u);

  net::RetryPayload retry;
  ASSERT_TRUE(net::decode_retry(
      net::make_retry(net::RetryPayload{8, 3}), &retry));
  EXPECT_EQ(retry.seq, 8u);
  EXPECT_EQ(retry.retry_after_ticks, 3u);

  net::ErrorPayload error;
  ASSERT_TRUE(net::decode_error(net::make_error("too fast"), &error));
  EXPECT_EQ(error.message, "too fast");
}

TEST(Framing, DecodeRejectsTruncatedPayload) {
  net::Frame frame = net::make_data(
      1, net::DataPayload{"s", 60, {{1700000000, 1.0}, {1700000060, 2.0}}});
  frame.payload.pop_back();  // cut the last value byte
  net::DataPayload out;
  EXPECT_FALSE(net::decode_data(frame, &out));
}

TEST(Framing, DecodeRejectsTrailingGarbage) {
  net::Frame frame = net::make_ack(net::AckPayload{5});
  frame.payload.push_back(0xFF);
  net::AckPayload out;
  EXPECT_FALSE(net::decode_ack(frame, &out));
}

TEST(Framing, DecodeRejectsWrongFrameType) {
  net::HelloPayload out;
  EXPECT_FALSE(net::decode_hello(net::make_heartbeat(1), &out));
}

TEST(Framing, ParserExtractsConcatenatedFrames) {
  const auto wire = concat({
      net::encode_frame(net::make_hello(0, net::HelloPayload{"a", 0})),
      net::encode_frame(net::make_heartbeat(1)),
      net::encode_frame(net::make_bye(2)),
  });
  net::FrameParser parser;
  parser.push_bytes(wire);
  net::Frame frame;
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.type, net::FrameType::kHello);
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.type, net::FrameType::kHeartbeat);
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.type, net::FrameType::kBye);
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_EQ(parser.frames_parsed(), 3u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_FALSE(parser.dead());
}

TEST(Framing, ParserHandlesSingleByteArrival) {
  const net::Frame original = net::make_data(
      7, net::DataPayload{"pv", 600, {{1700000000, 3.25}}});
  const std::vector<std::uint8_t> wire = net::encode_frame(original);
  net::FrameParser parser;
  net::Frame out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.push_bytes({&wire[i], 1});
    ASSERT_FALSE(parser.next(&out)) << "frame completed early at byte " << i;
  }
  parser.push_bytes({&wire.back(), 1});
  ASSERT_TRUE(parser.next(&out));
  EXPECT_EQ(out.seq, 7u);
  net::DataPayload data;
  ASSERT_TRUE(net::decode_data(out, &data));
  EXPECT_EQ(data.points.size(), 1u);
}

TEST(Framing, CorruptFrameIsSkippedAndStreamResynchronizes) {
  std::vector<std::uint8_t> corrupted =
      net::encode_frame(net::make_heartbeat(2));
  net::corrupt_frame_bytes(corrupted, 0xBEEF);
  const auto wire = concat({
      net::encode_frame(net::make_heartbeat(1)),
      corrupted,
      net::encode_frame(net::make_heartbeat(3)),
  });
  net::FrameParser parser;
  parser.push_bytes(wire);
  net::Frame frame;
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.seq, 1u);
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.seq, 3u);  // seq 2 skipped, not desynced
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_EQ(parser.corrupt_frames(), 1u);
  EXPECT_FALSE(parser.dead());
}

TEST(Framing, CorruptionNeverTouchesTheLengthPrefix) {
  for (std::uint64_t key = 0; key < 64; ++key) {
    std::vector<std::uint8_t> wire =
        net::encode_frame(net::make_heartbeat(static_cast<std::uint32_t>(key)));
    const std::vector<std::uint8_t> before(wire.begin(), wire.begin() + 4);
    net::corrupt_frame_bytes(wire, key);
    EXPECT_TRUE(std::equal(before.begin(), before.end(), wire.begin()))
        << "length prefix flipped for key " << key;
  }
}

TEST(Framing, UnknownVersionIsSkippedAndCounted) {
  net::Frame odd = net::make_heartbeat(5);
  odd.version = 99;
  const auto wire = concat({
      net::encode_frame(odd),
      net::encode_frame(net::make_heartbeat(6)),
  });
  net::FrameParser parser;
  parser.push_bytes(wire);
  net::Frame frame;
  ASSERT_TRUE(parser.next(&frame));
  EXPECT_EQ(frame.seq, 6u);
  EXPECT_EQ(parser.bad_version_frames(), 1u);
}

TEST(Framing, OversizePayloadKillsTheParser) {
  // Hand-build a header announcing a payload beyond the cap; the parser
  // must refuse to resynchronize (a hostile or broken peer).
  std::vector<std::uint8_t> wire(net::kHeaderBytes, 0);
  const std::uint32_t huge =
      static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1;
  wire[0] = static_cast<std::uint8_t>(huge & 0xFFu);
  wire[1] = static_cast<std::uint8_t>((huge >> 8) & 0xFFu);
  wire[2] = static_cast<std::uint8_t>((huge >> 16) & 0xFFu);
  wire[3] = static_cast<std::uint8_t>((huge >> 24) & 0xFFu);
  wire[4] = net::kProtocolVersion;
  wire[5] = static_cast<std::uint8_t>(net::FrameType::kData);
  net::FrameParser parser;
  parser.push_bytes(wire);
  net::Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_TRUE(parser.dead());
  // A dead parser stays dead even when more (valid) bytes arrive.
  parser.push_bytes(net::encode_frame(net::make_heartbeat(1)));
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_TRUE(parser.dead());
}

TEST(Framing, TypePredicatesPartitionTheProtocol) {
  const net::FrameType client[] = {
      net::FrameType::kHello, net::FrameType::kData, net::FrameType::kLabel,
      net::FrameType::kHeartbeat, net::FrameType::kBye};
  const net::FrameType server[] = {
      net::FrameType::kWelcome, net::FrameType::kAck, net::FrameType::kRetry,
      net::FrameType::kError};
  for (const auto t : client) {
    EXPECT_TRUE(net::is_client_frame(t)) << net::to_string(t);
    EXPECT_FALSE(net::is_server_frame(t)) << net::to_string(t);
  }
  for (const auto t : server) {
    EXPECT_TRUE(net::is_server_frame(t)) << net::to_string(t);
    EXPECT_FALSE(net::is_client_frame(t)) << net::to_string(t);
  }
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

// One frame of each type with fixed payloads, against the bytes the
// encoder wrote before it was rewritten: the wire format is the
// protocol, and an encoder change may not move a single byte.
TEST(Framing, GoldenBytesForEveryFrameType) {
  net::DataPayload data;
  data.series_id = "pv-3";
  data.interval_seconds = 600;
  data.points = {{1700000000, 1.5},
                 {1700000600, -0.25},
                 {-600, std::numeric_limits<double>::infinity()}};
  const struct {
    net::Frame frame;
    const char* hex;
  } cases[] = {
      {net::make_hello(0, net::HelloPayload{"edge-7", 3}),
       "0e00000001010000000006000000656467652d3703000000c963f5ca"},
      {net::make_data(9, data),
       "440000000102090000000400000070762d335802000000000000030000"
       "0000f1536500000000000000000000f83f58f353650000000000000000"
       "0000d0bfa8fdffffffffffff000000000000f07fc0a6b4bb"},
      {net::make_label(10, net::LabelPayload{"pv-3", 144, {0, 1, 1, 0}}),
       "1800000001030a0000000400000070762d339000000000000000040000"
       "00000101007fcab236"},
      {net::make_heartbeat(11), "0000000001040b000000c7531f58"},
      {net::make_bye(12), "0000000001050c000000ce42a8f8"},
      {net::make_welcome(net::WelcomePayload{7}),
       "0400000001810000000007000000fd2fb1e0"},
      {net::make_ack(net::AckPayload{9}),
       "04000000018200000000090000000b64e339"},
      {net::make_retry(net::RetryPayload{9, 2}),
       "080000000183000000000900000002000000c80252e4"},
      {net::make_error("malformed DATA"),
       "120000000184000000000e0000006d616c666f726d65642044415441236e25c9"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(to_hex(net::encode_frame(c.frame)), c.hex)
        << net::to_string(c.frame.type);
  }
  // The server writes ACK and RETRY from stack payloads through the same
  // encoder, after bytes already in the buffer.
  std::vector<std::uint8_t> out = {0xAA};
  net::append_frame(out, net::FrameType::kAck, 0,
                    net::ack_payload(net::AckPayload{9}));
  net::append_frame(out, net::FrameType::kRetry, 0,
                    net::retry_payload(net::RetryPayload{9, 2}));
  EXPECT_EQ(to_hex(out), std::string("aa") + cases[6].hex + cases[7].hex);
}

TEST(Framing, Crc32MatchesKnownVector) {
  // CRC-32 (IEEE) of "123456789" is the classic check value 0xCBF43926.
  const std::string check = "123456789";
  const std::uint32_t crc = net::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

// The byte-at-a-time table loop crc32 ran before slicing-by-8.
std::uint32_t crc32_byte_loop(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Every length 0-300 at every start offset 0-7, so the eight-byte steps
// meet every alignment and every tail length.
TEST(Framing, Crc32SlicingEqualsByteLoop) {
  util::Rng rng(34);
  for (int buffer = 0; buffer < 4; ++buffer) {
    std::vector<std::uint8_t> bytes(308);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t length = 0; length <= 300; ++length) {
        const std::span<const std::uint8_t> span(bytes.data() + offset,
                                                 length);
        ASSERT_EQ(net::crc32(span), crc32_byte_loop(span))
            << "offset " << offset << " length " << length;
      }
    }
  }
}

}  // namespace
