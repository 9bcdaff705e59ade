// serve/wire.hpp — the frame codec under friendly and hostile input. The
// roundtrip half pins encode->decode bit-identity for every event kind,
// frame concatenation, and peek_frame routing; the hardening half walks
// every documented rejection (truncation at each byte, oversized varints,
// cap violations, trailing garbage, semantic nonsense like a checkpoint
// index of 0) and checks the error contract: std::invalid_argument with a
// byte-offset context, and `offset` untouched on throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace rdt::serve {
namespace {

std::vector<StreamEvent> sample_events() {
  return {
      StreamEvent::internal(0),
      StreamEvent::send(0, 1, 2),
      StreamEvent::deliver(0, 1, 2),
      StreamEvent::checkpoint(2, 1),
      StreamEvent::send(1, 3, 0),
      StreamEvent::internal(3),
      StreamEvent::deliver(1, 3, 0),
      StreamEvent::checkpoint(0, 1),
  };
}

// encode_frame takes a span, which a braced event list cannot bind to;
// every test routes through this vector-taking wrapper instead.
std::size_t encode_events(SessionId session,
                          const std::vector<StreamEvent>& events,
                          std::vector<std::uint8_t>& out) {
  return encode_frame(session, events, out);
}

std::vector<std::uint8_t> encoded(SessionId session,
                                  const std::vector<StreamEvent>& events) {
  std::vector<std::uint8_t> bytes;
  encode_events(session, events, bytes);
  return bytes;
}

// A section with varied blob sizes (including an empty blob — a legal
// encoding of an empty payload shape) for the two sends of sample_events().
PiggybackSection sample_section() {
  PiggybackSection pb;
  pb.protocol = ProtocolKind::kFdas;
  pb.codec = PiggybackCodecKind::kDelta;
  pb.num_processes = 4;
  pb.sizes = {3, 0};
  pb.bytes = {0xA0, 0xA1, 0xA2};
  return pb;
}

// Hand-assembled frame for hostile-input tests: varint(len) + payload.
// Payloads here stay under 128 bytes, so the length prefix is one byte.
std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 1);
  out.push_back(static_cast<std::uint8_t>(payload.size()));
  for (const std::uint8_t b : payload) out.push_back(b);
  return out;
}

// Decode must throw std::invalid_argument carrying "wire: byte N:" context
// and must leave the caller's offset exactly where it was.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     std::size_t offset = 0) {
  Frame frame;
  std::size_t at = offset;
  try {
    decode_frame(bytes, at, frame);
    FAIL() << "decode_frame accepted malformed input";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("wire: byte ", 0), 0u) << e.what();
  }
  EXPECT_EQ(at, offset) << "offset must be untouched on throw";
}

TEST(Wire, RoundtripsEveryEventKind) {
  const std::vector<StreamEvent> events = sample_events();
  const std::vector<std::uint8_t> bytes = encoded(7, events);

  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(frame.session, 7u);
  EXPECT_EQ(frame.events, events);
}

TEST(Wire, RoundtripsEmptyBatch) {
  const std::vector<std::uint8_t> bytes = encoded(1, {});
  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(frame.session, 1u);
  EXPECT_TRUE(frame.events.empty());
}

TEST(Wire, SmallEventsAreCompact) {
  // The layout promise from the header comment: an internal event of a
  // small process id is one byte, a send in a small session is three.
  EXPECT_EQ(encoded(1, {StreamEvent::internal(5)}).size(),
            1u /*len*/ + 1u /*session*/ + 1u /*count*/ + 1u);
  EXPECT_EQ(encoded(1, {StreamEvent::send(9, 3, 6)}).size(),
            1u + 1u + 1u + 3u);
}

TEST(Wire, RoundtripsLargeIds) {
  const std::vector<StreamEvent> events = {
      StreamEvent::send(kMaxWireIndex - 1, kMaxWireProcesses - 1, 0),
      StreamEvent::deliver(kMaxWireIndex - 1, kMaxWireProcesses - 1, 0),
      StreamEvent::checkpoint(kMaxWireProcesses - 1, kMaxWireIndex - 1),
  };
  const SessionId session = ~std::uint64_t{0};  // full 64-bit id
  const std::vector<std::uint8_t> bytes = encoded(session, events);
  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(frame.session, session);
  EXPECT_EQ(frame.events, events);
}

TEST(Wire, DecodesConcatenatedFrames) {
  const std::vector<StreamEvent> a = sample_events();
  const std::vector<StreamEvent> b = {StreamEvent::internal(1)};
  std::vector<std::uint8_t> bytes;
  encode_frame(10, a, bytes);
  const std::size_t first_end = bytes.size();
  encode_frame(11, b, bytes);
  encode_frame(12, {}, bytes);

  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(offset, first_end);
  EXPECT_EQ(frame.session, 10u);
  EXPECT_EQ(frame.events, a);
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(frame.session, 11u);
  EXPECT_EQ(frame.events, b);  // the reused Frame must not keep old events
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(frame.session, 12u);
  EXPECT_TRUE(frame.events.empty());
  EXPECT_EQ(offset, bytes.size());
}

TEST(Wire, PeekReadsEnvelopeWithoutPayload) {
  std::vector<std::uint8_t> bytes;
  encode_frame(42, sample_events(), bytes);
  const std::size_t first_end = bytes.size();
  encode_events(43, {StreamEvent::internal(0)}, bytes);

  const FrameHeader first = peek_frame(bytes, 0);
  EXPECT_EQ(first.session, 42u);
  EXPECT_EQ(first.frame_end, first_end);
  const FrameHeader second = peek_frame(bytes, first.frame_end);
  EXPECT_EQ(second.session, 43u);
  EXPECT_EQ(second.frame_end, bytes.size());
}

TEST(Wire, EncodeAppendsAndReportsLength) {
  std::vector<std::uint8_t> bytes = {0xAB, 0xCD};  // pre-existing content
  const std::size_t appended =
      encode_events(5, {StreamEvent::internal(1)}, bytes);
  EXPECT_EQ(bytes.size(), 2u + appended);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
  Frame frame;
  std::size_t offset = 2;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(frame.session, 5u);
}

TEST(Wire, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes = encoded(300, sample_events());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    expect_rejected({bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)});
  }
}

TEST(Wire, RejectsOversizedVarint) {
  // Eleven continuation bytes: a varint that runs past its 10-byte maximum.
  std::vector<std::uint8_t> bytes(11, 0x80);
  expect_rejected(bytes);
  EXPECT_THROW(peek_frame(bytes, 0), std::invalid_argument);
}

TEST(Wire, RejectsVarint64BitOverflow) {
  // Ten bytes whose final byte sets value bits above bit 63.
  std::vector<std::uint8_t> bytes(9, 0x80);
  bytes.push_back(0x02);
  expect_rejected(bytes);
}

TEST(Wire, RejectsOverlongVarints) {
  // The canonical frame {len 2, session 1, count 0} decodes...
  const std::vector<std::uint8_t> canonical = {0x02, 0x01, 0x00};
  Frame frame;
  std::size_t at = 0;
  decode_frame(canonical, at, frame);
  EXPECT_EQ(frame.session, 1u);
  // ...but not with its frame length spelled `82 00`...
  expect_rejected({0x82, 0x00, 0x01, 0x00});
  // ...nor with its session id spelled `81 00` (length patched to 3).
  expect_rejected({0x03, 0x81, 0x00, 0x00});
  // An overlong event header inside an otherwise valid frame.
  expect_rejected({0x04, 0x01, 0x01, 0x80, 0x00});
  // peek_frame reads the same envelope and rejects it the same way.
  EXPECT_THROW(peek_frame(std::vector<std::uint8_t>{0x82, 0x00, 0x01, 0x00}, 0),
               std::invalid_argument);
}

TEST(Wire, RejectsPayloadOverCap) {
  std::vector<std::uint8_t> bytes;
  // varint(kMaxFramePayload + 1) as a bare length prefix.
  std::uint64_t v = kMaxFramePayload + 1;
  while (v >= 0x80) {
    bytes.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  bytes.push_back(static_cast<std::uint8_t>(v));
  expect_rejected(bytes);
}

TEST(Wire, RejectsLengthRunningPastInput) {
  // A frame claiming 100 payload bytes with only a handful present.
  std::vector<std::uint8_t> bytes = {100, 1, 0};
  expect_rejected(bytes);
  EXPECT_THROW(peek_frame(bytes, 0), std::invalid_argument);
}

TEST(Wire, RejectsEventCountBeyondPayload) {
  // payload = session(1 byte) + count(2 bytes): count 200 > 0 bytes left.
  std::vector<std::uint8_t> bytes = {3, 1, 0xC8, 0x01};
  expect_rejected(bytes);
}

TEST(Wire, RejectsTrailingPayloadGarbage) {
  std::vector<std::uint8_t> bytes = encoded(1, {StreamEvent::internal(0)});
  // Grow the payload by one byte and patch the length prefix (still a
  // 1-byte varint): one byte of slack after the last event.
  bytes.push_back(0x00);
  bytes[0] = static_cast<std::uint8_t>(bytes[0] + 1);
  expect_rejected(bytes);
}

TEST(Wire, RejectsCheckpointIndexZero) {
  // Index 0 names the implicit initial checkpoint — never on the wire.
  // payload: session=1, count=1, header=(0<<2)|3, index=0.
  const std::vector<std::uint8_t> bytes = {4, 1, 1, 3, 0};
  expect_rejected(bytes);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(
      encode_events(1, {{EventKind::kCheckpoint, 0, -1, kNoMsg, 0}}, out),
      std::invalid_argument);
}

TEST(Wire, RejectsPeerEqualToProcess) {
  // send from process 1 to process 1: header=(1<<2)|1, msg=0, peer=1.
  const std::vector<std::uint8_t> bytes = {5, 1, 1, 5, 0, 1};
  expect_rejected(bytes);
}

TEST(Wire, RejectsProcessIdOverCap) {
  // Event header carrying process id kMaxWireProcesses.
  std::vector<std::uint8_t> payload = {1, 1};  // session, count
  std::uint64_t header = (static_cast<std::uint64_t>(kMaxWireProcesses) << 2);
  while (header >= 0x80) {
    payload.push_back(static_cast<std::uint8_t>(header) | 0x80u);
    header >>= 7;
  }
  payload.push_back(static_cast<std::uint8_t>(header));
  std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(payload.size())};
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  expect_rejected(bytes);
}

TEST(Wire, RejectsEmptyInput) {
  expect_rejected({});
  const std::vector<std::uint8_t> frame = encoded(1, {});
  expect_rejected(frame, frame.size());  // offset already at the end
}

TEST(Wire, EncodeValidatesEvents) {
  std::vector<std::uint8_t> out;
  // Negative process id.
  EXPECT_THROW(encode_events(1, {{EventKind::kInternal, -1, -1, kNoMsg, -1}}, out),
               std::invalid_argument);
  // Send to self.
  EXPECT_THROW(encode_events(1, {StreamEvent::send(0, 2, 2)}, out),
               std::invalid_argument);
  // Negative message id on a send.
  EXPECT_THROW(encode_events(1, {{EventKind::kSend, 0, 1, kNoMsg, -1}}, out),
               std::invalid_argument);
  // Message id over the wire cap.
  EXPECT_THROW(encode_events(1, {StreamEvent::send(kMaxWireIndex, 0, 1)}, out),
               std::invalid_argument);
  // A throwing encode must not leave a half-written frame behind.
  out.clear();
  encode_events(1, {StreamEvent::internal(0)}, out);
  const std::size_t good = out.size();
  EXPECT_THROW(encode_events(1, {StreamEvent::send(0, 3, 3)}, out),
               std::invalid_argument);
  out.resize(good);  // callers truncate to the last good frame on failure
  std::size_t offset = 0;
  Frame frame;
  decode_frame(out, offset, frame);
  EXPECT_EQ(offset, good);
}

TEST(WirePiggyback, RoundtripsSection) {
  const std::vector<StreamEvent> events = sample_events();
  const PiggybackSection pb = sample_section();
  std::vector<std::uint8_t> bytes;
  const std::size_t appended = encode_frame(77, events, pb, bytes);
  EXPECT_EQ(appended, bytes.size());
  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(frame.session, 77u);
  ASSERT_EQ(frame.events.size(), events.size());
  EXPECT_TRUE(frame.has_piggyback);
  EXPECT_EQ(frame.piggyback.protocol, pb.protocol);
  EXPECT_EQ(frame.piggyback.codec, pb.codec);
  EXPECT_EQ(frame.piggyback.num_processes, pb.num_processes);
  EXPECT_EQ(frame.piggyback.sizes, pb.sizes);
  EXPECT_EQ(frame.piggyback.bytes, pb.bytes);
  // A sectionless frame decoded into the same Frame clears the flag.
  bytes.clear();
  encode_events(77, events, bytes);
  offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_FALSE(frame.has_piggyback);
}

TEST(WirePiggyback, RoundtripsSendlessSection) {
  // Zero sends means zero blobs: the section is just its three-id header.
  const std::vector<StreamEvent> events = {StreamEvent::internal(0),
                                           StreamEvent::checkpoint(1, 1)};
  PiggybackSection pb;
  pb.protocol = ProtocolKind::kBcs;
  pb.codec = PiggybackCodecKind::kSparse;
  pb.num_processes = 2;
  std::vector<std::uint8_t> bytes;
  encode_frame(9, events, pb, bytes);
  Frame frame;
  std::size_t offset = 0;
  decode_frame(bytes, offset, frame);
  EXPECT_TRUE(frame.has_piggyback);
  EXPECT_EQ(frame.piggyback.protocol, ProtocolKind::kBcs);
  EXPECT_TRUE(frame.piggyback.sizes.empty());
  EXPECT_TRUE(frame.piggyback.bytes.empty());
}

TEST(WirePiggyback, RejectsEveryTruncation) {
  std::vector<std::uint8_t> bytes;
  encode_frame(300, sample_events(), sample_section(), bytes);
  const std::size_t prefix = 1;  // the frame stays under 128 payload bytes
  ASSERT_LT(bytes.size() - prefix, 0x80u);
  // A payload cut at the event/section boundary is a *legal* sectionless
  // frame (the section is optional); every other cut must be rejected.
  std::vector<std::uint8_t> sectionless;
  encode_events(300, sample_events(), sectionless);
  const std::size_t boundary = sectionless.size() - prefix;
  for (std::size_t len = 0; len + 1 < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    // Envelope-level cut: the length prefix now overruns the input.
    expect_rejected(std::vector<std::uint8_t>(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    // Payload-level cut: a re-stamped prefix makes the truncation land
    // inside the frame grammar (events or piggyback section).
    if (len >= prefix && len - prefix != boundary)
      expect_rejected(raw_frame(std::vector<std::uint8_t>(
          bytes.begin() + static_cast<std::ptrdiff_t>(prefix),
          bytes.begin() + static_cast<std::ptrdiff_t>(len))));
  }
}

TEST(WirePiggyback, RejectsBadSectionIds) {
  // payload := session(7) count(1) send(p=0,msg=0,peer=1) then a section.
  const std::vector<std::uint8_t> head = {7, 1, 0x01, 0, 1};
  auto with_section = [&](std::vector<std::uint8_t> section) {
    std::vector<std::uint8_t> payload = head;
    for (const std::uint8_t b : section) payload.push_back(b);
    return raw_frame(payload);
  };
  // Protocol id past the registered kinds.
  expect_rejected(with_section({99, 0, 2, 0}));
  // Codec id past the known codecs.
  expect_rejected(with_section({5, 7, 2, 0}));
  // Process count zero / beyond the codec cap (1 << 10).
  expect_rejected(with_section({5, 1, 0, 0}));
  expect_rejected(with_section({5, 1, 0x81, 0x08, 0}));  // varint 1025
  // Valid header decodes (blob contents are opaque at this layer).
  Frame frame;
  std::size_t at = 0;
  decode_frame(with_section({5, 1, 2, 0}), at, frame);
  EXPECT_TRUE(frame.has_piggyback);
  EXPECT_EQ(frame.piggyback.protocol, ProtocolKind::kFdas);
  EXPECT_EQ(frame.piggyback.codec, PiggybackCodecKind::kDelta);
}

TEST(WirePiggyback, RejectsBlobOverrunAndTrailingGarbage) {
  const std::vector<std::uint8_t> head = {7, 1, 0x01, 0, 1};
  auto with_section = [&](std::vector<std::uint8_t> section) {
    std::vector<std::uint8_t> payload = head;
    for (const std::uint8_t b : section) payload.push_back(b);
    return raw_frame(payload);
  };
  // Blob length claims 9 bytes; only 2 remain in the payload.
  expect_rejected(with_section({5, 1, 2, 9, 0xAA, 0xBB}));
  // Bytes left over after the last send's blob.
  expect_rejected(with_section({5, 1, 2, 1, 0xAA, 0xBB}));
  // A section header with no blob at all for the frame's one send: the
  // missing blob length reads as truncation.
  expect_rejected(with_section({5, 1, 2}));
}

TEST(WirePiggyback, EncodeValidatesSection) {
  const std::vector<StreamEvent> events = sample_events();  // two sends
  std::vector<std::uint8_t> out;
  PiggybackSection pb = sample_section();
  pb.sizes = {3};  // one blob for two sends
  EXPECT_THROW(encode_frame(1, events, pb, out), std::invalid_argument);
  pb = sample_section();
  pb.sizes = {2, 0};  // sizes sum (2) disagrees with bytes.size() (3)
  EXPECT_THROW(encode_frame(1, events, pb, out), std::invalid_argument);
  pb = sample_section();
  pb.num_processes = 0;
  EXPECT_THROW(encode_frame(1, events, pb, out), std::invalid_argument);
  pb = sample_section();
  pb.num_processes = kMaxCodecProcesses + 1;
  EXPECT_THROW(encode_frame(1, events, pb, out), std::invalid_argument);
}

TEST(Wire, ErrorsCarryByteOffsets) {
  // The offset in the message must point at the faulty byte, not byte 0:
  // corrupt the checkpoint index (last byte) of a known-good frame.
  std::vector<std::uint8_t> bytes = encoded(1, {StreamEvent::checkpoint(0, 1)});
  const std::size_t index_at = bytes.size() - 1;
  bytes[index_at] = 0;  // checkpoint index 0
  try {
    Frame frame;
    std::size_t offset = 0;
    decode_frame(bytes, offset, frame);
    FAIL() << "corrupted frame decoded";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "wire: byte " + std::to_string(index_at), 0),
              0u)
        << e.what();
  }
}

}  // namespace
}  // namespace rdt::serve
