// PiggybackCodec — the wire encodings behind the replay engine's measured
// piggyback bits and the serving pool's ingest. Per-kind roundtrips,
// cross-kind size ordering, the delta codec's shadow discipline, and the
// hardened-decoder rejection contract (std::invalid_argument with the
// caller's offset AND the channel shadows untouched).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/codec.hpp"
#include "protocols/payload.hpp"
#include "protocol_net.hpp"
#include "util/check.hpp"

namespace rdt {
namespace {

constexpr PayloadShape kFullShape{.tdv = true, .simple = true, .causal = true,
                                  .index = true};

// Zeroed payload slots for one test: slot 0 is what it sends, slot 1 what
// it decodes into.
PayloadArena slots(int n, PayloadShape shape = kFullShape) {
  return test::payload_slots(n, shape, 2);
}

// A representative non-trivial payload: staggered TDV, a couple of simple
// bits, an asymmetric causal matrix, a scalar index.
PiggybackView sample_payload(PayloadArena& arena, int n) {
  const PiggybackSlot pb = arena.slot(0);
  for (int k = 0; k < n; ++k) pb.tdv[static_cast<std::size_t>(k)] = 3 * k + 1;
  pb.simple.set(0);
  pb.simple.set(static_cast<std::size_t>(n) - 1);
  for (int r = 0; r < n; ++r) pb.causal.set(static_cast<std::size_t>(r), 0);
  pb.causal.set(1, static_cast<std::size_t>(n) - 1);
  *pb.index = 41;
  return arena.view(0);
}

bool payloads_equal(const PiggybackView& a, const PiggybackView& b) {
  if (!std::ranges::equal(a.tdv, b.tdv) || a.index != b.index ||
      a.simple.size() != b.simple.size() || a.causal.rows() != b.causal.rows())
    return false;
  for (std::size_t i = 0; i < a.simple.size(); ++i)
    if (a.simple.get(i) != b.simple.get(i)) return false;
  for (std::size_t r = 0; r < a.causal.rows(); ++r)
    for (std::size_t c = 0; c < a.causal.cols(); ++c)
      if (a.causal.get(r, c) != b.causal.get(r, c)) return false;
  return true;
}

class PiggybackCodecRoundtrip
    : public ::testing::TestWithParam<PiggybackCodecKind> {};

TEST_P(PiggybackCodecRoundtrip, FullShapeRoundtrips) {
  const int n = 5;
  PiggybackCodec codec(GetParam(), n, kFullShape);
  PayloadArena arena = slots(n);
  const PiggybackView sent = sample_payload(arena, n);
  std::vector<std::uint8_t> wire;
  const std::size_t len = codec.encode(0, 1, sent, wire);
  EXPECT_EQ(len, wire.size());
  EXPECT_LE(len, codec.max_encoded_bytes());

  std::size_t offset = 0;
  codec.decode(0, 1, wire, offset, arena.slot(1));
  EXPECT_EQ(offset, wire.size());
  EXPECT_TRUE(payloads_equal(sent, arena.view(1)));
}

TEST_P(PiggybackCodecRoundtrip, SingleProcessRoundtrips) {
  PiggybackCodec codec(GetParam(), 1, kFullShape);
  PayloadArena arena = slots(1);
  arena.slot(0).tdv[0] = 7;
  *arena.slot(0).index = 7;
  std::vector<std::uint8_t> wire;
  codec.encode(0, 0, arena.view(0), wire);
  std::size_t offset = 0;
  codec.decode(0, 0, wire, offset, arena.slot(1));
  EXPECT_EQ(offset, wire.size());
  EXPECT_TRUE(payloads_equal(arena.view(0), arena.view(1)));
}

TEST_P(PiggybackCodecRoundtrip, EmptyShapeEncodesNothing) {
  PiggybackCodec codec(GetParam(), 4, PayloadShape{});
  std::vector<std::uint8_t> wire;
  EXPECT_EQ(codec.encode(2, 3, PiggybackView{}, wire), 0u);  // no planes
  EXPECT_TRUE(wire.empty());
  std::size_t offset = 0;
  codec.decode(2, 3, wire, offset, PiggybackSlot{});
  EXPECT_EQ(offset, 0u);
}

// A dense payload (every bit set, large indexes) survives every codec —
// the sparse encodings must not assume sparsity.
TEST_P(PiggybackCodecRoundtrip, DensePayloadRoundtrips) {
  const int n = 9;  // crosses a byte boundary in the bit planes
  PiggybackCodec codec(GetParam(), n, kFullShape);
  PayloadArena arena = slots(n);
  const PiggybackSlot pb = arena.slot(0);
  for (int k = 0; k < n; ++k)
    pb.tdv[static_cast<std::size_t>(k)] = kMaxPiggybackIndex - 1;
  for (int i = 0; i < n; ++i) pb.simple.set(static_cast<std::size_t>(i));
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      pb.causal.set(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  *pb.index = kMaxPiggybackIndex - 1;
  std::vector<std::uint8_t> wire;
  codec.encode(0, 1, arena.view(0), wire);
  std::size_t offset = 0;
  codec.decode(0, 1, wire, offset, arena.slot(1));
  EXPECT_EQ(offset, wire.size());
  EXPECT_TRUE(payloads_equal(arena.view(0), arena.view(1)));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PiggybackCodecRoundtrip,
                         ::testing::Values(PiggybackCodecKind::kFlat,
                                           PiggybackCodecKind::kDelta,
                                           PiggybackCodecKind::kSparse),
                         [](const auto& param) {
                           return std::string(to_cstring(param.param));
                         });

TEST(PiggybackCodecIds, RoundTrip) {
  for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
    const auto kind = static_cast<PiggybackCodecKind>(c);
    const auto back = codec_from_string(to_cstring(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(codec_from_string("nope").has_value());
}

TEST(PiggybackCodecReset, ValidatesGeometry) {
  PiggybackCodec codec;
  EXPECT_THROW(codec.reset(PiggybackCodecKind::kFlat, 0, kFullShape),
               std::invalid_argument);
  EXPECT_THROW(
      codec.reset(PiggybackCodecKind::kFlat, kMaxCodecProcesses + 1,
                  kFullShape),
      std::invalid_argument);
  // The delta codec's n^2 shadow blocks are capped much tighter.
  EXPECT_THROW(
      codec.reset(PiggybackCodecKind::kDelta, kMaxDeltaProcesses + 1,
                  kFullShape),
      std::invalid_argument);
  EXPECT_NO_THROW(
      codec.reset(PiggybackCodecKind::kDelta, kMaxDeltaProcesses, kFullShape));
  // Using a never-reset codec is a caller bug, reported as such.
  PiggybackCodec fresh;
  std::vector<std::uint8_t> wire;
  EXPECT_THROW(fresh.encode(0, 0, PiggybackView{}, wire),
               std::invalid_argument);
}

TEST(PiggybackCodecReset, SlotShapeMismatchIsContractViolation) {
  PiggybackCodec codec(PiggybackCodecKind::kFlat, 4, kFullShape);
  PayloadArena wrong = slots(3);  // planes sized for n=3
  std::vector<std::uint8_t> wire;
  EXPECT_THROW(codec.encode(0, 1, wrong.view(0), wire), contract_violation);
  std::size_t offset = 0;
  EXPECT_THROW(codec.decode(0, 1, wire, offset, wrong.slot(0)),
               contract_violation);
}

// The flat layout is exact: n x 4-byte TDV + ceil(n/8) simple + n causal
// rows + 4-byte index.
TEST(PiggybackCodecFlat, ByteLayoutIsExact) {
  const int n = 5;
  PiggybackCodec codec(PiggybackCodecKind::kFlat, n, kFullShape);
  PayloadArena arena = slots(n);
  std::vector<std::uint8_t> wire;
  const std::size_t len = codec.encode(0, 1, sample_payload(arena, n), wire);
  EXPECT_EQ(len, 5u * 4u + 1u + 5u * 1u + 4u);
  // tdv[0] = 1, little-endian.
  EXPECT_EQ(wire[0], 1u);
  EXPECT_EQ(wire[1], 0u);
}

// Delta encodes only what changed: an identical payload on the same
// channel costs three empty masks and a zero index delta, and the decoder
// reproduces it from its shadow alone.
TEST(PiggybackCodecDelta, UnchangedPayloadCollapses) {
  const int n = 6;
  PiggybackCodec codec(PiggybackCodecKind::kDelta, n, kFullShape);
  PayloadArena arena = slots(n);
  const PiggybackView pb = sample_payload(arena, n);
  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second;
  codec.encode(2, 4, pb, first);
  const std::size_t len = codec.encode(2, 4, pb, second);
  EXPECT_EQ(len, 4u);  // tdv, flip and row masks 0, index delta 0
  EXPECT_LT(second.size(), first.size());

  std::size_t offset = 0;
  codec.decode(2, 4, first, offset, arena.slot(1));
  offset = 0;
  codec.decode(2, 4, second, offset, arena.slot(1));
  EXPECT_EQ(offset, second.size());
  EXPECT_TRUE(payloads_equal(pb, arena.view(1)));
}

// Channels are independent: the same payload on a fresh channel re-encodes
// in full, and decoding it does not disturb the first channel's shadow.
TEST(PiggybackCodecDelta, ChannelsShadowIndependently) {
  const int n = 4;
  PiggybackCodec codec(PiggybackCodecKind::kDelta, n, kFullShape);
  PayloadArena arena = slots(n);
  const PiggybackView pb = sample_payload(arena, n);
  std::vector<std::uint8_t> ch01;
  std::vector<std::uint8_t> ch23;
  codec.encode(0, 1, pb, ch01);
  codec.encode(2, 3, pb, ch23);
  EXPECT_EQ(ch01.size(), ch23.size());  // both channels started from zero

  std::size_t offset = 0;
  codec.decode(2, 3, ch23, offset, arena.slot(1));
  EXPECT_TRUE(payloads_equal(pb, arena.view(1)));
  offset = 0;
  codec.decode(0, 1, ch01, offset, arena.slot(1));
  EXPECT_TRUE(payloads_equal(pb, arena.view(1)));
}

TEST(PiggybackCodecDelta, NonMonotoneTdvIsEncoderContractViolation) {
  const int n = 3;
  PiggybackCodec codec(PiggybackCodecKind::kDelta, n, kFullShape);
  PayloadArena arena = slots(n);
  const PiggybackView pb = sample_payload(arena, n);
  std::vector<std::uint8_t> wire;
  codec.encode(0, 1, pb, wire);
  arena.slot(0).tdv[1] -= 1;  // TDV entries never move backwards per channel
  EXPECT_THROW(codec.encode(0, 1, pb, wire), contract_violation);
}

// The delta encoder sizes its output once per payload. With m = ceil(n/8)
// mask bytes that is m + 5n bytes for the TDV (change mask, then an
// up-to-5-byte increment per entry), m for the simple flip mask,
// m + n * m for the causal rows (changed-row mask, then one XOR mask per
// row) and 5 for the index increment. The worst case fills every plane at
// once and must land exactly on that bound, after the bytes already in the
// buffer, and decode back.
TEST(PiggybackCodecDelta, WorstCasePayloadFillsTheBound) {
  for (const int n : {1, 2, 63, 64}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto un = static_cast<std::size_t>(n);
    PiggybackCodec codec(PiggybackCodecKind::kDelta, n, kFullShape);
    PayloadArena arena = slots(n);
    const PiggybackSlot pb = arena.slot(0);
    for (std::size_t k = 0; k < un; ++k) {
      pb.tdv[k] = kMaxPiggybackIndex - 1;
      pb.simple.set(k);
      for (std::size_t c = 0; c < un; ++c) pb.causal.set(k, c);
    }
    *pb.index = kMaxPiggybackIndex - 1;
    const ProcessId dest = n - 1;
    std::vector<std::uint8_t> wire = {0xAB};
    const std::size_t len = codec.encode(0, dest, arena.view(0), wire);
    const std::size_t m = (un + 7) / 8;
    EXPECT_EQ(len, (m + 5 * un) + m + (m + un * m) + 5);
    ASSERT_EQ(wire.size(), 1 + len);
    EXPECT_EQ(wire[0], 0xAB);
    std::size_t offset = 1;
    codec.decode(0, dest, wire, offset, arena.slot(1));
    EXPECT_EQ(offset, wire.size());
    EXPECT_TRUE(payloads_equal(arena.view(0), arena.view(1)));
  }
}

// --- the rejection contract: invalid_argument, offset untouched ---------

void expect_rejected(PiggybackCodec& codec, std::vector<std::uint8_t> wire,
                     int n, const char* note) {
  PayloadArena arena = slots(n, codec.shape());
  std::size_t offset = 0;
  try {
    codec.decode(0, 1, wire, offset, arena.slot(0));
    FAIL() << note << ": malformed payload decoded";
  } catch (const std::invalid_argument&) {
    EXPECT_EQ(offset, 0u) << note << ": offset moved on throw";
  }
}

TEST(PiggybackCodecReject, FlatMalformations) {
  const int n = 5;
  PiggybackCodec codec(PiggybackCodecKind::kFlat, n, kFullShape);
  PayloadArena arena = slots(n);
  std::vector<std::uint8_t> good;
  codec.encode(0, 1, sample_payload(arena, n), good);

  // Truncation at every byte boundary.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    PiggybackCodec fresh(PiggybackCodecKind::kFlat, n, kFullShape);
    expect_rejected(
        fresh, std::vector<std::uint8_t>(good.begin(), good.begin() + cut), n,
        "flat truncation");
  }
  // A TDV entry at the piggyback cap.
  std::vector<std::uint8_t> capped = good;
  capped[0] = 0xFF;
  capped[1] = 0xFF;
  capped[2] = 0xFF;
  capped[3] = 0x7F;
  expect_rejected(codec, capped, n, "flat tdv over cap");
  // Stray bit beyond the simple plane's width (bit 5 of 5).
  std::vector<std::uint8_t> stray = good;
  stray[20] |= 0x20;
  expect_rejected(codec, stray, n, "flat stray simple bit");
}

TEST(PiggybackCodecReject, SparseMalformations) {
  const int n = 5;
  PiggybackCodec codec(PiggybackCodecKind::kSparse, n, kFullShape);
  // tdv varint at the cap.
  {
    std::vector<std::uint8_t> wire = {0x80, 0x80, 0x80, 0x80, 0x04};  // 2^30
    expect_rejected(codec, wire, n, "sparse tdv at cap");
  }
  // Simple set-bit count past the plane size (tdv 5 zeros, then count 6).
  {
    std::vector<std::uint8_t> wire = {0, 0, 0, 0, 0, 6};
    expect_rejected(codec, wire, n, "sparse count over plane");
  }
  // First offset past the plane (count 1, gap 5 in a 5-bit plane).
  {
    std::vector<std::uint8_t> wire = {0, 0, 0, 0, 0, 1, 5};
    expect_rejected(codec, wire, n, "sparse offset over plane");
  }
  // Non-increasing offsets are unrepresentable by construction (gaps), so
  // the remaining hazard is truncation mid-list.
  {
    std::vector<std::uint8_t> wire = {0, 0, 0, 0, 0, 2, 0};
    expect_rejected(codec, wire, n, "sparse truncated list");
  }
}

TEST(PiggybackCodecReject, DeltaMalformations) {
  const int n = 5;
  const PayloadShape tdv_only{.tdv = true};
  {
    PiggybackCodec codec(PiggybackCodecKind::kDelta, n, tdv_only);
    // Zero increment: the entry did not change, so encoding it is
    // non-canonical (mask 0b1, increment 0).
    expect_rejected(codec, {0x01, 0}, n, "delta zero increment");
    // Stray mask bit naming entry 5 of 5.
    expect_rejected(codec, {0x21, 1, 1}, n, "delta stray tdv mask bit");
    // Truncated mask.
    expect_rejected(codec, {}, n, "delta truncated tdv mask");
    // Truncated increment list: two entries named, one increment sent.
    expect_rejected(codec, {0x03, 1}, n, "delta truncated increments");
    // An increment pushing the entry past the cap.
    expect_rejected(codec, {0x01, 0x80, 0x80, 0x80, 0x80, 0x04}, n,
                    "delta tdv past cap");
  }
  {
    const PayloadShape simple_only{.simple = true};
    PiggybackCodec codec(PiggybackCodecKind::kDelta, n, simple_only);
    // Stray flip bit beyond the plane width (bit 7 of 5).
    expect_rejected(codec, {0x80}, n, "delta stray flip bit");
  }
  {
    const PayloadShape causal_only{.causal = true};
    PiggybackCodec codec(PiggybackCodecKind::kDelta, n, causal_only);
    // All-zero row mask: the row did not change, non-canonical.
    expect_rejected(codec, {0x01, 0}, n, "delta zero causal mask");
    // Stray bits beyond column n in the row mask (bit 5 of 5).
    expect_rejected(codec, {0x01, 0x20}, n, "delta stray row mask bit");
    // Stray bit in the changed-row mask (row 6 of 5).
    expect_rejected(codec, {0x40, 0x01}, n, "delta stray changed-row bit");
    // Truncated row masks: two rows named, one mask sent.
    expect_rejected(codec, {0x03, 0x01}, n, "delta truncated row masks");
  }
  {
    // Masks span ceil(n/8) bytes: at n = 9 a one-byte mask is truncated.
    PiggybackCodec codec(PiggybackCodecKind::kDelta, 9, tdv_only);
    expect_rejected(codec, {0x01}, 9, "delta truncated two-byte mask");
    // Bit 9 of 9, in the mask's second byte.
    expect_rejected(codec, {0x00, 0x02, 1}, 9, "delta stray high mask bit");
  }
  {
    const PayloadShape index_only{.index = true};
    PiggybackCodec codec(PiggybackCodecKind::kDelta, n, index_only);
    // Index delta pushing past the cap.
    expect_rejected(codec, {0x80, 0x80, 0x80, 0x80, 0x04}, n,
                    "delta index past cap");
  }
}

// Varints must be minimal: a multi-byte encoding ending in 0x00 (`81 00`
// for 1) would decode to a value whose canonical encoding is shorter, so
// decode -> encode would not reproduce the input. The flat layout has no
// varints; the other two codecs reject every overlong field.
TEST(PiggybackCodecReject, OverlongVarints) {
  const PayloadShape tdv_only{.tdv = true};
  {
    PiggybackCodec codec(PiggybackCodecKind::kSparse, 4, tdv_only);
    // The canonical 4-byte payload 01 02 03 04 decodes fine...
    PayloadArena arena = slots(4, tdv_only);
    std::size_t offset = 0;
    const std::vector<std::uint8_t> canonical = {0x01, 0x02, 0x03, 0x04};
    codec.decode(0, 1, canonical, offset, arena.slot(0));
    EXPECT_TRUE(std::ranges::equal(arena.view(0).tdv, Tdv{1, 2, 3, 4}));
    // ...and its 5-byte spelling with tdv[0] as `81 00` does not.
    expect_rejected(codec, {0x81, 0x00, 0x02, 0x03, 0x04}, 4,
                    "sparse overlong tdv entry");
    // A 10-byte encoding of a small value is overlong too.
    expect_rejected(codec,
                    {0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                     0x00, 0x02, 0x03, 0x04},
                    4, "sparse 10-byte overlong tdv entry");
  }
  {
    const PayloadShape causal_only{.causal = true};
    PiggybackCodec codec(PiggybackCodecKind::kSparse, 4, causal_only);
    // Count 1 as `81 00`, then offset 0.
    expect_rejected(codec, {0x81, 0x00, 0x00}, 4, "sparse overlong count");
    // Count 1, offset 5 as `85 00`.
    expect_rejected(codec, {0x01, 0x85, 0x00}, 4, "sparse overlong offset");
  }
  {
    PiggybackCodec codec(PiggybackCodecKind::kDelta, 4, tdv_only);
    // Mask 0b1, then increment 1 spelled `81 00`. The mask is a fixed-width
    // byte, not a varint, so the increment is delta's only TDV varint.
    expect_rejected(codec, {0x01, 0x81, 0x00}, 4, "delta overlong increment");
  }
  {
    const PayloadShape index_only{.index = true};
    PiggybackCodec codec(PiggybackCodecKind::kDelta, 4, index_only);
    expect_rejected(codec, {0x80, 0x00}, 4, "delta overlong index delta");
  }
}

// The error names the byte that ends the overlong encoding.
TEST(PiggybackCodecReject, OverlongVarintErrorNamesTheByte) {
  PiggybackCodec codec(PiggybackCodecKind::kSparse, 4, PayloadShape{.tdv = true});
  PayloadArena arena = slots(4, codec.shape());
  std::size_t offset = 0;
  const std::vector<std::uint8_t> wire = {0x01, 0x82, 0x00, 0x03, 0x04};
  try {
    codec.decode(0, 1, wire, offset, arena.slot(0));
    FAIL() << "overlong varint decoded";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("piggyback: byte 2: ", 0), 0u)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-minimal"), std::string::npos)
        << e.what();
  }
}

// A rejected payload leaves the delta shadows untouched: the next valid
// payload still decodes against the pre-failure state.
TEST(PiggybackCodecReject, DeltaShadowsSurviveRejection) {
  const int n = 4;
  const PayloadShape tdv_only{.tdv = true};
  PiggybackCodec codec(PiggybackCodecKind::kDelta, n, tdv_only);
  PayloadArena arena = slots(n, tdv_only);
  const PiggybackView sent = arena.view(0);
  const PiggybackView back = arena.view(1);
  arena.slot(0).tdv[0] = 1;
  std::vector<std::uint8_t> first;
  codec.encode(0, 1, sent, first);
  std::size_t offset = 0;
  codec.decode(0, 1, first, offset, arena.slot(1));
  ASSERT_TRUE(std::ranges::equal(back.tdv, sent.tdv));

  // Malformed payload on the same channel: rejected, shadow intact...
  expect_rejected(codec, {0x01, 0}, n, "zero delta after good payload");
  // ...so the next genuine increment (entry 0: 1 -> 3) still decodes.
  arena.slot(0).tdv[0] = 3;
  std::vector<std::uint8_t> second;
  codec.encode(0, 1, sent, second);
  offset = 0;
  codec.decode(0, 1, second, offset, arena.slot(1));
  EXPECT_TRUE(std::ranges::equal(back.tdv, Tdv{3, 0, 0, 0}));
}

// --- golden wire bytes ----------------------------------------------------
//
// The exact bytes every encoder produces for a fixed five-message sequence
// over three channels, for the payload shapes the registered protocols
// declare, pinned as hex so an encoder rewrite cannot drift the wire format
// unnoticed. Each case's hex lists the messages in send order separated by
// " / "; inside a message a token "00*N" stands for N zero bytes and every
// other token is plain hex. The sequence touches bits on both sides of the
// 64-bit word boundaries and TDV increments that need multi-byte varints.

constexpr PayloadShape kBhmrShape{.tdv = true, .simple = true, .causal = true};
constexpr PayloadShape kFdasShape{.tdv = true};
constexpr PayloadShape kBhmrV2Shape{.tdv = true, .causal = true};
constexpr PayloadShape kBcsShape{.index = true};

struct GoldenChannel {
  ProcessId src;
  ProcessId dest;
};
constexpr GoldenChannel kGoldenChannels[] = {
    {0, 1}, {2, 1}, {0, 1}, {1, 0}, {0, 1}};
constexpr int kGoldenMessages = 5;

// Message m of the golden sequence, written into a zeroed slot. TDV entries
// and the index only grow with m, so every channel sees them grow
// monotonically (the delta codec's contract); bit planes change in both
// directions.
void golden_payload(const PiggybackSlot& pb, int n, PayloadShape shape, int m) {
  const auto un = static_cast<std::size_t>(n);
  if (shape.tdv) {
    pb.tdv[0] = m + 1;
    pb.tdv[1] = 1 + 200 * m;
    pb.tdv[un / 2] = m >= 2 ? 3 : 0;
    pb.tdv[un - 1] = m == 4 ? 20000 : 5 * (m / 2);
  }
  if (shape.simple) {
    pb.simple.set(static_cast<std::size_t>(7 * m) % un);
    pb.simple.set(un - 1);
    pb.simple.set(63 % un);
  }
  if (shape.causal) {
    pb.causal.set(0, un - 1);
    pb.causal.set(1, 63 % un);
    pb.causal.set(un - 1, 0);
    pb.causal.set(static_cast<std::size_t>(m) % un,
                  static_cast<std::size_t>(13 * m) % un);
    pb.causal.set(un / 2, 64 % un);
    if (m >= 3) pb.causal.set(63 % un, 64 % un);
  }
  if (shape.index) *pb.index = 3 * m + (m == 4 ? 300 : 0);
}

std::string golden_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  bool in_token = false;
  for (std::size_t i = 0; i < bytes.size();) {
    std::size_t run = 0;
    while (i + run < bytes.size() && bytes[i + run] == 0) ++run;
    if (run >= 6) {
      if (!out.empty()) out += ' ';
      out += "00*" + std::to_string(run);
      in_token = false;
      i += run;
      continue;
    }
    if (!in_token && !out.empty()) out += ' ';
    in_token = true;
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 15];
    ++i;
  }
  return out;
}

struct GoldenCase {
  const char* name;
  PiggybackCodecKind codec;
  PayloadShape shape;
  int n;
  const char* hex;
};

// clang-format off
const GoldenCase kGoldenCases[] = {
    {"flat/bhmr/n8", PiggybackCodecKind::kFlat, kBhmrShape, 8,
     "0100000001 00*27 818180000001000001 / 02000000c9 00*27 "
     "8080a0000001000001 / 030000009101 00*10 03 00*11 "
     "05000000c08080040001000001 / 040000005902 00*10 03 00*11 "
     "05000000a08080008001000001 / 050000002103 00*10 03 00*11 "
     "204e0000908080000011000001"},
    {"flat/fdas/n8", PiggybackCodecKind::kFlat, kFdasShape, 8,
     "0100000001 00*27 / 02000000c9 00*27 / 030000009101 00*10 03 00*11 "
     "05000000 / 040000005902 00*10 03 00*11 05000000 / 050000002103 "
     "00*10 03 00*11 204e0000"},
    {"flat/bhmr-v2/n8", PiggybackCodecKind::kFlat, kBhmrV2Shape, 8,
     "0100000001 00*27 8180000001000001 / 02000000c9 00*27 "
     "80a0000001000001 / 030000009101 00*10 03 00*11 "
     "050000008080040001000001 / 040000005902 00*10 03 00*11 "
     "050000008080008001000001 / 050000002103 00*10 03 00*11 "
     "204e00008080000011000001"},
    {"flat/bcs/n8", PiggybackCodecKind::kFlat, kBcsShape, 8,
     "00000000 / 03000000 / 06000000 / 09000000 / 38010000"},
    {"flat/bhmr/n64", PiggybackCodecKind::kFlat, kBhmrShape, 64,
     "0100000001 00*251 01 00*6 8001 00*6 80 00*7 80 00*240 01 00*247 01 "
     "00*7 / 02000000c9 00*251 80 00*6 80 00*7 800020000000000080 00*240 "
     "01 00*247 01 00*7 / 030000009101 00*122 03 00*123 "
     "050000000040000000000080 00*7 80 00*7 8000000004 00*236 01 00*247 "
     "01 00*7 / 040000005902 00*122 03 00*123 050000000000200000000080 "
     "00*7 80 00*7 80 00*12 80 00*227 01 00*247 01 00*7 / 050000002103 "
     "00*122 03 00*123 204e00000000001000000080 00*7 80 00*7 80 00*22 10 "
     "00*217 01 00*247 01 00*7"},
    {"flat/fdas/n64", PiggybackCodecKind::kFlat, kFdasShape, 64,
     "0100000001 00*251 / 02000000c9 00*251 / 030000009101 00*122 03 "
     "00*123 05000000 / 040000005902 00*122 03 00*123 05000000 / "
     "050000002103 00*122 03 00*123 204e0000"},
    {"flat/bhmr-v2/n64", PiggybackCodecKind::kFlat, kBhmrV2Shape, 64,
     "0100000001 00*251 01 00*6 80 00*7 80 00*240 01 00*247 01 00*7 / "
     "02000000c9 00*258 800020000000000080 00*240 01 00*247 01 00*7 / "
     "030000009101 00*122 03 00*123 05 00*10 80 00*7 8000000004 00*236 "
     "01 00*247 01 00*7 / 040000005902 00*122 03 00*123 05 00*10 80 00*7 "
     "80 00*12 80 00*227 01 00*247 01 00*7 / 050000002103 00*122 03 "
     "00*123 204e 00*9 80 00*7 80 00*22 10 00*217 01 00*247 01 00*7"},
    {"flat/bcs/n64", PiggybackCodecKind::kFlat, kBcsShape, 64,
     "00000000 / 03000000 / 06000000 / 09000000 / 38010000"},
    {"flat/bhmr/n65", PiggybackCodecKind::kFlat, kBhmrShape, 65,
     "0100000001 00*255 01 00*6 800101 00*7 01 00*7 80 00*279 01 00*279 "
     "01 00*8 / 02000000c9 00*255 80 00*6 8001 00*8 010020000000000080 "
     "00*279 01 00*279 01 00*8 / 030000009101 00*122 03 00*127 "
     "05000000004000000000008001 00*8 01 00*7 800000000004 00*274 01 "
     "00*279 01 00*8 / 040000005902 00*122 03 00*127 "
     "05000000000020000000008001 00*8 01 00*7 80 00*14 80 00*264 01 "
     "00*278 0101 00*8 / 050000002103 00*122 03 00*127 "
     "204e0000000000100000008001 00*8 01 00*7 80 00*25 10 00*253 01 "
     "00*278 0101 00*8"},
    {"flat/fdas/n65", PiggybackCodecKind::kFlat, kFdasShape, 65,
     "0100000001 00*255 / 02000000c9 00*255 / 030000009101 00*122 03 "
     "00*127 05000000 / 040000005902 00*122 03 00*127 05000000 / "
     "050000002103 00*122 03 00*127 204e0000"},
    {"flat/bhmr-v2/n65", PiggybackCodecKind::kFlat, kBhmrV2Shape, 65,
     "0100000001 00*255 01 00*7 01 00*7 80 00*279 01 00*279 01 00*8 / "
     "02000000c9 00*263 010020000000000080 00*279 01 00*279 01 00*8 / "
     "030000009101 00*122 03 00*127 05 00*11 01 00*7 800000000004 00*274 "
     "01 00*279 01 00*8 / 040000005902 00*122 03 00*127 05 00*11 01 00*7 "
     "80 00*14 80 00*264 01 00*278 0101 00*8 / 050000002103 00*122 03 "
     "00*127 204e 00*10 01 00*7 80 00*25 10 00*253 01 00*278 0101 00*8"},
    {"flat/bcs/n65", PiggybackCodecKind::kFlat, kBcsShape, 65,
     "00000000 / 03000000 / 06000000 / 09000000 / 38010000"},
    {"flat/bhmr/n130", PiggybackCodecKind::kFlat, kBhmrShape, 130,
     "0100000001 00*515 01 00*6 80 00*8 0201 00*15 02 00*7 80 00*1088 01 "
     "00*1079 01 00*16 / 02000000c9 00*515 80 00*6 80 00*8 02 00*16 "
     "020020000000000080 00*1088 01 00*1079 01 00*16 / 030000009101 "
     "00*254 03 00*255 050000000040000000000080 00*8 02 00*16 02 00*7 80 "
     "00*12 04 00*1075 01 00*1079 01 00*16 / 040000005902 00*254 03 "
     "00*255 050000000000200000000080 00*8 02 00*16 02 00*7 80 00*30 80 "
     "00*1023 01 00*33 01 00*1079 01 00*16 / 050000002103 00*254 03 "
     "00*255 204e00000000001000000080 00*8 02 00*16 02 00*7 80 00*49 10 "
     "00*1004 01 00*33 01 00*1079 01 00*16"},
    {"flat/fdas/n130", PiggybackCodecKind::kFlat, kFdasShape, 130,
     "0100000001 00*515 / 02000000c9 00*515 / 030000009101 00*254 03 "
     "00*255 05000000 / 040000005902 00*254 03 00*255 05000000 / "
     "050000002103 00*254 03 00*255 204e0000"},
    {"flat/bhmr-v2/n130", PiggybackCodecKind::kFlat, kBhmrV2Shape, 130,
     "0100000001 00*515 01 00*15 02 00*7 80 00*1088 01 00*1079 01 00*16 "
     "/ 02000000c9 00*531 020020000000000080 00*1088 01 00*1079 01 00*16 "
     "/ 030000009101 00*254 03 00*255 05 00*19 02 00*7 80 00*12 04 "
     "00*1075 01 00*1079 01 00*16 / 040000005902 00*254 03 00*255 05 "
     "00*19 02 00*7 80 00*30 80 00*1023 01 00*33 01 00*1079 01 00*16 / "
     "050000002103 00*254 03 00*255 204e 00*18 02 00*7 80 00*49 10 "
     "00*1004 01 00*33 01 00*1079 01 00*16"},
    {"flat/bcs/n130", PiggybackCodecKind::kFlat, kBcsShape, 130,
     "00000000 / 03000000 / 06000000 / 09000000 / 38010000"},
    {"delta/bhmr/n8", PiggybackCodecKind::kDelta, kBhmrShape, 8,
     "030101819381800101 / 0302c901809380a00101 / 93029003030541050104 / "
     "9304d9040305a09b8080800101 / 830290039b9c0150140410"},
    {"delta/fdas/n8", PiggybackCodecKind::kDelta, kFdasShape, 8,
     "030101 / 0302c901 / 930290030305 / 9304d9040305 / 830290039b9c01"},
    {"delta/bhmr-v2/n8", PiggybackCodecKind::kDelta, kBhmrV2Shape, 8,
     "0301019381800101 / 0302c9019380a00101 / 930290030305050104 / "
     "9304d90403059b8080800101 / 830290039b9c01140410"},
    {"delta/bcs/n8", PiggybackCodecKind::kDelta, kBcsShape, 8,
     "00 / 03 / 06 / 09 / b202"},
    {"delta/bhmr/n64", PiggybackCodecKind::kDelta, kBhmrShape, 64,
     "03 00*7 010101 00*6 80030000000100008001 00*6 80 00*7 8001 00*7 01 "
     "00*7 / 03 00*7 02c90180 00*6 800300000001000080 00*7 "
     "80002000000000008001 00*7 01 00*7 / 030000000100008002900303050140 "
     "00*6 05 00*7 01 00*10 0400000000 / "
     "030000000100008004d904030500002000000000800b00000001000080 00*7 80 "
     "00*7 80000000008000000001 00*7 01 00*7 / 03 00*6 "
     "800290039b9c01004000100000000014 00*10 04 00*10 1000"},
    {"delta/fdas/n64", PiggybackCodecKind::kDelta, kFdasShape, 64,
     "03 00*7 0101 / 03 00*7 02c901 / 03000000010000800290030305 / "
     "030000000100008004d9040305 / 03 00*6 800290039b9c01"},
    {"delta/bhmr-v2/n64", PiggybackCodecKind::kDelta, kBhmrV2Shape, 64,
     "03 00*7 0101030000000100008001 00*6 80 00*7 8001 00*7 01 00*7 / 03 "
     "00*7 02c9010300000001000080 00*7 80002000000000008001 00*7 01 00*7 / "
     "0300000001000080029003030505 00*7 01 00*10 0400000000 / "
     "030000000100008004d90403050b00000001000080 00*7 80 00*7 "
     "80000000008000000001 00*7 01 00*7 / 03 00*6 800290039b9c0114 00*10 04 "
     "00*10 1000"},
    {"delta/bcs/n64", PiggybackCodecKind::kDelta, kBcsShape, 64,
     "00 / 03 / 06 / 09 / b202"},
    {"sparse/bhmr/n8", PiggybackCodecKind::kSparse, kBhmrShape, 8,
     "0101 00*6 020006050006071017 / 02c901 00*6 0107050705011017 / "
     "039103000003000005020600050707020d17 / "
     "04d9040000030000050205010507070f0017 / "
     "05a1060000030000a09c01020402050707100313"},
    {"sparse/fdas/n8", PiggybackCodecKind::kSparse, kFdasShape, 8,
     "0101 00*6 / 02c901 00*6 / 039103000003000005 / 04d904000003000005 "
     "/ 05a1060000030000a09c01"},
    {"sparse/bhmr-v2/n8", PiggybackCodecKind::kSparse, kBhmrV2Shape, 8,
     "0101 00*6 050006071017 / 02c901 00*6 050705011017 / "
     "039103000003000005050707020d17 / 04d9040000030000050507070f0017 / "
     "05a1060000030000a09c01050707100313"},
    {"sparse/bcs/n8", PiggybackCodecKind::kSparse, kBcsShape, 8,
     "00 / 03 / 06 / 09 / b802"},
    {"sparse/bhmr/n64", PiggybackCodecKind::kSparse, kBhmrShape, 64,
     "0101 00*62 02003e05003e3f800fbf0f / 02c901 00*62 "
     "020737053f0d31800fbf0f / 039103 00*30 03 00*30 "
     "05020e30053f3f1ae50ebf0f / 04d904 00*30 03 00*30 "
     "05021529053f3f67980ebf0f / 05a106 00*30 03 00*30 "
     "a09c01021c22053f3fb401cb0dbf0f"},
    {"sparse/fdas/n64", PiggybackCodecKind::kSparse, kFdasShape, 64,
     "0101 00*62 / 02c901 00*62 / 039103 00*30 03 00*30 05 / 04d904 "
     "00*30 03 00*30 05 / 05a106 00*30 03 00*30 a09c01"},
    {"sparse/bhmr-v2/n64", PiggybackCodecKind::kSparse, kBhmrV2Shape, 64,
     "0101 00*62 05003e3f800fbf0f / 02c901 00*62 053f0d31800fbf0f / "
     "039103 00*30 03 00*30 05053f3f1ae50ebf0f / 04d904 00*30 03 00*30 "
     "05053f3f67980ebf0f / 05a106 00*30 03 00*30 "
     "a09c01053f3fb401cb0dbf0f"},
    {"sparse/bcs/n64", PiggybackCodecKind::kSparse, kBcsShape, 64,
     "00 / 03 / 06 / 09 / b802"},
    {"sparse/bhmr/n65", PiggybackCodecKind::kSparse, kBhmrShape, 65,
     "0101 00*63 03003e0005003f3fdf0fdf0f / 02c901 00*63 "
     "0307370005400d31df0fdf0f / 039103 00*30 03 00*31 "
     "05030e300005403f1bc30fdf0f / 04d904 00*30 03 00*31 "
     "050315290006403f69f50ede0f00 / 05a106 00*30 03 00*31 "
     "a09c01031c220006403fb701a70ede0f00"},
    {"sparse/fdas/n65", PiggybackCodecKind::kSparse, kFdasShape, 65,
     "0101 00*63 / 02c901 00*63 / 039103 00*30 03 00*31 05 / 04d904 "
     "00*30 03 00*31 05 / 05a106 00*30 03 00*31 a09c01"},
    {"sparse/bhmr-v2/n65", PiggybackCodecKind::kSparse, kBhmrV2Shape, 65,
     "0101 00*63 05003f3fdf0fdf0f / 02c901 00*63 05400d31df0fdf0f / "
     "039103 00*30 03 00*31 0505403f1bc30fdf0f / 04d904 00*30 03 00*31 "
     "0506403f69f50ede0f00 / 05a106 00*30 03 00*31 "
     "a09c0106403fb701a70ede0f00"},
    {"sparse/bcs/n65", PiggybackCodecKind::kSparse, kBcsShape, 65,
     "00 / 03 / 06 / 09 / b802"},
    {"sparse/bhmr/n130", PiggybackCodecKind::kSparse, kBhmrShape, 130,
     "0101 00*128 03003e41050080013f8041bf40 / 02c901 00*128 "
     "030737410581010d318041bf40 / 039103 00*63 03 00*63 "
     "05030e30410581013f5ca340bf40 / 04d904 00*63 03 00*63 "
     "05031529410681013feb01903d8302bf40 / 05a106 00*63 03 00*63 "
     "a09c01031c22410681013ffa02813c8302bf40"},
    {"sparse/fdas/n130", PiggybackCodecKind::kSparse, kFdasShape, 130,
     "0101 00*128 / 02c901 00*128 / 039103 00*63 03 00*63 05 / 04d904 "
     "00*63 03 00*63 05 / 05a106 00*63 03 00*63 a09c01"},
    {"sparse/bhmr-v2/n130", PiggybackCodecKind::kSparse, kBhmrV2Shape, 130,
     "0101 00*128 050080013f8041bf40 / 02c901 00*128 0581010d318041bf40 "
     "/ 039103 00*63 03 00*63 050581013f5ca340bf40 / 04d904 00*63 03 "
     "00*63 050681013feb01903d8302bf40 / 05a106 00*63 03 00*63 "
     "a09c010681013ffa02813c8302bf40"},
    {"sparse/bcs/n130", PiggybackCodecKind::kSparse, kBcsShape, 130,
     "00 / 03 / 06 / 09 / b802"},
};
// clang-format on

TEST(PiggybackCodecGolden, EncodersReproduceRecordedBytes) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    PiggybackCodec enc(c.codec, c.n, c.shape);
    PiggybackCodec dec(c.codec, c.n, c.shape);
    // Message m is written to slot 2m and decoded into slot 2m + 1.
    PayloadArena arena = test::payload_slots(c.n, c.shape, 2 * kGoldenMessages);
    std::string hex;
    for (MsgId m = 0; m < kGoldenMessages; ++m) {
      const GoldenChannel ch = kGoldenChannels[m];
      golden_payload(arena.slot(2 * m), c.n, c.shape, m);
      std::vector<std::uint8_t> wire;
      enc.encode(ch.src, ch.dest, arena.view(2 * m), wire);
      if (m > 0) hex += " / ";
      hex += golden_hex(wire);
      std::size_t offset = 0;
      dec.decode(ch.src, ch.dest, wire, offset, arena.slot(2 * m + 1));
      EXPECT_EQ(offset, wire.size());
      EXPECT_TRUE(payloads_equal(arena.view(2 * m), arena.view(2 * m + 1)))
          << "message " << m << " decoded to different planes";
    }
    EXPECT_EQ(hex, c.hex);
  }
}

// Encoded-size sanity on a sparse-ish payload: both clever codecs beat the
// flat layout, and all three roundtrip the same planes.
TEST(PiggybackCodecSizes, CleverCodecsBeatFlatOnSparseData) {
  const int n = 8;
  PayloadArena arena = slots(n);
  const PiggybackView pb = sample_payload(arena, n);
  std::size_t sizes[kNumPiggybackCodecKinds] = {};
  for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
    PiggybackCodec codec(static_cast<PiggybackCodecKind>(c), n, kFullShape);
    std::vector<std::uint8_t> wire;
    sizes[c] = codec.encode(0, 1, pb, wire);
  }
  const auto flat = static_cast<std::size_t>(
      sizes[static_cast<int>(PiggybackCodecKind::kFlat)]);
  EXPECT_LT(sizes[static_cast<int>(PiggybackCodecKind::kDelta)], flat);
  EXPECT_LT(sizes[static_cast<int>(PiggybackCodecKind::kSparse)], flat);
}

}  // namespace
}  // namespace rdt
