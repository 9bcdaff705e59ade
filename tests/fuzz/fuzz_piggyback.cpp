// libFuzzer harness for the piggyback codec layer (protocols/codec.hpp) —
// the blob decoder behind both the replay engine's wire measurement and
// the serving pool's per-session ingest. Arbitrary bytes either decode
// into payload planes or throw std::invalid_argument with the caller's
// offset untouched; logic_error, UB, OOM and signals are bugs.
//
// Beyond rejection-hardening, the harness checks the codec's semantic
// contract on every accepted payload: decode -> re-encode -> re-decode
// must reproduce the planes bit-identically through three *synchronized*
// codec instances (A decodes the input, E re-encodes A's output planes, B
// decodes E's bytes — all three walk the same per-channel shadow history,
// the way a sender/receiver pair does). Every encoding is canonical, so
// the re-encoded bytes must also equal the input bytes A consumed: a
// decoder that accepts a second spelling of some payload (an overlong
// varint, a zero delta) fails here. A decoded-then-reencoded payload that
// fails to decode, decodes differently, or re-encodes differently means
// the encoder and decoder disagree on what "canonical" means.
//
// Input layout: [0] codec kind (mod 3), [1] process count (1 + mod 130,
// 1 + mod 64 for the delta codec — both straddle the 64-bit word
// boundaries of the bit planes), [2] shape bits (1 tdv, 2 simple, 4
// causal, 8 index), [3]/[4] channel seeds, [5..] a concatenated stream of
// encoded payloads.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "protocols/codec.hpp"
#include "protocols/payload.hpp"

namespace {

using rdt::CkptIndex;
using rdt::PiggybackCodec;
using rdt::PiggybackSlot;
using rdt::PiggybackView;

struct Planes {
  std::vector<CkptIndex> tdv;
  std::vector<std::uint64_t> simple;
  std::vector<std::uint64_t> causal;
  CkptIndex index = 0;

  void size_for(rdt::PayloadShape shape, std::size_t n) {
    const std::size_t row_words = rdt::bitdetail::words_for(n);
    tdv.assign(shape.tdv ? n : 0, 0);
    simple.assign(shape.simple ? row_words : 0, 0);
    causal.assign(shape.causal ? n * row_words : 0, 0);
    index = 0;
  }

  PiggybackSlot slot(rdt::PayloadShape shape, std::size_t n) {
    PiggybackSlot s;
    if (shape.tdv) s.tdv = {tdv.data(), n};
    if (shape.simple) s.simple = {simple.data(), n};
    if (shape.causal) s.causal = {causal.data(), n, n};
    if (shape.index) s.index = &index;
    return s;
  }

  PiggybackView view(rdt::PayloadShape shape, std::size_t n) const {
    PiggybackView v;
    if (shape.tdv) v.tdv = {tdv.data(), n};
    if (shape.simple) v.simple = {simple.data(), n};
    if (shape.causal) v.causal = {causal.data(), n, n};
    if (shape.index) v.index = index;
    return v;
  }

  bool operator==(const Planes&) const = default;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 5 || size > (1u << 20)) return 0;
  const auto kind = static_cast<rdt::PiggybackCodecKind>(data[0] % 3);
  const int n = 1 + data[1] % (kind == rdt::PiggybackCodecKind::kDelta
                                    ? rdt::kMaxDeltaProcesses
                                    : 130);
  const rdt::PayloadShape shape{.tdv = (data[2] & 1) != 0,
                                .simple = (data[2] & 2) != 0,
                                .causal = (data[2] & 4) != 0,
                                .index = (data[2] & 8) != 0};
  PiggybackCodec a;  // decodes the fuzzer's bytes
  PiggybackCodec e;  // re-encodes what `a` produced
  PiggybackCodec b;  // decodes `e`'s bytes back
  a.reset(kind, n, shape);
  e.reset(kind, n, shape);
  b.reset(kind, n, shape);
  const auto un = static_cast<std::size_t>(n);
  Planes decoded;
  Planes again;
  decoded.size_for(shape, un);
  again.size_for(shape, un);
  std::vector<std::uint8_t> reencoded;

  const std::span<const std::uint8_t> bytes(data, size);
  std::size_t offset = 5;
  for (int msg = 0; offset < size && msg < 4096; ++msg) {
    const auto src = static_cast<rdt::ProcessId>((data[3] + msg) % n);
    const auto dest =
        static_cast<rdt::ProcessId>((data[4] + 7 * msg + 1) % n);
    const std::size_t before = offset;
    try {
      a.decode(src, dest, bytes, offset, decoded.slot(shape, un));
    } catch (const std::invalid_argument&) {
      // Malformed payload, correctly rejected — offset must be untouched.
      if (offset != before) __builtin_trap();
      return 0;
    }
    if (offset == before) break;  // an empty shape consumes nothing
    // Re-encode the accepted planes and decode them back; any throw here
    // escapes as a crash — canonical bytes must decode.
    reencoded.clear();
    const std::size_t len =
        e.encode(src, dest, decoded.view(shape, un), reencoded);
    if (len != reencoded.size()) __builtin_trap();
    if (len != offset - before ||
        !std::equal(reencoded.begin(), reencoded.end(), data + before))
      __builtin_trap();
    std::size_t reoffset = 0;
    b.decode(src, dest, reencoded, reoffset, again.slot(shape, un));
    if (reoffset != reencoded.size()) __builtin_trap();
    if (!(decoded == again)) __builtin_trap();
  }
  return 0;
}
