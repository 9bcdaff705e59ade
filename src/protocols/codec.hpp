// Wire codecs for piggybacked control data: how it actually travels.
//
// A CicProtocol fills flat payload planes (PiggybackSlot) and reads them
// back (PiggybackView); those planes are the *semantic* contract and never
// change. A PiggybackCodec sits between the planes and the wire: `encode`
// turns one outgoing payload into bytes, `decode` reconstructs the exact
// planes on the receiving side. Codecs change representation, never
// semantics — a decoded payload is bit-identical to the encoded one, and
// the replay engine decodes every payload back to check that under
// RDT_AUDITS.
//
// Three encodings, ordered by cleverness:
//
//  * kFlat — the byte-aligned reference layout. Every plane is written in
//    full: TDV entries as 4-byte little-endian words, bit planes as
//    ceil(n/8)-byte rows, the scalar index as a 4-byte word. Stateless,
//    trivially seekable, and the yardstick the other codecs are measured
//    against.
//  * kDelta — delta-since-last-send. The codec keeps a per-channel
//    (src, dest) shadow of the last payload that crossed that channel and
//    encodes only what changed, each plane's change set as a change mask
//    of ceil(n/8) little-endian bytes (bit k names entry or row k):
//      tdv     mask of changed entries, then one varint increment per set
//              bit in ascending order (TDV entries are monotone per
//              channel, so a zero increment is rejected as non-canonical)
//      simple  the flip mask alone
//      causal  mask of changed rows, then one ceil(n/8)-byte XOR mask per
//              changed row in ascending order (an all-zero one is
//              rejected as non-canonical)
//      index   its increment as a varint
//    A mask bit at or past n is rejected. Needs identical shadow evolution
//    on both ends, which holds because payloads are decoded in channel
//    send order.
//  * kSparse — stateless bit-packed planes. TDV entries and the scalar
//    index as varints, bit planes as gap-encoded set-bit offsets over the
//    row-major linearization. No shadows, so any single payload stands
//    alone — the right shape for sparse matrices early in a run.
//
// All multi-byte integers reuse the bounded LEB128 primitives from
// util/varint.hpp (the serve wire format's encoding). The decoder is
// hardened like serve/wire.cpp: counts are capped by plane sizes, offsets
// must strictly increase inside a plane, masks carry no bits past the
// plane width, values are capped by kMaxPiggybackIndex, non-minimal
// varints are refused (so every payload has exactly one encoding), every
// error is a std::invalid_argument prefixed "piggyback: byte N: ...", and
// `offset` is untouched on throw. On a throw the output slot's contents
// are unspecified but the codec's channel shadows are untouched, so a
// caller may simply report the bad payload and keep the codec alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "causality/ids.hpp"
#include "protocols/payload.hpp"

namespace rdt {

enum class PiggybackCodecKind : std::uint8_t {
  kFlat = 0,
  kDelta = 1,
  kSparse = 2,
};

inline constexpr int kNumPiggybackCodecKinds = 3;

// Stable lowercase ids ("flat", "delta", "sparse") for JSON output and the
// serve wire handshake.
const char* to_cstring(PiggybackCodecKind kind);
std::optional<PiggybackCodecKind> codec_from_string(std::string_view id);

// Decoded values (TDV entries, the scalar index) must stay below this cap;
// it matches serve's kMaxWireIndex so a hostile payload cannot smuggle a
// near-2^63 checkpoint index into the analysis layer.
inline constexpr CkptIndex kMaxPiggybackIndex = 1 << 30;

// Process-count caps: stateless codecs only bound-check, the delta codec
// allocates per-channel shadows (n^2 channels x plane size) and is capped
// tighter so a codec can never swallow unbounded memory.
inline constexpr int kMaxCodecProcesses = 1 << 10;
inline constexpr int kMaxDeltaProcesses = 64;

class PiggybackCodec {
 public:
  PiggybackCodec() = default;
  PiggybackCodec(PiggybackCodecKind kind, int num_processes, PayloadShape shape) {
    reset(kind, num_processes, shape);
  }

  // Re-targets the codec and forgets every channel shadow. The delta
  // codec sizes and zeroes each side's shadows (encoder, decoder) on that
  // side's first use after a reset, in grow-only storage: a codec that
  // only encodes never allocates decoder shadows, and a reset to the same
  // geometry allocates nothing.
  void reset(PiggybackCodecKind kind, int num_processes, PayloadShape shape);

  PiggybackCodecKind kind() const { return kind_; }
  int num_processes() const { return n_; }
  PayloadShape shape() const { return shape_; }

  // Worst-case encoded size of a single payload — serve uses it to cap
  // per-event piggyback blobs before handing bytes to decode().
  std::size_t max_encoded_bytes() const;

  // Appends the encoding of one payload travelling src -> dest and returns
  // the number of bytes appended. The payload's planes must match the
  // codec's shape. For the delta codec this advances the channel's encoder
  // shadow, so payloads must be encoded in channel send order. A payload
  // that breaks the encoder's contract (a shape mismatch, a value past
  // kMaxPiggybackIndex, a delta TDV entry or index that moved backwards)
  // throws contract_violation and leaves `out`'s appended tail and the
  // channel's encoder shadow unspecified.
  std::size_t encode(ProcessId src, ProcessId dest, const PiggybackView& payload,
                     std::vector<std::uint8_t>& out);

  // Decodes one payload travelling src -> dest from bytes[offset..end)
  // into `slot` (fully overwritten) and advances `offset` past exactly the
  // bytes the encoder produced. Throws std::invalid_argument on malformed
  // input with `offset` and the channel shadows untouched (the slot's
  // contents are then unspecified). For the delta codec this advances the
  // channel's decoder shadow, so payloads must be decoded in channel send
  // order.
  void decode(ProcessId src, ProcessId dest, std::span<const std::uint8_t> bytes,
              std::size_t& offset, const PiggybackSlot& slot);

 private:
  struct ChannelPlanes {
    // Flat per-channel blocks, sized by size_shadows() on the side's first
    // use; empty when the shape omits the plane. Delta rows are one word.
    std::vector<CkptIndex> tdv;         // n^2 channels x n entries
    std::vector<std::uint64_t> simple;  // n^2 channels
    std::vector<std::uint64_t> causal;  // n^2 channels x n rows
    std::vector<CkptIndex> index;       // n^2 channels
    bool sized = false;                 // since the last reset()
  };

  std::size_t channel(ProcessId src, ProcessId dest) const;
  void size_shadows(ChannelPlanes& side);
  void check_shape(std::size_t tdv_size, std::size_t simple_size,
                   std::size_t causal_rows, std::size_t causal_cols,
                   bool has_index) const;

  std::size_t encode_flat(const PiggybackView& payload, std::vector<std::uint8_t>& out) const;
  std::size_t encode_sparse(const PiggybackView& payload, std::vector<std::uint8_t>& out) const;
  std::size_t encode_delta(std::size_t ch, const PiggybackView& payload,
                           std::vector<std::uint8_t>& out);

  // Each decoder parses from `at` and returns the cursor past the bytes it
  // consumed. Taking the cursor by value keeps it in a register (the plane
  // stores cannot alias it), and decode() commits it only on success.
  std::size_t decode_flat(std::span<const std::uint8_t> bytes, std::size_t at,
                          const PiggybackSlot& slot) const;
  std::size_t decode_sparse(std::span<const std::uint8_t> bytes, std::size_t at,
                            const PiggybackSlot& slot) const;
  std::size_t decode_delta(std::size_t ch, std::span<const std::uint8_t> bytes,
                           std::size_t at, const PiggybackSlot& slot);

  PiggybackCodecKind kind_ = PiggybackCodecKind::kFlat;
  int n_ = 0;
  PayloadShape shape_;
  std::size_t row_words_ = 0;

  // Delta-codec shadows. Encoder and decoder sides are independent so one
  // codec instance can drive both halves of a simulated channel: tests
  // encode and decode through one codec, and an audited replay decodes
  // each payload it encodes (a plain replay only encodes).
  ChannelPlanes enc_;
  ChannelPlanes dec_;
};

}  // namespace rdt
