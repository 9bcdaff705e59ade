// PayloadArena — replay-owned, reusable storage for piggybacked control data.
//
// Within one replay every message carries the same PayloadShape (all
// processes run the same ProtocolKind), so instead of one heap-allocated
// payload per message the replay engine carves three flat planes:
//  * a TDV plane    — n CkptIndex entries per message, contiguous;
//  * a simple plane — one word-aligned n-bit row per message;
//  * a causal plane — one block-strided n x n bit matrix per message
//    (n word-aligned rows, matrices back to back);
// plus a scalar index plane for the BCS timestamp. slot(m)/view(m) are O(1)
// pointer arithmetic; reset() only reallocates when a later replay needs
// more capacity, so sweeping many seeds through one arena reaches a steady
// state with zero per-message heap allocations.
//
// Every send is measured through a PiggybackCodec: the protocol fills
// slot(m) directly, and commit_send(m, src, dest) encodes view(m) with the
// codec and returns the encoded wire bits. The delivery reads the same
// planes the sender wrote; nothing is decoded. The codec scratch — the
// per-channel delta shadows and the encode buffer — obeys the same
// grow-only, zero-steady-state-allocation discipline as the planes. Under
// RDT_AUDITS every commit decodes the bytes back into one extra plane row
// and requires them to reproduce view(m) bit for bit (audit_decode_back):
// codecs change representation, never semantics. Other builds carve no
// such row.
//
// Slots are handed out uncleaned: the sending protocol fully overwrites
// every present field (the fill_payload contract), and a trace's delivery
// of message m always follows its send, so a view never observes stale
// words. The arena is not thread-safe; use one per worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "protocols/codec.hpp"
#include "protocols/payload.hpp"
#include "sim/trace.hpp"

namespace rdt {

class PayloadArena {
 public:
  // Prepare slots for `num_messages` messages of `shape` among
  // `num_processes` processes, carried by `codec`. Existing capacity is
  // reused; contents become unspecified and the codec's channel shadows
  // start fresh. Throws std::invalid_argument when the codec does not
  // accept the process count (PiggybackCodec::reset).
  void reset(int num_processes, PayloadShape shape, std::size_t num_messages,
             PiggybackCodecKind codec);

  std::size_t capacity() const { return capacity_; }

  PiggybackSlot slot(MsgId m) { return row(check(m)); }
  PiggybackView view(MsgId m) const { return row_view(check(m)); }

  // Encode message m's planes for channel src -> dest and return the
  // encoded size in bits. Call once per send, after the protocol filled
  // slot(m), in trace send order (the delta codec's shadows advance per
  // channel).
  std::size_t commit_send(MsgId m, ProcessId src, ProcessId dest);
  // The bytes the last commit_send() encoded; valid until the next one.
  std::span<const std::uint8_t> last_encoded() const { return encode_buf_; }

 private:
  std::size_t check(MsgId m) const {
    RDT_REQUIRE(m >= 0 && static_cast<std::size_t>(m) < capacity_,
                "message id outside the arena");
    return static_cast<std::size_t>(m);
  }
  PiggybackSlot row(std::size_t i);
  PiggybackView row_view(std::size_t i) const;

  int n_ = 0;
  PayloadShape shape_{};
  std::size_t row_words_ = 0;  // words per n-bit row
  std::size_t capacity_ = 0;   // messages; audit builds carve one more row
  std::vector<CkptIndex> tdv_plane_;         // n * rows
  std::vector<std::uint64_t> simple_plane_;  // row_words * rows
  std::vector<std::uint64_t> causal_plane_;  // n * row_words * rows
  std::vector<CkptIndex> index_plane_;       // rows

  PiggybackCodec wire_;
  std::vector<std::uint8_t> encode_buf_;  // grow-only
};

// The audit builds' decode-back check on one encoded payload: decodes
// `bytes` (travelling src -> dest) with `codec` into `scratch` and throws
// audit_failure unless the decode consumes exactly `bytes` and the decoded
// planes equal `sent` bit for bit. `scratch` must be shaped like `sent`.
// The check compiles to a no-op without RDT_AUDITS.
void audit_decode_back(PiggybackCodec& codec, ProcessId src, ProcessId dest,
                       std::span<const std::uint8_t> bytes,
                       const PiggybackView& sent, const PiggybackSlot& scratch);

}  // namespace rdt
