// PayloadArena — replay-owned, reusable storage for piggybacked control data.
//
// Within one replay every message carries the same PayloadShape (all
// processes run the same ProtocolKind), so instead of one heap-allocated
// Piggyback per message the replay engine carves three flat planes:
//  * a TDV plane    — n CkptIndex entries per message, contiguous;
//  * a simple plane — one word-aligned n-bit row per message;
//  * a causal plane — one block-strided n x n bit matrix per message
//    (n word-aligned rows, matrices back to back);
// plus a scalar index plane for the BCS timestamp. slot(m)/view(m) are O(1)
// pointer arithmetic; reset() only reallocates when a later replay needs
// more capacity, so sweeping many seeds through one arena reaches a steady
// state with zero per-message heap allocations.
//
// Every send goes through a PiggybackCodec, the real encode/decode path:
// send_slot(m) hands out a one-message staging slot for the protocol to
// fill; commit_send(m, src, dest) encodes the staged payload with the
// codec, decodes the bytes back into message m's arena planes (what
// view(m) serves at delivery), and returns the measured wire bits. The
// codec scratch — per-channel delta shadows, the encode buffer, the
// staging planes — obeys the same grow-only, zero-steady-state-allocation
// discipline as the planes. Under RDT_AUDITS every commit cross-checks the
// decoded planes against the staged originals bit for bit: codecs change
// representation, never semantics.
//
// Slots are handed out uncleaned: the sending protocol fully overwrites
// every present field (the fill_payload contract), and a trace's delivery
// of message m always follows its send, so a view never observes stale
// words. The arena is not thread-safe; use one per worker thread.
#pragma once

#include <cstddef>
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

  PiggybackSlot slot(MsgId m);
  PiggybackView view(MsgId m) const;

  // Where on_send() writes for message m: the staging planes, which
  // commit_send() then moves through the wire encoding into m's planes.
  PiggybackSlot send_slot(MsgId m);
  // Encode the staged payload for channel src -> dest, decode it into
  // message m's planes, and return the encoded size in bits. Must be
  // called exactly once per send_slot(), in trace send order (the delta
  // codec's shadows advance per channel).
  std::size_t commit_send(MsgId m, ProcessId src, ProcessId dest);

 private:
  std::size_t check(MsgId m) const {
    RDT_REQUIRE(m >= 0 && static_cast<std::size_t>(m) < capacity_,
                "message id outside the arena");
    return static_cast<std::size_t>(m);
  }
  PiggybackView staging_view() const;

  int n_ = 0;
  PayloadShape shape_{};
  std::size_t row_words_ = 0;  // words per n-bit row
  std::size_t capacity_ = 0;   // messages
  std::vector<CkptIndex> tdv_plane_;         // n * capacity
  std::vector<std::uint64_t> simple_plane_;  // row_words * capacity
  std::vector<std::uint64_t> causal_plane_;  // n * row_words * capacity
  std::vector<CkptIndex> index_plane_;       // capacity

  // Wire-codec scratch (all grow-only).
  PiggybackCodec wire_;
  std::vector<CkptIndex> staging_tdv_;          // n
  std::vector<std::uint64_t> staging_simple_;   // row_words
  std::vector<std::uint64_t> staging_causal_;   // n * row_words
  CkptIndex staging_index_ = 0;
  std::vector<std::uint8_t> encode_buf_;
};

}  // namespace rdt
