// The control information a protocol piggybacks on an application message.
//
// Different protocols transmit different subsets; untransmitted fields stay
// empty so flat_bits() reports exactly what the un-encoded planes hold:
//  * tdv    — n checkpoint-interval indexes (counted as 32-bit integers);
//  * simple — n booleans (the `simple` array of the paper's protocol);
//  * causal — n x n booleans (the `causal` matrix).
//
// A protocol's forced-checkpoint predicate may read ONLY this struct plus
// its own local state — that is the whole point of communication-induced
// checkpointing: no extra control messages, no synchronization.
//
// Two representations exist:
//  * Piggyback — an owning value (tests, examples);
//  * PiggybackView / PiggybackSlot — non-owning read/write views into
//    externally managed storage. The replay engine's PayloadArena hands out
//    slots backed by three flat per-replay planes, so the steady-state
//    replay loop performs zero per-message heap allocations. A Piggyback
//    converts implicitly to a PiggybackView, so both representations flow
//    through the same protocol entry points with identical semantics.
#pragma once

#include <cstddef>
#include <span>

#include "core/tdv.hpp"
#include "util/bit_matrix.hpp"

namespace rdt {

// Which payload fields a protocol transmits. Constant per ProtocolKind, so
// within one replay every message has the same shape — the property that
// lets the arena pre-carve its planes.
struct PayloadShape {
  bool tdv = false;     // n CkptIndex entries
  bool simple = false;  // n bits
  bool causal = false;  // n x n bits
  bool index = false;   // one scalar checkpoint timestamp (BCS)
};

// Read-only view of one message's control data. Untransmitted fields are
// empty (index == kNoIndex), exactly mirroring the owning struct.
struct PiggybackView {
  static constexpr CkptIndex kNoIndex = -1;

  std::span<const CkptIndex> tdv{};
  ConstBitSpan simple{};
  ConstBitMatrixSpan causal{};
  CkptIndex index = kNoIndex;

  // Size of the *flat* (un-encoded) control data in bits: TDV entries as
  // 32-bit integers, bit planes one bit per cell. What actually crosses
  // the network is the PiggybackCodec encoding, measured per message by
  // the replay engine; this analytic figure survives as the labeled
  // comparison column ("flat_bits") in bench output.
  std::size_t flat_bits() const {
    return tdv.size() * 32 + simple.size() + causal.rows() * causal.cols() +
           (index == kNoIndex ? 0 : 32);
  }
};

// Writable destination for on_send: spans sized for the sending protocol's
// PayloadShape (absent fields are empty / null). The protocol must fully
// overwrite every present field — slots are recycled without clearing.
struct PiggybackSlot {
  std::span<CkptIndex> tdv{};
  BitSpan simple{};
  BitMatrixSpan causal{};
  CkptIndex* index = nullptr;
};

struct Piggyback {
  Tdv tdv;            // empty if the protocol does not transmit TDVs
  BitVector simple;   // empty if not transmitted
  BitMatrix causal;   // 0x0 if not transmitted
  // Scalar checkpoint "timestamp" of the index-based protocols (BCS);
  // kNoIndex when not transmitted.
  CkptIndex index = kNoIndex;

  static constexpr CkptIndex kNoIndex = -1;

  // Size of the flat (un-encoded) control data in bits — see
  // PiggybackView::flat_bits().
  std::size_t flat_bits() const;

  PiggybackView view() const;
  operator PiggybackView() const { return view(); }  // NOLINT(*-explicit-*)
  // Writable spans over this struct's own fields (they must already be
  // sized for the intended shape — see CicProtocol::make_payload()).
  PiggybackSlot slot();
};

}  // namespace rdt
