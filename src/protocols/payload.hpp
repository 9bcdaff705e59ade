// The control information a protocol piggybacks on an application message.
//
// Different protocols transmit different subsets; untransmitted fields stay
// empty:
//  * tdv    — n checkpoint-interval indexes (counted as 32-bit integers);
//  * simple — n booleans (the `simple` array of the paper's protocol);
//  * causal — n x n booleans (the `causal` matrix).
//
// A protocol's forced-checkpoint predicate may read ONLY this data plus
// its own local state — that is the whole point of communication-induced
// checkpointing: no extra control messages, no synchronization.
//
// Payloads are non-owning: PiggybackView / PiggybackSlot are read/write
// views into externally managed storage. The PayloadArena (sim/) hands out
// slots backed by flat per-replay planes, so the steady-state replay loop
// performs zero per-message heap allocations; protocol tests drive
// protocols through the same arena (sim/protocol_driver.hpp).
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

  // Size of the *flat* (un-encoded) control data of one message in bits:
  // TDV entries as 32-bit integers, bit planes one bit per cell, the index
  // as a 32-bit integer. What actually crosses the network is the
  // PiggybackCodec encoding, measured per message by the replay engine;
  // this analytic figure survives as the labeled comparison column
  // ("flat_bits") in bench output.
  std::size_t flat_bits(int num_processes) const {
    const auto n = static_cast<std::size_t>(num_processes);
    return (tdv ? 32 * n : 0) + (simple ? n : 0) + (causal ? n * n : 0) +
           (index ? 32 : 0);
  }

  friend bool operator==(const PayloadShape&, const PayloadShape&) = default;
};

// Read-only view of one message's control data. Untransmitted fields are
// empty (index == kNoIndex).
struct PiggybackView {
  static constexpr CkptIndex kNoIndex = -1;

  std::span<const CkptIndex> tdv{};
  ConstBitSpan simple{};
  ConstBitMatrixSpan causal{};
  CkptIndex index = kNoIndex;
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

}  // namespace rdt
