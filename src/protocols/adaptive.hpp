// AdaptiveProtocol — a registry-constructed meta-protocol that moves along
// the CIC protocol lattice at runtime.
//
// The lattice ("A Rollback in the History of Communication-Induced
// Checkpointing") orders the family by what is piggybacked and how rarely
// the forcing predicate fires: Wang's FDAS needs only the TDV and forces
// on every new dependency after a send; the paper's BHMR protocol adds the
// simple array and causal matrix to fire strictly less often (the proven
// implication C1 v C2 => C_FDAS). The rich planes only pay for themselves
// when deliveries are frequent enough to suppress and the causal matrix
// actually carries knowledge — on send-heavy or sparse traffic FDAS forces
// nearly as rarely at a fraction of the (delta-encoded) wire bits.
//
// AdaptiveProtocol therefore runs in one of two modes:
//  * kRich — BHMR's full C1 v C2 predicate over real simple/causal planes;
//  * kLean — FDAS's C_FDAS predicate; the outgoing simple/causal planes
//    are zeroed (claiming no knowledge is always sound: receivers force
//    *more*, never less) and cost almost nothing under the delta codec.
//
// The payload *shape* is constant (full BHMR) as the arena contract
// requires; only the plane contents change. Full BHMR bookkeeping is
// maintained in both modes, so switching back to kRich is sound at any
// point. Every delivery in every mode forces at least whenever the paper's
// C1 v C2 holds on accurate knowledge — understated piggybacked knowledge
// only widens the predicates — so every run the protocol produces is RDT.
//
// Mode selection is deterministic and purely local (so replay stays
// bit-identical across runs and across wire codecs): every kWindow local
// send/deliver events the protocol re-evaluates the observed traffic
// shape — send/deliver ratio and causal-matrix density — and switches
// mode, recording each switch in ForceReason-style obs counters
// ("protocol.adaptive.to_lean" / "protocol.adaptive.to_rich").
#pragma once

#include "protocols/protocol.hpp"

namespace rdt {

class AdaptiveProtocol final : public CicProtocol {
 public:
  enum class Mode { kRich, kLean };

  // Traffic-shape window: re-evaluate the mode every this many local
  // send/deliver events (evaluated at delivery boundaries).
  static constexpr long long kWindow = 64;
  // Lean when sends outnumber deliveries by this factor in the window ...
  static constexpr long long kSendHeavyRatio = 2;
  // ... or when fewer than 1/kSparseDivisor of the causal cells are known.
  static constexpr long long kSparseDivisor = 4;

  AdaptiveProtocol(int num_processes, ProcessId self);

  ProtocolKind kind() const override { return ProtocolKind::kAdaptive; }

  PayloadShape payload_shape() const override {
    return {.tdv = true, .simple = true, .causal = true};
  }

  ForceReason force_reason(const PiggybackView& msg,
                           ProcessId sender) const override;

  // Exposed for white-box tests and bench reporting.
  Mode mode() const { return mode_; }
  long long switches_to_lean() const { return to_lean_; }
  long long switches_to_rich() const { return to_rich_; }
  const BitVector& simple_state() const { return simple_; }
  const BitMatrix& causal_state() const { return causal_; }

 private:
  void fill_payload(const PiggybackSlot& out) const override;
  void merge_payload(const PiggybackView& msg, ProcessId sender) override;
  void reset_on_checkpoint(bool forced) override;

  void maybe_switch();

  Mode mode_ = Mode::kRich;
  BitVector simple_;
  BitMatrix causal_;
  // Window accounting. Sends are counted from the const fill_payload hook,
  // hence mutable; the mode itself only flips inside merge_payload.
  mutable long long window_sends_ = 0;
  long long window_delivers_ = 0;
  long long to_lean_ = 0;
  long long to_rich_ = 0;
};

}  // namespace rdt
